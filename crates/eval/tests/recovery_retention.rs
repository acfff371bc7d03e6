//! Kill/restart with database retention **on**: segments sized so that
//! retention drops sealed segments between checkpoints, which the E19
//! matrix (retention off, amend window spanning the run) never exercises.
//!
//! The contract is the matrix's: the recovered stream, deduplicated by
//! sequence number, is exactly-once and identical to the uninterrupted
//! run. On top of it, the restart must resume from the last checkpoint:
//! one taken in a cycle whose retention dropped a segment still passes its
//! own validation, so nothing replays from cycle 0.

use grca_collector::StorageConfig;
use grca_eval::{
    check_exactly_once, corpus, dedup_by_seq, eventual_ops, Cadence, GoldenScenario, Replay,
    SeqVerdict,
};
use grca_simnet::{FeedChaos, KillPoint, KillSwitch};
use grca_types::Duration;
use std::path::Path;

const CYCLE_LEN: Duration = Duration::hours(1);

/// One process lifetime of the retention-on pipeline rooted at `dir`:
/// restore if there is a checkpoint, run until the schedule ends or `kill`
/// fires. Returns the emissions, whether the kill fired, whether any
/// cycle's retention dropped rows, and where the restore resumed from (or
/// why it did not).
fn attempt(
    s: &GoldenScenario,
    chaos: &FeedChaos,
    dir: &Path,
    kill: KillSwitch,
) -> (Vec<SeqVerdict>, bool, bool, Result<u64, String>) {
    let built = s.build();
    let cfg = s.scenario_config();
    let (mb, delivered) = s.deliver(&built, chaos, CYCLE_LEN);
    let scfg = StorageConfig {
        segment_rows: 64,
        cache_segments: 4,
        spill_dir: Some(dir.to_path_buf()),
        durable: true,
    };
    let online = s
        .study
        .online(&built.topo)
        .with_storage(&scfg)
        .with_db_retention(Duration::hours(1));
    let mut replay = Replay::new(s.study, &built.topo, online, CYCLE_LEN, Cadence::Strict)
        .with_checkpoints(dir, 1)
        .with_kill(kill, false, 4);
    let resumed = replay.restore(dir, &scfg);

    let clocks = replay.clocks(&mb, cfg.end());
    let mut emissions = Vec::new();
    let mut rows_before = 0usize;
    let mut dropped = false;
    let stopped = replay.run(&clocks, &delivered, |online, _, new| {
        emissions.extend(
            new.iter()
                .map(|e| SeqVerdict::from_emission(&built.topo, e)),
        );
        let rows = online.database().total_rows();
        dropped |= rows < rows_before;
        rows_before = rows;
    });
    (emissions, stopped.is_some(), dropped, resumed)
}

#[test]
fn recovery_with_retention_dropping_segments_is_identical_and_exactly_once() {
    let base = std::env::temp_dir().join(format!("grca-recovery-retain-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let mut s = corpus()
        .into_iter()
        .find(|s| s.name == "bgp-baseline")
        .expect("corpus has bgp-baseline");
    s.days = 3; // the retention floor trails the clock by ~1.2 days
    let chaos = FeedChaos {
        seed: 7,
        ops: eventual_ops(s.study, (s.days * 24) as usize),
    };

    let (reference, stopped, dropped, cold) =
        attempt(&s, &chaos, &base.join("ref"), KillSwitch::disarmed());
    assert!(!stopped);
    assert!(cold.is_err(), "a fresh directory holds no checkpoint");
    assert!(dropped, "retention never dropped a sealed segment");
    assert!(!reference.is_empty(), "scenario must emit something");

    // Die inside the manifest rotation, two days in: by then retention
    // has been dropping segments between checkpoints for a day.
    let kill = KillPoint::CheckpointRotated { cycle: 55 };
    let run_dir = base.join("run");
    let (mut all, killed, dropped, _) = attempt(&s, &chaos, &run_dir, KillSwitch::armed(kill));
    assert!(killed, "kill point must fire");
    assert!(dropped, "kill came before retention dropped anything");
    let (rest, stopped, _, resumed) = attempt(&s, &chaos, &run_dir, KillSwitch::disarmed());
    assert!(!stopped);
    // Cycle 55's manifest never landed, so cycle 54's is the last one.
    assert_eq!(
        resumed,
        Ok(54),
        "the restart did not resume from the last checkpoint"
    );
    all.extend(rest);

    let deduped = dedup_by_seq(&all).expect("replayed duplicates must be byte-identical");
    check_exactly_once(&deduped).expect("sequence numbers contiguous from 1");
    assert_eq!(deduped, reference, "recovered stream diverged");
    std::fs::remove_dir_all(&base).ok();
}
