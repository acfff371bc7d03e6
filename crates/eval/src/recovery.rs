//! Crash-recovery evaluation: kill the online pipeline at scheduled and
//! randomized points, restart it from its durable checkpoint, and require
//! the recovered emission stream to be **exactly-once and label-identical**
//! to an uninterrupted run (E19).
//!
//! The harness drives the same golden scenarios and chaos transports as
//! [`crate::chaos`], but with durability on: the collector runs segmented
//! storage in durable mode (checksummed, fsynced, atomically renamed spill
//! blobs), and every cycle closes with an atomic checkpoint manifest
//! ([`grca_apps::checkpoint`]). A [`KillSwitch`] fires at one
//! [`KillPoint`] per run — between ingest sub-chunks, before the
//! checkpoint, *inside* the manifest rotation (after the temp write; after
//! the `MANIFEST → MANIFEST.prev` rotation), or just after the checkpoint
//! — either aborting the process (the `exp_recovery` child harness) or
//! stopping the in-process attempt (tests, proptests).
//!
//! Restart is load + deterministic replay: the restored pipeline re-runs
//! every cycle after the checkpointed one and re-emits with the *same*
//! sequence numbers, so the concatenated pre-crash + post-restart stream
//! deduplicates by [`grca_core::Emission::seq`] back to exactly the
//! uninterrupted stream — verdict for verdict, stamp for stamp.

use crate::corpus::GoldenScenario;
use crate::replay::{Cadence, Replay};
use grca_collector::StorageConfig;
use grca_core::Emission;
use grca_net_model::Topology;
use grca_simnet::{FeedChaos, KillPoint, KillSwitch};
use grca_types::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Knobs for one recovery pipeline run.
#[derive(Debug, Clone)]
pub struct RecoveryOpts {
    /// Micro-batch cycle length (the online polling interval).
    pub cycle_len: Duration,
    /// Ingest sub-chunks per cycle — the record-boundary kill
    /// granularity.
    pub ingest_chunks: u32,
    /// Rows per sealed segment in the durable store.
    pub segment_rows: usize,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            cycle_len: Duration::hours(1),
            ingest_chunks: 4,
            segment_rows: 512,
        }
    }
}

impl RecoveryOpts {
    /// The durable storage configuration for a run rooted at `dir`.
    pub fn storage(&self, dir: &Path) -> StorageConfig {
        StorageConfig {
            segment_rows: self.segment_rows,
            cache_segments: 4,
            spill_dir: Some(dir.to_path_buf()),
            durable: true,
        }
    }
}

/// One emission as the consumer journals it: sequence number plus
/// everything the label-identity check compares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqVerdict {
    pub seq: u64,
    pub location: String,
    pub start_unix: i64,
    pub label: String,
    pub degraded: bool,
    pub amends: bool,
    pub emitted_at_unix: i64,
}

impl SeqVerdict {
    pub fn from_emission(topo: &Topology, e: &Emission) -> SeqVerdict {
        SeqVerdict {
            seq: e.seq,
            location: e.diagnosis.symptom.location.display(topo),
            start_unix: e.diagnosis.symptom.window.start.unix(),
            label: e.diagnosis.label(),
            degraded: e.mode.is_degraded(),
            amends: e.amends,
            emitted_at_unix: e.emitted_at.unix(),
        }
    }
}

/// What one pipeline attempt (a process lifetime) produced.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Emissions this attempt produced, in stream order.
    pub emissions: Vec<SeqVerdict>,
    /// The kill point that stopped the attempt (`None`: ran to the end).
    pub stopped_at: Option<KillPoint>,
    /// Checkpoint cycle restored from at startup (`None`: cold start).
    pub resumed_from: Option<u64>,
    /// Total cycles in the schedule, including the drain tail.
    pub cycles: u64,
}

/// Run one attempt of the checkpointed online pipeline for scenario `s`
/// under `chaos`, with durable state rooted at `dir`.
///
/// The attempt restores from the latest checkpoint in `dir` when one
/// exists (falling back to a cold start when it is absent or torn), then
/// executes cycles until the schedule ends or `kill` fires. With
/// `abort_on_kill` the process dies on the spot — no destructors, exactly
/// like a power cut; otherwise the attempt returns early with
/// `stopped_at` set and the pipeline is dropped (durable files survive
/// drop by design). When `journal` is set, every emission is appended to
/// that JSONL file *before* the cycle's checkpoint — the journal models
/// the downstream consumer, so replayed cycles append duplicates that
/// [`dedup_by_seq`] must fold away.
pub fn run_attempt(
    s: &GoldenScenario,
    chaos: &FeedChaos,
    opts: &RecoveryOpts,
    dir: &Path,
    kill: &KillSwitch,
    abort_on_kill: bool,
    journal: Option<&Path>,
) -> PipelineOutcome {
    let built = s.build();
    let cfg = s.scenario_config();
    let (mb, delivered) = s.deliver(&built, chaos, opts.cycle_len);

    let scfg = opts.storage(dir);
    let online = s
        .study
        .online(&built.topo)
        .with_storage(&scfg)
        .with_amend_window(cfg.end() - cfg.start + Duration::hours(12));
    // Every cycle closes with a checkpoint: the kill matrix schedules its
    // checkpoint-stage kills at arbitrary cycles.
    let mut replay = Replay::new(
        s.study,
        &built.topo,
        online,
        opts.cycle_len,
        Cadence::Strict,
    )
    .with_checkpoints(dir, 1)
    .with_kill(kill.clone(), abort_on_kill, opts.ingest_chunks);
    let resumed_from = replay.restore(dir, &scfg).ok();

    let clocks = replay.clocks(&mb, cfg.end());
    let mut emissions: Vec<SeqVerdict> = Vec::new();
    let stopped_at = replay.run(&clocks, &delivered, |_, _, new| {
        let batch: Vec<SeqVerdict> = new
            .iter()
            .map(|e| SeqVerdict::from_emission(&built.topo, e))
            .collect();
        if let Some(p) = journal {
            append_journal(p, &batch);
        }
        emissions.extend(batch);
    });

    PipelineOutcome {
        emissions,
        stopped_at,
        resumed_from,
        cycles: clocks.len() as u64,
    }
}

/// Append emissions to a JSONL consumer journal (one [`SeqVerdict`] per
/// line). The write reaches the kernel before returning, so a subsequent
/// `abort` cannot lose it — matching a consumer that acked the emissions.
pub fn append_journal(path: &Path, entries: &[SeqVerdict]) {
    if entries.is_empty() {
        return;
    }
    let mut buf = String::new();
    for e in entries {
        buf.push_str(&serde_json::to_string(e).expect("encode emission"));
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open emission journal");
    f.write_all(buf.as_bytes())
        .expect("append emission journal");
}

/// Read a consumer journal back, dropping a torn trailing line (the one
/// write a real crash could leave half-finished).
pub fn read_journal(path: &Path) -> Vec<SeqVerdict> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        match serde_json::from_str::<SeqVerdict>(line) {
            Ok(v) => out.push(v),
            Err(_) => break,
        }
    }
    out
}

/// Fold a journal that may contain replayed duplicates down to one entry
/// per sequence number, sorted by seq. Duplicate seqs must be
/// *byte-identical* — a replay that re-emits a sequence number with
/// different content is a determinism bug, not a duplicate, and fails.
pub fn dedup_by_seq(entries: &[SeqVerdict]) -> Result<Vec<SeqVerdict>, String> {
    let mut by_seq: BTreeMap<u64, &SeqVerdict> = BTreeMap::new();
    for e in entries {
        match by_seq.get(&e.seq) {
            Some(prev) if **prev != *e => {
                return Err(format!(
                    "seq {} re-emitted with different content: {:?} vs {:?}",
                    e.seq, prev, e
                ));
            }
            Some(_) => {}
            None => {
                by_seq.insert(e.seq, e);
            }
        }
    }
    Ok(by_seq.into_values().cloned().collect())
}

/// Exactly-once check over a deduplicated stream: sequence numbers are
/// contiguous from 1 with no gaps (nothing lost) — duplicates were
/// already folded by [`dedup_by_seq`].
pub fn check_exactly_once(deduped: &[SeqVerdict]) -> Result<(), String> {
    for (i, e) in deduped.iter().enumerate() {
        let want = i as u64 + 1;
        if e.seq != want {
            return Err(format!("sequence gap: expected {want}, found {}", e.seq));
        }
    }
    Ok(())
}

/// Deterministic scheduled + seeded-random kill points for a schedule of
/// `cycles` cycles with `chunks` ingest sub-chunks: one mid-ingest kill
/// at a random record boundary, plus one kill at each stage of the
/// checkpoint protocol (before, inside the temp write, inside the
/// rotation, after) at seeded cycles. Five points per seed — the E19
/// matrix requires at least four.
pub fn kill_matrix(cycles: u64, chunks: u32, seed: u64) -> Vec<KillPoint> {
    fn mix(seed: u64, salt: u64) -> u64 {
        // splitmix64: enough to spread kill cycles without a rand dep.
        let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let span = cycles.max(2);
    let pick = |salt: u64| 1 + mix(seed, salt) % (span - 1);
    let chunks = chunks.max(1);
    vec![
        KillPoint::Ingest {
            cycle: pick(1),
            chunk: (mix(seed, 6) % chunks as u64) as u32,
            of: chunks,
        },
        KillPoint::BeforeCheckpoint { cycle: pick(2) },
        KillPoint::CheckpointTmp { cycle: pick(3) },
        KillPoint::CheckpointRotated { cycle: pick(4) },
        KillPoint::AfterCheckpoint { cycle: pick(5) },
    ]
}

/// Verdict for one kill-and-recover case against its uninterrupted
/// reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryVerdict {
    pub scenario: String,
    pub chaos_seed: u64,
    pub kill: String,
    /// The kill actually fired (a point past the schedule end never
    /// does; such cases still must match the reference trivially).
    pub killed: bool,
    pub reference_emissions: usize,
    /// Journal length before dedup (pre-crash + replayed).
    pub recovered_raw: usize,
    /// Replayed duplicates folded away by seq dedup.
    pub duplicates: usize,
    /// Recovered stream, deduplicated, equals the reference verdict for
    /// verdict — seq, key, label, degradation, stamp.
    pub identical: bool,
    /// Seqs contiguous from 1 after dedup, and every duplicate was
    /// byte-identical.
    pub exactly_once: bool,
    /// Checkpoint cycle the restart resumed from (`None`: cold start).
    pub resumed_from: Option<u64>,
    /// Cycles re-executed between restore and the crash point — the
    /// replay-to-caught-up distance.
    pub replayed_cycles: u64,
    pub cycles: u64,
}

impl RecoveryVerdict {
    pub fn pass(&self) -> bool {
        self.identical && self.exactly_once
    }

    /// Judge one case from what its consumer saw: fold `recovered` — the
    /// pre-crash emissions followed by the restart's — by sequence number,
    /// require the result exactly-once and equal to `reference`, and
    /// derive the replay distance from where the restart resumed.
    pub fn judge(
        s: &GoldenScenario,
        chaos: &FeedChaos,
        kill: KillPoint,
        reference: &PipelineOutcome,
        killed: bool,
        resumed_from: Option<u64>,
        recovered: &[SeqVerdict],
    ) -> RecoveryVerdict {
        let deduped = dedup_by_seq(recovered);
        let exactly_once = deduped
            .as_ref()
            .is_ok_and(|d| check_exactly_once(d).is_ok());
        let deduped = deduped.unwrap_or_default();
        let start_cycle = resumed_from.map_or(0, |c| c + 1);
        RecoveryVerdict {
            scenario: s.name.to_string(),
            chaos_seed: chaos.seed,
            kill: kill.to_string(),
            killed,
            reference_emissions: reference.emissions.len(),
            recovered_raw: recovered.len(),
            duplicates: recovered.len() - deduped.len(),
            identical: deduped == reference.emissions,
            exactly_once,
            resumed_from,
            replayed_cycles: if killed {
                kill.cycle().saturating_sub(start_cycle) + 1
            } else {
                0
            },
            cycles: reference.cycles,
        }
    }
}

/// Run one full kill-and-recover case **in process**: the uninterrupted
/// reference in `base_dir/ref`, then the killed attempt plus its restart
/// in `base_dir/run`, comparing the deduplicated recovered stream to the
/// reference. The crash is simulated by dropping the pipeline mid-run —
/// durable spill files and manifests survive drop by design, so the
/// restart sees exactly the on-disk state an abort would leave.
pub fn run_recovery_case(
    s: &GoldenScenario,
    chaos: &FeedChaos,
    opts: &RecoveryOpts,
    base_dir: &Path,
    kill: KillPoint,
) -> RecoveryVerdict {
    let ref_dir = base_dir.join("ref");
    let run_dir = base_dir.join("run");
    let reference = run_attempt(
        s,
        chaos,
        opts,
        &ref_dir,
        &KillSwitch::disarmed(),
        false,
        None,
    );
    assert!(reference.stopped_at.is_none());

    let first = run_attempt(
        s,
        chaos,
        opts,
        &run_dir,
        &KillSwitch::armed(kill),
        false,
        None,
    );
    let killed = first.stopped_at.is_some();
    let mut all = first.emissions;
    let mut resumed_from = None;
    if killed {
        let second = run_attempt(
            s,
            chaos,
            opts,
            &run_dir,
            &KillSwitch::disarmed(),
            false,
            None,
        );
        assert!(second.stopped_at.is_none());
        resumed_from = second.resumed_from;
        all.extend(second.emissions);
    }
    RecoveryVerdict::judge(s, chaos, kill, &reference, killed, resumed_from, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::eventual_ops;
    use crate::corpus::corpus;

    fn temp_base(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("grca-recovery-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn kill_matrix_is_deterministic_and_covers_all_stages() {
        let a = kill_matrix(48, 4, 7);
        let b = kill_matrix(48, 4, 7);
        assert_eq!(a, b);
        assert!(a.len() >= 4);
        assert!(a.iter().any(|k| matches!(k, KillPoint::Ingest { .. })));
        assert!(a
            .iter()
            .any(|k| matches!(k, KillPoint::CheckpointTmp { .. })));
        assert!(a
            .iter()
            .any(|k| matches!(k, KillPoint::CheckpointRotated { .. })));
        for k in &a {
            assert!(k.cycle() < 48);
        }
        assert_ne!(kill_matrix(48, 4, 8), a, "seed varies the cycles");
    }

    #[test]
    fn dedup_and_exactly_once_reject_gaps_and_divergence() {
        let v = |seq: u64, label: &str| SeqVerdict {
            seq,
            location: "r1".into(),
            start_unix: 0,
            label: label.into(),
            degraded: false,
            amends: false,
            emitted_at_unix: 10,
        };
        let ok = dedup_by_seq(&[v(1, "a"), v(2, "b"), v(1, "a")]).unwrap();
        assert_eq!(ok.len(), 2);
        assert!(check_exactly_once(&ok).is_ok());
        assert!(dedup_by_seq(&[v(1, "a"), v(1, "DIFFERENT")]).is_err());
        assert!(check_exactly_once(&[v(1, "a"), v(3, "c")]).is_err());
    }

    #[test]
    fn journal_roundtrip_drops_torn_tail() {
        let dir = temp_base("journal");
        let path = dir.join("journal.jsonl");
        let v = |seq: u64| SeqVerdict {
            seq,
            location: "r1".into(),
            start_unix: 5,
            label: "l".into(),
            degraded: true,
            amends: false,
            emitted_at_unix: 9,
        };
        append_journal(&path, &[v(1), v(2)]);
        append_journal(&path, &[v(3)]);
        assert_eq!(read_journal(&path), vec![v(1), v(2), v(3)]);
        // Simulate a torn final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 8);
        std::fs::write(&path, text).unwrap();
        assert_eq!(read_journal(&path), vec![v(1), v(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One end-to-end in-process recovery case: kill the BGP baseline
    /// pipeline inside the checkpoint rotation under eventual-delivery
    /// chaos, restart, and require the recovered stream to be identical
    /// and exactly-once. (The full 12×3×5 matrix runs in `exp_recovery`.)
    #[test]
    fn killed_and_restarted_stream_equals_uninterrupted() {
        let base = temp_base("case");
        let mut s = corpus()
            .into_iter()
            .find(|s| s.name == "bgp-baseline")
            .expect("corpus has bgp-baseline");
        s.days = 1; // shrink the committed 10-day scenario for unit scale
        let opts = RecoveryOpts::default();
        let cycles = 24; // 1-day scenario at 1 h cycles, before the drain
        let chaos = FeedChaos {
            seed: 7,
            ops: eventual_ops(s.study, cycles),
        };
        let kill = KillPoint::CheckpointRotated { cycle: 10 };
        let v = run_recovery_case(&s, &chaos, &opts, &base, kill);
        assert!(v.killed, "kill point must fire");
        assert!(v.reference_emissions > 0, "scenario must emit something");
        assert!(v.pass(), "{v:?}");
        // Mid-rotation kill falls back to the previous checkpoint.
        assert_eq!(v.resumed_from, Some(9));
        std::fs::remove_dir_all(&base).ok();
    }
}
