//! E19 — crash-recovery kill matrix for the checkpointed online pipeline.
//!
//! For every golden scenario × chaos seed, the harness re-executes itself
//! as a **child process** running the durable online pipeline
//! ([`grca_eval::run_attempt`]) with a [`KillSwitch`] armed from the
//! environment. The child `abort()`s at its kill point — no destructors,
//! no flushes, exactly a power cut — then a second child restarts from
//! the same durable directory, restores the latest checkpoint manifest,
//! and replays the un-checkpointed tail. The two children journal every
//! emission (JSONL, acked-before-checkpoint) to separate files; the
//! parent concatenates the journals, folds replayed duplicates by
//! sequence number, and gates:
//!
//! * **label-identical** — the deduplicated recovered stream equals an
//!   uninterrupted in-process reference, verdict for verdict;
//! * **exactly-once** — sequence numbers contiguous from 1, every
//!   duplicate byte-identical (a replay that re-emits a seq with
//!   different content is a determinism bug and fails);
//! * **publisher recovery** — a [`grca_serve::Publisher`] adopting the
//!   recovered collector state publishes a snapshot whose per-tenant
//!   verdicts match a fresh publisher fed the same delivered records.
//!
//! What checkpointing *costs* is not gated here: `bench_pipeline`'s
//! `soak-hostile` workload reports `collector.durable.{ckpt_ms_p50,
//! restore_ms, replay_ms}` and an end-to-end `throughput_per_s` through
//! checkpoints, compared across commits.
//!
//! Kill points come from [`kill_matrix`]: one seeded-random mid-ingest
//! record boundary plus one kill at each checkpoint protocol stage
//! (before, temp-written, rotated, after) — five per seed, crossing the
//! whole crash-consistency surface including torn manifest rotations.
//!
//! Writes `results/BENCH_rca_recovery.json`, validated against the
//! committed `results/BENCH_rca_recovery.schema.json`. Pass `--smoke`
//! for a two-scenario subset (CI bench-smoke) that asserts but does not
//! rewrite the committed artifact. Replay-to-caught-up distance is
//! reported per case as `replayed_cycles` (cycles re-executed between
//! restore point and crash point) alongside the restart wall-clock.

use grca_bench::{results_dir, schema};
use grca_collector::DurableStore;
use grca_eval::recovery::read_journal;
use grca_eval::{
    check_exactly_once, corpus, dedup_by_seq, eventual_ops, kill_matrix, labels, run_attempt,
    GoldenScenario, RecoveryOpts, RecoveryVerdict,
};
use grca_serve::{Publisher, TenantSpec};
use grca_simnet::{FeedChaos, KillSwitch};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The committed metric contract for `BENCH_rca_recovery.json`.
const SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/BENCH_rca_recovery.schema.json"
));

/// Scenario horizon for recovery replays. The committed corpus horizons
/// (10–15 days) are batch-oracle scale; the kill matrix re-runs every
/// scenario ~11 times (reference + 5 × crash + restart), so each replay
/// shrinks to this many days — still 48 delivery cycles and dozens of
/// checkpoints per run, which is the surface the crash protocol exercises.
const FULL_DAYS: u32 = 2;
const SMOKE_DAYS: u32 = 1;

/// One kill-and-recover case, as committed to the results artifact.
#[derive(Serialize)]
struct CaseResult {
    scenario: String,
    chaos_seed: u64,
    kill: String,
    killed: bool,
    reference_emissions: usize,
    /// Journal length before dedup (pre-crash + replayed).
    recovered_raw: usize,
    /// Replayed duplicates folded away by seq dedup.
    duplicates: usize,
    identical: bool,
    exactly_once: bool,
    /// Checkpoint cycle the restart resumed from (-1: cold start).
    resumed_from: i64,
    /// Cycles re-executed between restore and crash point — the
    /// replay-to-caught-up distance.
    replayed_cycles: u64,
    /// Wall-clock of the restart child (rebuild + restore + replay +
    /// run to completion).
    restart_wall_secs: f64,
}

#[derive(Serialize)]
struct MatrixReport {
    scenarios: usize,
    chaos_seeds: usize,
    kill_points: usize,
    cases: Vec<CaseResult>,
    all_identical: bool,
    all_exactly_once: bool,
}

#[derive(Serialize)]
struct PublisherReport {
    /// (scenario, seed) pairs whose recovered collector was republished
    /// and differentially compared against a fresh publisher.
    checks: usize,
    identical: bool,
}

#[derive(Serialize)]
struct Report {
    matrix: MatrixReport,
    publisher: PublisherReport,
}

/// Rebuild one (scenario, chaos) case deterministically — parent and
/// children must agree exactly, so everything derives from the scenario
/// name, the day override, and the chaos seed.
fn case_setup(name: &str, days: u32, chaos_seed: u64) -> (GoldenScenario, FeedChaos) {
    let mut s = corpus()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown scenario {name:?}"));
    s.days = days;
    let chaos = FeedChaos {
        seed: chaos_seed,
        ops: eventual_ops(s.study, (days * 24) as usize),
    };
    (s, chaos)
}

/// The child entry point: run one pipeline attempt with the kill switch
/// armed from `GRCA_KILL_POINT` (absent: run to completion), aborting
/// the process at the kill point.
fn child_main() {
    let get = |var: &str| std::env::var(var).unwrap_or_else(|_| panic!("child missing {var}"));
    let name = get("GRCA_RECOVERY_SCENARIO");
    let days: u32 = get("GRCA_RECOVERY_DAYS").parse().expect("days");
    let chaos_seed: u64 = get("GRCA_RECOVERY_CHAOS_SEED").parse().expect("seed");
    let dir = PathBuf::from(get("GRCA_RECOVERY_DIR"));
    let journal = PathBuf::from(get("GRCA_RECOVERY_JOURNAL"));
    let kill = KillSwitch::from_env("GRCA_KILL_POINT");
    let armed = kill.point().is_some();

    let (s, chaos) = case_setup(&name, days, chaos_seed);
    let out = run_attempt(
        &s,
        &chaos,
        &RecoveryOpts::default(),
        &dir,
        &kill,
        true,
        Some(&journal),
    );
    // Reaching here means the kill never fired (it aborts in place).
    println!(
        "RESUMED_FROM={}",
        out.resumed_from.map(|c| c as i64).unwrap_or(-1)
    );
    if armed {
        // An armed switch that never fired is a matrix bug (the kill
        // point must lie inside the schedule); exit distinctly so the
        // parent can tell this apart from a crash.
        std::process::exit(3);
    }
}

fn child_cmd(
    name: &str,
    days: u32,
    chaos_seed: u64,
    dir: &Path,
    journal: &Path,
    kill: Option<&str>,
) -> std::process::Command {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.env("GRCA_RECOVERY_CHILD", "1")
        .env("GRCA_RECOVERY_SCENARIO", name)
        .env("GRCA_RECOVERY_DAYS", days.to_string())
        .env("GRCA_RECOVERY_CHAOS_SEED", chaos_seed.to_string())
        .env("GRCA_RECOVERY_DIR", dir)
        .env("GRCA_RECOVERY_JOURNAL", journal)
        .env_remove("GRCA_KILL_POINT")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Some(k) = kill {
        cmd.env("GRCA_KILL_POINT", k);
    }
    cmd
}

/// Differential publisher check: restore the recovered run's collector
/// state from its durable directory, adopt it into a fresh
/// [`Publisher`], publish, and compare every tenant verdict against a
/// publisher that ingested the same chaos-delivered record stream
/// itself. Returns whether the keyed verdict sets are identical.
fn publisher_recovers_identically(
    s: &GoldenScenario,
    chaos: &FeedChaos,
    opts: &RecoveryOpts,
    dir: &Path,
) -> bool {
    let built = s.build();
    let (_, delivered) = s.deliver(&built, chaos, opts.cycle_len);
    let topo = Arc::new(built.topo);

    let store = DurableStore::open(dir).expect("open recovered store");
    let manifest = store.load().expect("recovered run must have a manifest");
    let (db, stats, _registry) = manifest
        .restore(dir, &opts.storage(dir))
        .expect("restore recovered collector");

    let (defs, graph) = (s.study.definitions(&topo), s.study.graph());
    let specs = || vec![TenantSpec::new(s.name, graph.clone())];
    let mut recovered =
        Publisher::new(topo.clone(), defs.clone(), specs()).with_recovered(db, stats);
    let rec_snap = recovered.publish().expect("publish recovered snapshot");

    let mut fresh = Publisher::new(topo.clone(), defs, specs());
    for batch in &delivered {
        fresh.ingest(batch);
    }
    let fresh_snap = fresh.publish().expect("publish fresh snapshot");

    // Sorted labels: symptom ordering may differ between the flat and
    // restored-segmented backends, labels must not.
    let keyed = |snap: &grca_serve::ServingSnapshot| {
        let id = snap.tenant_id(s.name).expect("tenant present");
        labels(&topo, &snap.diagnose_all(id))
    };
    keyed(&rec_snap) == keyed(&fresh_snap)
}

fn main() {
    if std::env::var("GRCA_RECOVERY_CHILD").is_ok() {
        child_main();
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (names, seeds, days): (Vec<&str>, &[u64], u32) = if smoke {
        (
            vec!["bgp-baseline", "cdn-baseline"],
            &grca_eval::CHAOS_SEEDS[..1],
            SMOKE_DAYS,
        )
    } else {
        (
            corpus().iter().map(|s| s.name).collect(),
            grca_eval::CHAOS_SEEDS,
            FULL_DAYS,
        )
    };
    let opts = RecoveryOpts::default();
    let base = std::env::temp_dir().join(format!("grca-exp-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("create work dir");

    let mut cases: Vec<CaseResult> = Vec::new();
    let mut publisher_checks = 0usize;
    let mut publisher_identical = true;
    let mut failures: Vec<String> = Vec::new();

    println!(
        "{:<22} {:>5} {:>16} {:>6} {:>6} {:>5} {:>7} {:>7} {:>9}",
        "scenario", "seed", "kill", "ref", "raw", "dups", "resume", "replay", "restart s"
    );
    for name in &names {
        for &seed in seeds {
            let (s, chaos) = case_setup(name, days, seed);
            let pair_dir = base.join(format!("{name}-{seed}"));
            std::fs::create_dir_all(&pair_dir).expect("create pair dir");
            let reference = run_attempt(
                &s,
                &chaos,
                &opts,
                &pair_dir.join("ref"),
                &KillSwitch::disarmed(),
                false,
                None,
            );
            assert!(reference.stopped_at.is_none());

            let kills = kill_matrix((days * 24) as u64, opts.ingest_chunks, seed);
            for (ki, kill) in kills.iter().enumerate() {
                let run_dir = pair_dir.join(format!("run{ki}"));
                let j_crash = pair_dir.join(format!("j{ki}-crash.jsonl"));
                let j_restart = pair_dir.join(format!("j{ki}-restart.jsonl"));
                let kill_str = kill.to_string();

                let crash = child_cmd(name, days, seed, &run_dir, &j_crash, Some(&kill_str))
                    .output()
                    .expect("spawn crash child");
                if crash.status.code() == Some(3) {
                    panic!("{name}/{seed}/{kill_str}: armed kill point never fired");
                }
                let killed = !crash.status.success();

                let (resumed_from, restart_wall_secs) = if killed {
                    let t0 = Instant::now();
                    let restart = child_cmd(name, days, seed, &run_dir, &j_restart, None)
                        .output()
                        .expect("spawn restart child");
                    let wall = t0.elapsed().as_secs_f64();
                    assert!(
                        restart.status.success(),
                        "{name}/{seed}/{kill_str}: restart child failed"
                    );
                    let text = String::from_utf8_lossy(&restart.stdout);
                    let resumed: i64 = text
                        .lines()
                        .find_map(|l| l.strip_prefix("RESUMED_FROM="))
                        .expect("restart child printed no RESUMED_FROM")
                        .parse()
                        .expect("parse RESUMED_FROM");
                    (u64::try_from(resumed).ok(), wall)
                } else {
                    (None, 0.0)
                };

                let mut all = read_journal(&j_crash);
                all.extend(read_journal(&j_restart));
                let v = RecoveryVerdict::judge(
                    &s,
                    &chaos,
                    *kill,
                    &reference,
                    killed,
                    resumed_from,
                    &all,
                );
                let case = CaseResult {
                    scenario: v.scenario,
                    chaos_seed: v.chaos_seed,
                    kill: v.kill,
                    killed: v.killed,
                    reference_emissions: v.reference_emissions,
                    recovered_raw: v.recovered_raw,
                    duplicates: v.duplicates,
                    identical: v.identical,
                    exactly_once: v.exactly_once,
                    resumed_from: v.resumed_from.map_or(-1, |c| c as i64),
                    replayed_cycles: v.replayed_cycles,
                    restart_wall_secs,
                };
                println!(
                    "{:<22} {:>5} {:>16} {:>6} {:>6} {:>5} {:>7} {:>7} {:>9.2}",
                    case.scenario,
                    case.chaos_seed,
                    case.kill,
                    case.reference_emissions,
                    case.recovered_raw,
                    case.duplicates,
                    case.resumed_from,
                    case.replayed_cycles,
                    case.restart_wall_secs
                );
                if !case.killed {
                    failures.push(format!("{name}/{seed}/{kill_str}: kill never fired"));
                }
                if !case.identical {
                    failures.push(format!(
                        "{name}/{seed}/{kill_str}: recovered stream diverged ({} deduped vs {} reference)",
                        case.recovered_raw - case.duplicates,
                        case.reference_emissions
                    ));
                }
                if !case.exactly_once {
                    let why = dedup_by_seq(&all)
                        .and_then(|d| check_exactly_once(&d))
                        .expect_err("judged not exactly-once");
                    failures.push(format!("{name}/{seed}/{kill_str}: not exactly-once: {why}"));
                }
                if case.reference_emissions == 0 {
                    failures.push(format!("{name}/{seed}: reference emitted nothing"));
                }

                // Republish from the recovered collector once per
                // (scenario, seed), on the first case's durable state.
                if ki == 0 && killed {
                    let ok = publisher_recovers_identically(&s, &chaos, &opts, &run_dir);
                    publisher_checks += 1;
                    publisher_identical &= ok;
                    if !ok {
                        failures.push(format!(
                            "{name}/{seed}: publisher snapshot from recovered collector diverged"
                        ));
                    }
                }
                cases.push(case);
                std::fs::remove_dir_all(&run_dir).ok();
            }
            std::fs::remove_dir_all(&pair_dir).ok();
        }
    }

    let report = Report {
        matrix: MatrixReport {
            scenarios: names.len(),
            chaos_seeds: seeds.len(),
            kill_points: kill_matrix(24, opts.ingest_chunks, 0).len(),
            all_identical: cases.iter().all(|c| c.identical),
            all_exactly_once: cases.iter().all(|c| c.exactly_once),
            cases,
        },
        publisher: PublisherReport {
            checks: publisher_checks,
            identical: publisher_identical,
        },
    };
    std::fs::remove_dir_all(&base).ok();

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("RECOVERY GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nall {} kill cases label-identical and exactly-once; {} publisher checks identical",
        report.matrix.cases.len(),
        report.publisher.checks
    );

    if !smoke {
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        if let Err(errors) = schema::validate(&json, SCHEMA) {
            for e in &errors {
                eprintln!("schema violation: {e}");
            }
            std::process::exit(1);
        }
        let path = results_dir().join("BENCH_rca_recovery.json");
        std::fs::write(&path, json).expect("write BENCH_rca_recovery.json");
        println!("[saved {}]", path.display());
    }
}
