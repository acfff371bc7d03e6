//! grca-eval — the golden-scenario evaluation harness.
//!
//! The paper's entire claim rests on accuracy tables produced by joining
//! diagnoses back to operator-confirmed root causes (Tables IV, VI, VIII).
//! The simulator's [`grca_simnet::TruthRecord`]s exist precisely for that
//! join; this crate turns it into a *gate*: a versioned corpus of named,
//! seed-pinned scenarios, a differential truth-join oracle, and committed
//! golden metrics that CI compares against on every change — so a refactor
//! cannot silently degrade diagnosis quality while `cargo test` stays
//! green (the methodology RCAEval and Groot argue for in benchmark-driven
//! RCA evaluation).
//!
//! * [`mod@corpus`] — the golden scenario registry: the three paper studies
//!   plus adversarial telemetry variants;
//! * [`mutate`] — deterministic raw-feed corruptions (clock skew,
//!   duplicated/dropped feeds, divergent naming, timezone confusion);
//! * [`oracle`] — the truth-join differential oracle: runs a scenario
//!   through the platform via both engine paths, joins diagnoses to
//!   ground truth, and computes the scenario's metrics;
//! * [`gate`] — tolerance-checked comparison of fresh metrics against a
//!   committed golden baseline;
//! * [`chaos`] — the same corpus replayed through the *online* path under
//!   chaos-injected feed transports, with convergence and
//!   graceful-degradation invariants;
//! * [`latency`] — end-to-end detection latency: injection instants from
//!   the soak manifest joined to stamped emission times, exactly once per
//!   injection;
//! * [`mod@recovery`] — crash-recovery evaluation: kill the checkpointed
//!   online pipeline at scheduled and randomized points, restart, and
//!   require the recovered emission stream to be exactly-once and
//!   label-identical to the uninterrupted run (E19);
//! * [`replay`] — the one online replay driver: the clock schedule and
//!   the ingest → advance → emit → checkpoint cycle that the chaos,
//!   recovery and soak harnesses all run, plus the label comparator they
//!   read results with;
//! * [`soak`] — the long-horizon streaming soak driver: day-chunked
//!   manifest replay at a [`grca_net_model::TierConfig`] preset, scored
//!   for accuracy and detection latency.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod corpus;
pub mod gate;
pub mod latency;
pub mod mutate;
pub mod oracle;
pub mod recovery;
pub mod replay;
pub mod soak;

pub use chaos::{
    check_convergence, check_degradation, eventual_ops, evidence_feed, lossy_ops, run_chaos,
    ChaosRun, ChaosRunOpts, ConvergenceVerdict, DegradationVerdict, FinalVerdict, CHAOS_SEEDS,
    DEGRADED_LABEL_TOLERANCE,
};
pub use corpus::{corpus, GoldenScenario, TopoPreset};
pub use gate::{check_against_baseline, GateError, DEFAULT_EPS_PT};
pub use latency::{measure, LatencyReport, LatencySample, VerdictEvent};
pub use mutate::Mutation;
pub use oracle::{evaluate, evaluate_corpus, CategoryMetrics, EvalReport, MixRow, ScenarioMetrics};
pub use recovery::{
    check_exactly_once, dedup_by_seq, kill_matrix, run_attempt, run_recovery_case, PipelineOutcome,
    RecoveryOpts, RecoveryVerdict, SeqVerdict,
};
pub use replay::{labels, Cadence, Cycle, Replay};
pub use soak::{run_soak, SoakCycle, SoakOutcome, SoakRunOpts, JOIN_SLACK};
