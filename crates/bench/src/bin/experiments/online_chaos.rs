//! EC — chaos replay of the golden corpus through the online RCA path.
//!
//! Every golden scenario is re-delivered as per-feed micro-batches through
//! a seeded chaos transport and diagnosed by `OnlineRca`, then checked
//! against two invariants:
//!
//! * **Convergence** — under eventual delivery (stalls, duplicates,
//!   within-batch reorders) the folded emission stream must be
//!   label-identical to the batch pipeline over the same complete data,
//!   and ingestion must account for every delivered record exactly once.
//!   Replayed at every chaos corpus seed.
//! * **Graceful degradation** — with the study's evidence feed killed
//!   mid-run, every affected verdict must carry the degraded flag naming
//!   the dead feed, no full (confident) verdict may disagree with batch,
//!   and degraded-verdict accuracy must stay within the documented
//!   tolerance. The kill schedule draws no randomness, so one replay per
//!   scenario suffices.
//!
//! Returns `results/BENCH_rca_chaos.json` (per-replay counters) and
//! `results/EVAL_chaos.json` (the invariant verdicts and the documented
//! tolerance), and panics if any invariant failed. The smoke
//! configuration is a two-scenario subset at one seed.

use crate::{json, Output};
use grca_apps::Study;
use grca_eval::chaos::{
    check_convergence, check_degradation, eventual_ops, lossy_ops, run_chaos, ChaosRun,
    ChaosRunOpts, ConvergenceVerdict, DegradationVerdict, CHAOS_SEEDS, DEGRADED_LABEL_TOLERANCE,
};
use grca_eval::corpus::{corpus, GoldenScenario, TopoPreset};
use grca_eval::Mutation;
use grca_simnet::FeedChaos;
use serde::Serialize;

#[derive(Serialize)]
struct ReplayMetrics {
    scenario: String,
    suite: &'static str,
    chaos_seed: u64,
    cycles: usize,
    delivered_records: usize,
    emissions: usize,
    amendments: usize,
    interim_degraded: usize,
    state_peak: usize,
}

impl ReplayMetrics {
    fn new(suite: &'static str, run: &ChaosRun) -> Self {
        ReplayMetrics {
            scenario: run.scenario.clone(),
            suite,
            chaos_seed: run.chaos_seed,
            cycles: run.cycles,
            delivered_records: run.delivered_records,
            emissions: run.emissions_total,
            amendments: run.amendments,
            interim_degraded: run.interim_degraded,
            state_peak: run.state_trace.iter().copied().max().unwrap_or(0),
        }
    }
}

#[derive(Serialize)]
struct ChaosEval {
    version: u32,
    /// Documented floor on degraded-verdict agreement with batch.
    degraded_label_tolerance: f64,
    convergence: Vec<ConvergenceVerdict>,
    degradation: Vec<DegradationVerdict>,
}

fn smoke_corpus() -> Vec<GoldenScenario> {
    let base = |name, study, seed| GoldenScenario {
        name,
        study,
        topo: TopoPreset::Small,
        days: 2,
        seed,
        noise_factor: 1.0,
        slow_fallover: false,
        mutation: Mutation::None,
    };
    vec![
        base("smoke-bgp", Study::Bgp, 51),
        base("smoke-cdn", Study::Cdn, 52),
    ]
}

pub fn run(smoke: bool) -> Output {
    let scenarios = if smoke { smoke_corpus() } else { corpus() };
    let conv_seeds: &[u64] = if smoke {
        &CHAOS_SEEDS[..1]
    } else {
        CHAOS_SEEDS
    };
    let opts = ChaosRunOpts::default();

    let mut bench: Vec<ReplayMetrics> = Vec::new();
    let mut convergence: Vec<ConvergenceVerdict> = Vec::new();
    let mut degradation: Vec<DegradationVerdict> = Vec::new();

    for s in &scenarios {
        let cycles = (s.days as usize) * 24;
        for &seed in conv_seeds {
            let mut chaos = FeedChaos::new(seed);
            for op in eventual_ops(s.study, cycles) {
                chaos = chaos.with(op);
            }
            let run = run_chaos(s, &chaos, &opts);
            let v = check_convergence(&run);
            println!(
                "{:<24} eventual seed={seed:<4} cycles={:<4} emissions={:<5} amends={:<4} \
                 identical={} accounting={}",
                s.name, v.cycles, v.emissions, v.amendments, v.identical, v.accounting_exact
            );
            bench.push(ReplayMetrics::new("eventual", &run));
            convergence.push(v);
        }

        let mut chaos = FeedChaos::new(CHAOS_SEEDS[0]);
        for op in lossy_ops(s.study, cycles) {
            chaos = chaos.with(op);
        }
        let run = run_chaos(s, &chaos, &opts);
        let d = check_degradation(&run);
        println!(
            "{:<24} lossy    kill={:<9} affected={:<4} flagged={} wrong_confident={} \
             degraded_acc={:.2}",
            s.name,
            d.killed_feed,
            d.affected,
            d.all_affected_flagged,
            d.wrong_confident,
            d.degraded_label_accuracy
        );
        bench.push(ReplayMetrics::new("lossy", &run));
        degradation.push(d);
    }

    let conv_fail = convergence.iter().filter(|v| !v.pass()).count();
    let deg_fail = degradation.iter().filter(|d| !d.pass()).count();
    assert_eq!(
        conv_fail + deg_fail,
        0,
        "chaos gate FAILED: {conv_fail} convergence and {deg_fail} degradation violation(s)"
    );
    println!(
        "chaos gate PASSED: {} convergence replays identical to batch, \
         {} kill replays degraded gracefully (tolerance {DEGRADED_LABEL_TOLERANCE})",
        convergence.len(),
        degradation.len()
    );
    let eval = ChaosEval {
        version: 1,
        degraded_label_tolerance: DEGRADED_LABEL_TOLERANCE,
        convergence,
        degradation,
    };
    vec![
        ("BENCH_rca_chaos.json", json(&bench)),
        ("EVAL_chaos.json", json(&eval)),
    ]
}
