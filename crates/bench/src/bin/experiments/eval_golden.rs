//! EG — the golden accuracy gate.
//!
//! Evaluates the whole golden scenario corpus (sequential vs parallel
//! differential run + truth join per scenario) into
//! `results/EVAL_golden.json`. Under `--check` the runner diffs that file
//! exactly and also runs [`tolerance`]: the fresh metrics against the
//! committed baseline with a one-percentage-point tolerance, failing on
//! any regression — accuracy or per-category precision/recall drops,
//! truth-join decay, mix drift growth, corpus edits without a
//! re-baseline, or sequential/parallel divergence.

use crate::{json, Output};
use grca_eval::{check_against_baseline, evaluate_corpus, EvalReport, DEFAULT_EPS_PT};

const THREADS: usize = 4;

pub fn run(_smoke: bool) -> Output {
    let report = evaluate_corpus(THREADS);
    println!("evaluated {} golden scenarios", report.scenarios.len());
    for s in &report.scenarios {
        println!(
            "  {:<24} [{}] mutation={:<24} symptoms={:<5} matched={:<5} accuracy={:.2}%",
            s.name,
            s.study,
            s.mutation,
            s.symptoms,
            s.matched,
            100.0 * s.accuracy
        );
    }
    vec![("EVAL_golden.json", json(&report))]
}

/// The tolerance gate: every violation of the fresh report against the
/// committed baseline.
pub fn tolerance(fresh: &str, baseline: &str) -> Vec<String> {
    let parse = |text: &str| serde_json::from_str::<EvalReport>(text);
    match (parse(fresh), parse(baseline)) {
        (Ok(fresh), Ok(baseline)) => check_against_baseline(&fresh, &baseline, DEFAULT_EPS_PT)
            .iter()
            .map(|e| format!("beyond {DEFAULT_EPS_PT}pt of the baseline: {e}"))
            .collect(),
        (_, Err(e)) => vec![format!("baseline is not a valid EvalReport: {e}")],
        (Err(e), _) => vec![format!("fresh report does not parse: {e}")],
    }
}
