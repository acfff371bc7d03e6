//! The differential truth-join oracle.
//!
//! For each golden scenario: simulate, corrupt, ingest, run the study's
//! RCA application through *both* engine paths (sequential and
//! work-stealing parallel), assert the two are verdict-identical, join
//! the diagnoses back to the simulator's hidden [`grca_simnet::TruthRecord`]s
//! by `(symptom kind, location key, time window)`, and distil the result
//! into serializable per-scenario metrics: overall accuracy, per-category
//! precision/recall/F1, the full confusion matrix, and the diagnosed vs.
//! injected root-cause mix.

use crate::corpus::{corpus, BuiltScenario, GoldenScenario};
use grca_apps::{report, Study};
use grca_simnet::breakdown;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One category's share of a root-cause mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixRow {
    pub category: String,
    pub count: usize,
    pub pct: f64,
}

/// Per-category retrieval quality (serialized [`report::CategoryScore`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryMetrics {
    pub category: String,
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Everything the gate compares for one golden scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    pub name: String,
    pub study: String,
    pub seed: u64,
    pub mutation: String,
    /// Raw records delivered to the collector (after mutation).
    pub records: usize,
    /// Records the collector could not normalize (adversarial naming etc).
    pub ingest_dropped: usize,
    /// Diagnosed symptom instances.
    pub symptoms: usize,
    /// Diagnoses that joined to a truth record.
    pub matched: usize,
    /// Fraction of matched symptoms diagnosed in the correct category.
    pub accuracy: f64,
    /// Injected root-cause mix, aggregated to paper-table categories.
    pub truth_mix: Vec<MixRow>,
    /// Recovered (diagnosed) category mix.
    pub diagnosed_mix: Vec<MixRow>,
    /// Largest |diagnosed − injected| share over all categories, in
    /// percentage points — how far the recovered breakdown drifts from
    /// the injected mix.
    pub mix_max_drift_pt: f64,
    pub per_category: Vec<CategoryMetrics>,
    /// Full confusion matrix rows: (truth category, diagnosed category,
    /// count), including agreements.
    pub confusion: Vec<(String, String, usize)>,
    /// Sequential and parallel diagnosis produced identical verdicts.
    pub parallel_identical: bool,
}

/// The whole corpus's metrics — the golden JSON artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Schema version for the committed baseline.
    pub version: u32,
    pub scenarios: Vec<ScenarioMetrics>,
}

fn study_tag(study: Study) -> &'static str {
    match study {
        Study::Bgp => "bgp",
        Study::Cdn => "cdn",
        Study::Pim => "pim",
    }
}

/// Round to 6 decimals so golden JSON diffs stay readable.
fn r6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// The injected root-cause mix of a scenario, aggregated from per-cause
/// truth records to the study's paper-table categories.
fn truth_mix(study: Study, built: &BuiltScenario) -> Vec<MixRow> {
    let kind = report::study_symptom(study);
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut total = 0usize;
    for (cause, n, _) in breakdown(&built.out.truth, kind) {
        *counts
            .entry(report::truth_category(study, cause))
            .or_default() += n;
        total += n;
    }
    counts
        .into_iter()
        .map(|(c, n)| MixRow {
            category: c.to_string(),
            count: n,
            pct: r6(100.0 * n as f64 / total.max(1) as f64),
        })
        .collect()
}

/// Evaluate one golden scenario: the differential run plus the truth join.
///
/// Panics if the sequential and parallel engine paths disagree — that is
/// a correctness bug, not a metrics regression.
pub fn evaluate(s: &GoldenScenario, threads: usize) -> ScenarioMetrics {
    let built = s.build();
    let diff = s
        .study
        .run_differential(&built.topo, &built.db, threads)
        .expect("golden scenario application must validate");

    // Differential check: the two engine paths must agree verdict-for-
    // verdict, in order. Compare compact verdicts first (readable panic),
    // then full diagnosis structures (evidence sets, priorities).
    let seq_verdicts: Vec<_> = diff.output.diagnoses.iter().map(|d| d.verdict()).collect();
    let par_verdicts: Vec<_> = diff.parallel.iter().map(|d| d.verdict()).collect();
    assert_eq!(
        seq_verdicts, par_verdicts,
        "scenario {}: parallel verdicts diverge from sequential",
        s.name
    );
    assert_eq!(
        diff.output.diagnoses, diff.parallel,
        "scenario {}: parallel diagnoses structurally diverge",
        s.name
    );

    let diagnoses = &diff.output.diagnoses;
    let acc = report::score(s.study, &built.topo, diagnoses, &built.out.truth);

    let truth = truth_mix(s.study, &built);
    let diagnosed: Vec<MixRow> = report::category_breakdown(s.study, &built.topo, diagnoses)
        .into_iter()
        .map(|(category, count, pct)| MixRow {
            category,
            count,
            pct: r6(pct),
        })
        .collect();

    let mut drift = 0.0f64;
    let cats: std::collections::BTreeSet<&str> = truth
        .iter()
        .chain(diagnosed.iter())
        .map(|m| m.category.as_str())
        .collect();
    for c in cats {
        let t = truth
            .iter()
            .find(|m| m.category == c)
            .map_or(0.0, |m| m.pct);
        let d = diagnosed
            .iter()
            .find(|m| m.category == c)
            .map_or(0.0, |m| m.pct);
        drift = drift.max((t - d).abs());
    }

    ScenarioMetrics {
        name: s.name.to_string(),
        study: study_tag(s.study).to_string(),
        seed: s.seed,
        mutation: s.mutation.tag(),
        records: built.out.records.len(),
        ingest_dropped: built.stats.total_dropped(),
        symptoms: diagnoses.len(),
        matched: acc.matched,
        accuracy: r6(acc.rate()),
        truth_mix: truth,
        diagnosed_mix: diagnosed,
        mix_max_drift_pt: r6(drift),
        per_category: acc
            .per_category()
            .into_iter()
            .map(|c| CategoryMetrics {
                precision: r6(c.precision()),
                recall: r6(c.recall()),
                f1: r6(c.f1()),
                category: c.category,
                tp: c.tp,
                fp: c.fp,
                fn_: c.fn_,
            })
            .collect(),
        confusion: acc
            .matrix
            .iter()
            .map(|((t, d), &n)| (t.clone(), d.clone(), n))
            .collect(),
        parallel_identical: true,
    }
}

/// Evaluate the whole golden corpus, in corpus order.
pub fn evaluate_corpus(threads: usize) -> EvalReport {
    EvalReport {
        version: 1,
        scenarios: corpus().iter().map(|s| evaluate(s, threads)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ identical metrics JSON: the determinism contract the
    /// golden baseline rests on.
    #[test]
    fn evaluation_is_deterministic() {
        let s = &corpus()[0];
        let a = evaluate(s, 4);
        let b = evaluate(s, 2); // thread count must not matter either
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn baseline_scenario_is_accurate_and_joins() {
        let m = evaluate(&corpus()[0], 4);
        assert!(m.symptoms > 100, "too few symptoms: {}", m.symptoms);
        assert!(
            m.matched as f64 >= 0.9 * m.symptoms as f64,
            "truth join matched only {}/{}",
            m.matched,
            m.symptoms
        );
        assert!(m.accuracy > 0.85, "accuracy {}", m.accuracy);
        assert!(m.parallel_identical);
        assert_eq!(m.ingest_dropped, 0);
        // Confusion matrix totals must equal matched symptoms.
        let total: usize = m.confusion.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, m.matched);
    }

    #[test]
    fn adversarial_naming_drops_records_but_still_scores() {
        let c = corpus();
        let s = c.iter().find(|s| s.name == "bgp-divergent-naming").unwrap();
        let m = evaluate(s, 4);
        assert!(m.ingest_dropped > 0, "naming mutation should drop records");
        assert!(m.symptoms > 0);
        // Dropping 1/4 of syslog degrades evidence; accuracy should fall
        // well below the clean baseline (>0.85) yet stay far from zero.
        assert!(m.accuracy > 0.35, "accuracy collapsed: {}", m.accuracy);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let m = evaluate(&corpus()[0], 2);
        let rep = EvalReport {
            version: 1,
            scenarios: vec![m],
        };
        let text = serde_json::to_string_pretty(&rep).unwrap();
        let back: EvalReport = serde_json::from_str(&text).unwrap();
        assert_eq!(rep, back);
    }
}
