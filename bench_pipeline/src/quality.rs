//! Verdict quality against the simulator's ground truth, shared by every
//! workload: detection latency (simulated seconds from a fault's injection
//! to the first verdict on one of its symptoms) and truth-join accuracy.

use crate::stats::{percentile, sorted, tail_or_supported};
use grca_apps::{score, study_symptom, Study};
use grca_core::Diagnosis;
use grca_eval::latency::{measure, VerdictEvent};
use grca_net_model::Topology;
use grca_simnet::{FaultInstance, TruthRecord};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct Detect {
    pub mean_s: f64,
    pub p50_s: f64,
    pub p90_s: f64,
}

/// Pooled over every study a workload ran.
#[derive(Debug, Default)]
pub struct Quality {
    detect_secs: Vec<f64>,
    matched: usize,
    correct: usize,
}

/// A verdict on `d` that became available to its consumer at simulated
/// time `at_unix`.
pub fn verdict_at(topo: &Topology, d: &Diagnosis, at_unix: i64) -> VerdictEvent {
    VerdictEvent {
        location: d.symptom.location.display(topo),
        start_unix: d.symptom.window.start.unix(),
        end_unix: d.symptom.window.end.unix(),
        label: d.label(),
        emitted_unix: at_unix,
        degraded: false,
        amends: false,
    }
}

impl Quality {
    /// Fold in one study: `events` in the order verdicts became available
    /// (first per symptom is its detection), `finals` the verdicts that
    /// stand at the end.
    pub fn add(
        &mut self,
        study: Study,
        topo: &Topology,
        truth: &[TruthRecord],
        faults: &[FaultInstance],
        events: &[VerdictEvent],
        finals: &[Diagnosis],
    ) {
        let kind = study_symptom(study);
        let of_kind: Vec<TruthRecord> = truth
            .iter()
            .filter(|t| t.symptom == kind)
            .cloned()
            .collect();
        let report = measure(&of_kind, faults, events, grca_eval::JOIN_SLACK);
        self.detect_secs
            .extend(report.samples.iter().map(|s| s.detect_secs as f64));
        let acc = score(study, topo, finals, truth);
        self.matched += acc.matched;
        self.correct += acc.correct;
    }

    pub fn detect_samples(&self) -> usize {
        self.detect_secs.len()
    }

    /// Mean, p50 and p90 (the highest percentile a few hundred samples
    /// bear) of the detection latencies. The mean is the end-to-end metric:
    /// the distribution is bimodal (verdicts that went out full at the
    /// hold-back, and ones that waited out a degraded budget), so its median
    /// jumps between modes from seed to seed while its mean moves smoothly.
    pub fn detect(&self) -> Detect {
        let s = sorted(self.detect_secs.clone());
        Detect {
            mean_s: s.iter().sum::<f64>() / s.len().max(1) as f64,
            p50_s: percentile(&s, 0.5),
            p90_s: tail_or_supported(&s, 0.9),
        }
    }

    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.matched.max(1) as f64
    }

    /// The three end-to-end metrics every workload reports from here.
    pub fn end_to_end(&self, m: &mut BTreeMap<&'static str, f64>) {
        let d = self.detect();
        m.insert("detect_mean_s", d.mean_s);
        m.insert("detect_p90_s", d.p90_s);
        m.insert("verdict_accuracy", self.accuracy());
    }
}
