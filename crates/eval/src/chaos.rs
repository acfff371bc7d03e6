//! Chaos evaluation: golden scenarios replayed through the online RCA
//! path under chaos-injected feed transports.
//!
//! [`run_chaos`] buckets a scenario's records into per-feed micro-batch
//! cycles ([`grca_simnet::MicroBatches`]), perturbs delivery with a seeded
//! [`grca_simnet::FeedChaos`], and drives [`grca_apps::OnlineRca`] cycle by
//! cycle. Two invariants turn the replay into a gate:
//!
//! * **Convergence** ([`check_convergence`]) — when every record is
//!   eventually delivered (stalls flush, duplicates dedup, reorders are
//!   within-batch), the folded emission stream — final and amended
//!   verdicts, latest per symptom — must be label-identical to the batch
//!   pipeline run over the same complete data. Interim degraded verdicts
//!   are allowed; silently diverging from batch is not.
//! * **Graceful degradation** ([`check_degradation`]) — when a feed is
//!   permanently killed, every diagnosis whose evidence horizon lies past
//!   the dead feed's frozen watermark must be emitted degraded, naming
//!   that feed; every *full* (confident) emission must still match the
//!   batch verdict exactly (never a wrong confident answer); and the
//!   degraded verdicts must agree with batch for at least
//!   [`DEGRADED_LABEL_TOLERANCE`] of the affected symptoms.
//!
//! The replay runs the registry in **strict watermark mode**: every
//! relevant feed's cadence is tightened to [`STRICT_CADENCE`], so a feed
//! vouches only for data it actually delivered and the gate's decisions
//! depend purely on watermarks — deterministic, and immune to the
//! sub-allowance blind spot that liveness-based vouching necessarily has
//! (a stall shorter than the staleness allowance is indistinguishable
//! from benign silence).

use crate::corpus::GoldenScenario;
use crate::latency::VerdictEvent;
use crate::replay::{labels, Cadence, Replay};
use grca_apps::Study;
use grca_core::{fold_stream, Emission};
use grca_simnet::{ChaosOp, FeedChaos};
use grca_types::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Chaos seeds the corpus replays under; part of the baseline contract.
pub const CHAOS_SEEDS: &[u64] = &[7, 61, 1013];

/// Documented tolerance for graceful degradation: the fraction of
/// affected (degraded-flagged) verdicts that must still agree with the
/// full-evidence batch verdict. Losing an evidence feed legitimately
/// changes the verdicts it supported — those fall back to the next
/// explanation or to "unexplained" — but the flag, not the accuracy,
/// is the safety property; this floor just documents how much accuracy
/// one dead evidence feed costs.
pub const DEGRADED_LABEL_TOLERANCE: f64 = 0.5;

/// Strict-watermark cadence override (see module docs).
pub const STRICT_CADENCE: Duration = Duration::secs(30);

/// The feed the study's *symptoms* ride (killing it starves the run).
pub fn root_feed(study: Study) -> &'static str {
    match study {
        Study::Bgp | Study::Pim => "syslog",
        Study::Cdn => "cdnmon",
    }
}

/// A feed carrying diagnostic *evidence* but never the symptom itself —
/// the lossy suite kills this one, so symptoms keep arriving while part
/// of their evidence is permanently lost.
pub fn evidence_feed(study: Study) -> &'static str {
    match study {
        Study::Bgp => "snmp",      // CPU-hog evidence behind flap verdicts
        Study::Cdn => "serverlog", // CDN server-issue evidence
        Study::Pim => "tacacs",    // PIM (de)provisioning commands
    }
}

/// Eventual-delivery perturbation suite: every record still arrives —
/// late (stalls flush on resume or at the horizon), twice (duplicates),
/// or shuffled within its batch — so convergence must hold.
pub fn eventual_ops(study: Study, cycles: usize) -> Vec<ChaosOp> {
    let ev = evidence_feed(study);
    let root = root_feed(study);
    vec![
        ChaosOp::Stall {
            feed: ev,
            from: cycles / 4,
            cycles: (cycles / 6).max(2),
        },
        ChaosOp::Stall {
            feed: root,
            from: (2 * cycles) / 3,
            cycles: (cycles / 10).max(2),
        },
        ChaosOp::Duplicate {
            feed: root,
            period: 3,
        },
        ChaosOp::Duplicate {
            feed: ev,
            period: 4,
        },
        ChaosOp::Reorder {
            feed: root,
            period: 2,
        },
        ChaosOp::Reorder {
            feed: ev,
            period: 3,
        },
    ]
}

/// Permanent-loss suite: the evidence feed dies mid-run and never
/// recovers — graceful degradation must hold.
pub fn lossy_ops(study: Study, cycles: usize) -> Vec<ChaosOp> {
    vec![ChaosOp::Kill {
        feed: evidence_feed(study),
        from: cycles / 2,
    }]
}

/// Replay knobs. `amend_window = None` covers the whole run plus margin,
/// so any stall that flushes before the drain can still amend; bounded
/// windows exercise state pruning instead.
#[derive(Debug, Clone)]
pub struct ChaosRunOpts {
    pub cycle_len: Duration,
    pub amend_window: Option<Duration>,
    /// Override [`grca_apps::OnlineRca::with_quarantine_keep`] — the
    /// quarantine journal bound. `None` keeps the production default; the
    /// sustained-corruption regression test shrinks it to unit scale.
    pub quarantine_keep: Option<usize>,
}

impl Default for ChaosRunOpts {
    fn default() -> Self {
        ChaosRunOpts {
            cycle_len: Duration::hours(1),
            amend_window: None,
            quarantine_keep: None,
        }
    }
}

/// One folded (latest-per-symptom) verdict, with everything the invariant
/// checks need after the topology is gone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalVerdict {
    pub location: String,
    pub start_unix: i64,
    /// Symptom window end + hold-back: the instant all evidence any rule
    /// could join had nominally arrived.
    pub horizon_unix: i64,
    pub label: String,
    pub degraded: bool,
    pub missing: Vec<String>,
    pub amended: bool,
}

impl FinalVerdict {
    pub fn key(&self) -> (String, i64) {
        (self.location.clone(), self.start_unix)
    }
}

/// Everything one chaos replay produced.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    pub scenario: String,
    pub chaos_seed: u64,
    pub cycles: usize,
    /// Records the transport actually delivered (after loss/duplication).
    pub delivered_records: usize,
    pub emissions_total: usize,
    pub amendments: usize,
    /// Degraded emissions later superseded by an amendment.
    pub interim_degraded: usize,
    /// Every emission in stream order — the raw material for
    /// exactly-once checks.
    pub emission_log: Vec<VerdictEvent>,
    /// Folded stream: latest verdict per symptom key.
    pub finals: Vec<FinalVerdict>,
    /// The folded stream in the batch reference's form.
    pub folded: Vec<((String, i64), String)>,
    /// Batch reference over the complete, unperturbed ingest:
    /// sorted `((location, start), label)`.
    pub batch: Vec<((String, i64), String)>,
    /// Ingest accounting totals.
    pub accepted: usize,
    pub quarantined: usize,
    pub deduplicated: usize,
    pub expired: usize,
    /// Quarantine journal entries still held at the end of the run (the
    /// bounded drill-down window; `quarantined` keeps the exact total).
    pub quarantine_len: usize,
    /// Largest the journal ever got across cycles.
    pub quarantine_peak: usize,
    /// [`grca_apps::OnlineRca::state_size`] after every cycle.
    pub state_trace: Vec<usize>,
    /// Final delivered watermark per relevant feed (unix).
    pub watermarks: BTreeMap<&'static str, i64>,
    /// `Kill`ed feed and its frozen watermark, if the op set had one.
    pub killed: Option<(&'static str, i64)>,
    pub hold_back_secs: i64,
}

/// Replay one golden scenario through the online path under `chaos`.
pub fn run_chaos(s: &GoldenScenario, chaos: &FeedChaos, opts: &ChaosRunOpts) -> ChaosRun {
    let built = s.build();
    let cfg = s.scenario_config();

    // Batch reference: the study over the complete, unperturbed ingest.
    let batch_out = s
        .study
        .run(&built.topo, &built.db)
        .expect("golden scenario application must validate");
    let batch = labels(&built.topo, &batch_out.diagnoses);

    let (mb, delivered) = s.deliver(&built, chaos, opts.cycle_len);

    let mut online = s.study.online(&built.topo);
    let amend = opts
        .amend_window
        .unwrap_or(cfg.end() - cfg.start + Duration::hours(12));
    online = online.with_amend_window(amend);
    if let Some(keep) = opts.quarantine_keep {
        online = online.with_quarantine_keep(keep);
    }
    let mut replay = Replay::new(
        s.study,
        &built.topo,
        online,
        opts.cycle_len,
        Cadence::Strict,
    );

    let mut emissions: Vec<Emission> = Vec::new();
    let mut state_trace = Vec::new();
    let mut quarantine_peak = 0usize;
    let clocks = replay.clocks(&mb, cfg.end());
    replay.run(&clocks, &delivered, |online, _, new| {
        emissions.extend(new);
        state_trace.push(online.state_size());
        quarantine_peak = quarantine_peak.max(online.database().quarantine.len());
    });
    let delivered_records = delivered.iter().map(Vec::len).sum();
    let online = replay.online();

    let hold_back = online.hold_back();
    let folded = fold_stream(&emissions);
    let finals: Vec<FinalVerdict> = folded
        .iter()
        .map(|e| FinalVerdict {
            location: e.diagnosis.symptom.location.display(&built.topo),
            start_unix: e.diagnosis.symptom.window.start.unix(),
            horizon_unix: (e.diagnosis.symptom.window.end + hold_back).unix(),
            label: e.diagnosis.label(),
            degraded: e.mode.is_degraded(),
            missing: e
                .mode
                .missing_feeds()
                .iter()
                .map(|f| f.to_string())
                .collect(),
            amended: e.amends,
        })
        .collect();
    let emission_log: Vec<VerdictEvent> = emissions
        .iter()
        .map(|e| VerdictEvent::from_emission(&built.topo, e))
        .collect();
    let amendments = emissions.iter().filter(|e| e.amends).count();
    let interim_degraded = emissions.iter().filter(|e| e.mode.is_degraded()).count()
        - finals.iter().filter(|f| f.degraded).count();

    let watermarks: BTreeMap<&'static str, i64> = online
        .relevant_feeds()
        .iter()
        .map(|&f| {
            (
                f,
                online
                    .registry()
                    .watermark(f)
                    .map(|t| t.unix())
                    .unwrap_or(i64::MIN),
            )
        })
        .collect();
    let killed = chaos.ops.iter().find_map(|op| match op {
        ChaosOp::Kill { feed, .. } => {
            Some((*feed, watermarks.get(feed).copied().unwrap_or(i64::MIN)))
        }
        _ => None,
    });

    let stats = online.stats();
    ChaosRun {
        scenario: s.name.to_string(),
        chaos_seed: chaos.seed,
        cycles: mb.cycles(),
        delivered_records,
        emissions_total: emissions.len(),
        amendments,
        interim_degraded,
        emission_log,
        finals,
        folded: labels(&built.topo, folded.iter().map(|e| &e.diagnosis)),
        batch,
        accepted: stats.total_accepted(),
        quarantined: stats.total_quarantined(),
        deduplicated: stats.total_deduplicated(),
        expired: stats.total_expired(),
        quarantine_len: online.database().quarantine.len(),
        quarantine_peak,
        state_trace,
        watermarks,
        killed,
        hold_back_secs: hold_back.as_secs(),
    }
}

/// Convergence verdict for an eventual-delivery replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceVerdict {
    pub scenario: String,
    pub chaos_seed: u64,
    pub cycles: usize,
    pub delivered_records: usize,
    pub emissions: usize,
    pub amendments: usize,
    pub interim_degraded: usize,
    pub folded: usize,
    pub batch: usize,
    /// Folded stream label-identical to the batch run.
    pub identical: bool,
    /// Every delivered record accounted exactly once:
    /// `accepted + quarantined + deduplicated == delivered`.
    pub accounting_exact: bool,
}

impl ConvergenceVerdict {
    pub fn pass(&self) -> bool {
        self.identical && self.accounting_exact
    }
}

/// Check the convergence invariant: under eventual delivery, the folded
/// stream must be label-identical to batch, and ingestion must account
/// for every delivered record exactly once.
pub fn check_convergence(run: &ChaosRun) -> ConvergenceVerdict {
    ConvergenceVerdict {
        scenario: run.scenario.clone(),
        chaos_seed: run.chaos_seed,
        cycles: run.cycles,
        delivered_records: run.delivered_records,
        emissions: run.emissions_total,
        amendments: run.amendments,
        interim_degraded: run.interim_degraded,
        folded: run.folded.len(),
        batch: run.batch.len(),
        identical: run.folded == run.batch,
        accounting_exact: run.accepted + run.quarantined + run.deduplicated
            == run.delivered_records,
    }
}

/// Graceful-degradation verdict for a permanent-loss replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationVerdict {
    pub scenario: String,
    pub chaos_seed: u64,
    pub killed_feed: String,
    pub kill_watermark_unix: i64,
    /// Symptoms whose evidence horizon lies past the dead feed's frozen
    /// watermark — evidence could be missing for these.
    pub affected: usize,
    pub affected_degraded: usize,
    /// Every affected verdict carried the degraded flag *and* named the
    /// dead feed.
    pub all_affected_flagged: bool,
    pub full_emissions: usize,
    /// Full (confident) verdicts disagreeing with batch — must be zero:
    /// degradation may lose accuracy, never confidence calibration.
    pub wrong_confident: usize,
    /// Fraction of affected degraded verdicts still agreeing with batch.
    pub degraded_label_accuracy: f64,
    pub tolerance: f64,
    pub within_tolerance: bool,
}

impl DegradationVerdict {
    pub fn pass(&self) -> bool {
        self.all_affected_flagged && self.wrong_confident == 0 && self.within_tolerance
    }
}

/// Check the graceful-degradation invariant after a `Kill` replay.
pub fn check_degradation(run: &ChaosRun) -> DegradationVerdict {
    let (feed, kill_w) = run.killed.expect("degradation check needs a Kill op");
    let batch: BTreeMap<&(String, i64), &String> = run.batch.iter().map(|(k, l)| (k, l)).collect();

    let affected: Vec<&FinalVerdict> = run
        .finals
        .iter()
        .filter(|f| f.horizon_unix > kill_w)
        .collect();
    let affected_degraded = affected
        .iter()
        .filter(|f| f.degraded && f.missing.iter().any(|m| m == feed))
        .count();

    let fulls: Vec<&FinalVerdict> = run.finals.iter().filter(|f| !f.degraded).collect();
    let wrong_confident = fulls
        .iter()
        .filter(|f| batch.get(&f.key()) != Some(&&f.label))
        .count();

    let agree = affected
        .iter()
        .filter(|f| f.degraded && batch.get(&f.key()) == Some(&&f.label))
        .count();
    let degraded_label_accuracy = if affected.is_empty() {
        1.0
    } else {
        agree as f64 / affected.len() as f64
    };

    DegradationVerdict {
        scenario: run.scenario.clone(),
        chaos_seed: run.chaos_seed,
        killed_feed: feed.to_string(),
        kill_watermark_unix: kill_w,
        affected: affected.len(),
        affected_degraded,
        all_affected_flagged: affected_degraded == affected.len(),
        full_emissions: fulls.len(),
        wrong_confident,
        degraded_label_accuracy,
        tolerance: DEGRADED_LABEL_TOLERANCE,
        within_tolerance: degraded_label_accuracy >= DEGRADED_LABEL_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_collector::FEEDS;

    #[test]
    fn chaos_feed_roles_are_valid_and_distinct() {
        for study in [Study::Bgp, Study::Cdn, Study::Pim] {
            let root = root_feed(study);
            let ev = evidence_feed(study);
            assert!(FEEDS.contains(&root));
            assert!(FEEDS.contains(&ev));
            assert_ne!(root, ev, "kill target must not starve the symptom feed");
            let topo = grca_net_model::gen::generate(&grca_net_model::gen::TopoGenConfig::small());
            let online = study.online(&topo);
            assert!(online.relevant_feeds().contains(&root));
            assert!(online.relevant_feeds().contains(&ev));
        }
    }

    #[test]
    fn op_suites_touch_only_their_feeds() {
        for study in [Study::Bgp, Study::Cdn, Study::Pim] {
            for op in eventual_ops(study, 48) {
                assert!(
                    !matches!(op, ChaosOp::Kill { .. } | ChaosOp::Outage { .. }),
                    "eventual suite must deliver everything"
                );
            }
            let lossy = lossy_ops(study, 48);
            assert!(lossy.iter().all(|op| matches!(op, ChaosOp::Kill { .. })));
            assert_eq!(lossy[0].feed(), evidence_feed(study));
        }
    }
}
