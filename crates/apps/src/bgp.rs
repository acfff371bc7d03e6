//! The BGP-flap RCA application (§III-A, Fig. 4, Tables III & IV).
//!
//! Symptom: eBGP session flaps between customer routers and provider edge
//! routers. The diagnosis graph combines Knowledge Library rules (layer-1
//! restorations under interface flaps) with the application-specific rules
//! of Fig. 4 — customer resets, router reboots, CPU overloads, hold-timer
//! expiries. Priorities implement the paper's discussion: the deeper cause
//! on a branch wins (interface flap over line-protocol flap, layer-1
//! restoration over interface flap), reboots and resets are near-certain
//! explanations, and the bare hold-timer expiry is the weakest.

use crate::context::{run_app, AppOutput};
use grca_collector::Database;
use grca_core::bayes::{BayesModel, ClassSpec, FeatureRatio, Fuzzy};
use grca_core::{Diagnosis, DiagnosisGraph, DiagnosisRule, ExpandOption, Expansion, TemporalRule};
use grca_events::{bgp_app_events, knowledge_library, names as ev, EventDefinition};
use grca_net_model::{JoinLevel, LineCardId, Location, NullOracle, Topology};
use grca_types::{Duration, Result};

/// The event definitions the application uses: Table I library + Table III.
pub fn event_definitions() -> Vec<EventDefinition> {
    let mut defs = knowledge_library();
    defs.extend(bgp_app_events());
    defs
}

/// The Fig. 4 diagnosis graph.
pub fn diagnosis_graph() -> DiagnosisGraph {
    use JoinLevel as L;
    let timer = |x: i64| {
        TemporalRule::new(
            Expansion::new(ExpandOption::StartStart, x, 5),
            Expansion::new(ExpandOption::StartEnd, 5, 5),
        )
    };
    let mut g = DiagnosisGraph::new("bgp-flap-rca", ev::EBGP_FLAP);
    // Near-certain administrative causes.
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::ROUTER_REBOOT,
        // The restart banner appears minutes *after* the sessions drop.
        TemporalRule::new(
            Expansion::new(ExpandOption::StartStart, 30, 300),
            Expansion::new(ExpandOption::StartEnd, 5, 5),
        ),
        L::Router,
        230,
    ));
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::CUSTOMER_RESET_SESSION,
        timer(10),
        L::Exact,
        220,
    ));
    // Layer-2 causes on the session's interface.
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::INTERFACE_FLAP,
        timer(185), // the 180 s hold timer plus timestamp noise (§II-C)
        L::Interface,
        180,
    ));
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::LINE_PROTOCOL_FLAP,
        timer(185),
        L::Interface,
        170,
    ));
    // CPU overload can only flap sessions through hold-timer expiry.
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::CPU_HIGH_AVERAGE,
        TemporalRule::new(
            Expansion::new(ExpandOption::StartStart, 600, 300),
            Expansion::new(ExpandOption::StartEnd, 5, 5),
        ),
        L::Router,
        100,
    ));
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::CPU_HIGH_SPIKE,
        timer(185),
        L::Router,
        110,
    ));
    // The weakest signal: a hold-timer expiry with nothing underneath.
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::EBGP_HTE,
        timer(10),
        L::Exact,
        50,
    ));
    // Knowledge Library: layer-1 restorations under interface and
    // line-protocol events, and the line-protocol ← interface dependency.
    let lib = grca_core::knowledge_rules();
    for r in lib {
        let keep = matches!(
            (r.symptom.as_str(), r.diagnostic.as_str()),
            (ev::LINE_PROTOCOL_FLAP, ev::INTERFACE_FLAP)
                | (
                    ev::INTERFACE_FLAP | ev::LINE_PROTOCOL_FLAP,
                    ev::SONET_RESTORATION
                        | ev::MESH_REGULAR_RESTORATION
                        | ev::MESH_FAST_RESTORATION
                )
        );
        if keep {
            g.add_rule(r);
        }
    }
    g
}

/// Run the full application: extract events, diagnose every eBGP flap.
/// The Fig. 4 graph needs no routing-dependent joins, so the spatial model
/// runs on configuration alone.
pub fn run(topo: &Topology, db: &Database) -> Result<AppOutput> {
    run_app(
        topo,
        db,
        &NullOracle,
        &event_definitions(),
        diagnosis_graph(),
        None,
    )
}

/// [`run`], through both the sequential and the parallel engine paths
/// (the evaluation harness's verdict-identity check).
pub fn run_differential(
    topo: &Topology,
    db: &Database,
    threads: usize,
) -> Result<crate::context::DiffOutput> {
    crate::context::run_app_differential(
        topo,
        db,
        &NullOracle,
        &event_definitions(),
        diagnosis_graph(),
        None,
        threads,
    )
}

// ---------------------------------------------------------------- Bayesian

/// Virtual class names for the Fig. 8 configuration.
pub mod classes {
    pub const INTERFACE_ISSUE: &str = "interface-issue";
    pub const CPU_HIGH_ISSUE: &str = "cpu-high-issue";
    pub const LINE_CARD_ISSUE: &str = "line-card-issue";
    pub const CUSTOMER_ACTION: &str = "customer-action";
    pub const ROUTER_ISSUE: &str = "router-issue";
    /// The group-level feature marking a burst of flaps on one card.
    pub const CARD_BURST_FEATURE: &str = "card-burst";
}

/// The Fig. 8 Bayesian configuration: interface / CPU / line-card issues
/// as classes (the line-card issue is *unobservable* — no event feeds it
/// directly), diagnostic-evidence presence as features, fuzzy parameters.
pub fn bayes_model() -> BayesModel {
    use classes::*;
    BayesModel::new(vec![
        ClassSpec::new(INTERFACE_ISSUE, Fuzzy::Medium)
            .feature(
                ev::INTERFACE_FLAP,
                FeatureRatio::requires(Fuzzy::Medium, Fuzzy::InvMedium),
            )
            .feature(ev::LINE_PROTOCOL_FLAP, FeatureRatio::supports(Fuzzy::Low)),
        ClassSpec::new(CPU_HIGH_ISSUE, Fuzzy::Low)
            .feature(
                ev::CPU_HIGH_SPIKE,
                FeatureRatio::requires(Fuzzy::High, Fuzzy::InvMedium),
            )
            .feature(ev::CPU_HIGH_AVERAGE, FeatureRatio::supports(Fuzzy::Medium))
            .feature(ev::EBGP_HTE, FeatureRatio::supports(Fuzzy::Medium))
            // A CPU problem does not explain layer-2 evidence; seeing an
            // interface flap counts against this class.
            .feature(
                ev::INTERFACE_FLAP,
                FeatureRatio {
                    if_present: Fuzzy::InvMedium,
                    if_absent: Fuzzy::Neutral,
                },
            ),
        ClassSpec::new(CUSTOMER_ACTION, Fuzzy::Low).feature(
            ev::CUSTOMER_RESET_SESSION,
            FeatureRatio::requires(Fuzzy::High, Fuzzy::InvMedium),
        ),
        ClassSpec::new(ROUTER_ISSUE, Fuzzy::Low).feature(
            ev::ROUTER_REBOOT,
            FeatureRatio::requires(Fuzzy::High, Fuzzy::InvMedium),
        ),
        ClassSpec::new(LINE_CARD_ISSUE, Fuzzy::InvLow)
            .feature(ev::INTERFACE_FLAP, FeatureRatio::supports(Fuzzy::Low))
            // Every interface of one card flapping inside a three-minute
            // burst is a near-certain card signature.
            .feature(
                CARD_BURST_FEATURE,
                FeatureRatio::requires(Fuzzy::High, Fuzzy::InvMedium),
            )
            // A whole-router reboot explains a burst better than one card.
            .feature(
                ev::ROUTER_REBOOT,
                FeatureRatio {
                    if_present: Fuzzy::InvHigh,
                    if_absent: Fuzzy::Neutral,
                },
            ),
    ])
}

/// The feature vector of one diagnosis: presence/absence of each
/// diagnostic event the graph can match.
pub fn feature_vector(d: &Diagnosis) -> Vec<(String, bool)> {
    [
        ev::INTERFACE_FLAP,
        ev::LINE_PROTOCOL_FLAP,
        ev::CPU_HIGH_SPIKE,
        ev::CPU_HIGH_AVERAGE,
        ev::EBGP_HTE,
        ev::CUSTOMER_RESET_SESSION,
        ev::ROUTER_REBOOT,
    ]
    .iter()
    .map(|&name| (name.to_string(), d.has_evidence(name)))
    .collect()
}

// -------------------------------------------------- cyclic-causality guard

/// §IV-B / future-work item 1: break the "BGP flap causes CPU overload,
/// CPU overload causes BGP flap" cycle. A genuine CPU-induced flap shows
/// the CPU spike strictly *before* the session drops (the overloaded
/// processor misses keepalives, then the hold timer fires). When every
/// piece of CPU evidence starts at or after the flap itself, the causal
/// arrow points the other way — the flap triggered route recomputation —
/// and the CPU evidence is demoted from root-cause candidacy.
///
/// Returns the number of diagnoses whose verdict changed.
pub fn demote_reverse_cpu(diagnoses: &mut [Diagnosis]) -> usize {
    let mut changed = 0;
    for d in diagnoses.iter_mut() {
        let label = d.label();
        if !label.contains(ev::CPU_HIGH_SPIKE) && !label.contains(ev::CPU_HIGH_AVERAGE) {
            continue;
        }
        // The CPU-hog syslog is a point event, so it *can* be ordered
        // against the flap; the 5-minute SNMP average cannot (its bin only
        // brackets the flap), so it is judged as part of the same episode
        // when its window contains the flap onset.
        let spikes_before = d.evidence.iter().any(|e| {
            e.event() == ev::CPU_HIGH_SPIKE && e.instance.window.start < d.symptom.window.start
        });
        let spikes_after = d.evidence.iter().any(|e| {
            e.event() == ev::CPU_HIGH_SPIKE && e.instance.window.start >= d.symptom.window.start
        });
        if spikes_before || !spikes_after {
            continue; // genuinely CPU-first, or no spike to order by
        }
        let demoted = |e: &grca_core::Evidence| {
            (e.event() == ev::CPU_HIGH_SPIKE && e.instance.window.start >= d.symptom.window.start)
                || (e.event() == ev::CPU_HIGH_AVERAGE
                    && e.instance.window.contains(d.symptom.window.start))
        };
        // Recompute winners over the surviving evidence only.
        let max_prio = d
            .evidence
            .iter()
            .filter(|e| !demoted(e))
            .map(|e| e.priority)
            .max();
        d.root_causes = match max_prio {
            None => Vec::new(),
            Some(p) => d
                .evidence
                .iter()
                .enumerate()
                .filter(|(_, e)| e.priority == p && !demoted(e))
                .map(|(i, _)| i)
                .collect(),
        };
        if d.label() != label {
            changed += 1;
        }
    }
    changed
}

/// A group of flaps attributed to one line card by joint inference.
#[derive(Debug)]
pub struct CardGroupFinding {
    pub card: LineCardId,
    /// Indices into the diagnosis slice.
    pub members: Vec<usize>,
    /// Distinct sessions involved.
    pub sessions: usize,
    /// What rule-based reasoning called these flaps.
    pub rule_labels: Vec<String>,
    /// The Bayesian joint classification.
    pub bayes_class: String,
}

/// §IV-C: group eBGP flaps by the line card of their session's interface
/// within a sliding window, then classify each group jointly. A burst of
/// flaps on one card earns the `card-burst` feature, letting the virtual
/// line-card class win where per-flap reasoning says "interface flap".
pub fn analyze_card_groups(
    topo: &Topology,
    diagnoses: &[Diagnosis],
    window: Duration,
    min_burst: usize,
) -> Vec<CardGroupFinding> {
    // Index diagnoses by (card, start time).
    let mut by_card: std::collections::BTreeMap<LineCardId, Vec<(grca_types::Timestamp, usize)>> =
        Default::default();
    for (i, d) in diagnoses.iter().enumerate() {
        let Location::RouterNeighborIp { router, neighbor } = d.symptom.location else {
            continue;
        };
        let Some(sess) = topo.session_by_neighbor(router, neighbor) else {
            continue;
        };
        let card = topo.interface(topo.session(sess).iface).card;
        by_card
            .entry(card)
            .or_default()
            .push((d.symptom.window.start, i));
    }
    let model = bayes_model();
    let mut findings = Vec::new();
    for (card, mut items) in by_card {
        items.sort();
        // Greedy sliding window over start times.
        let mut i = 0;
        while i < items.len() {
            let t0 = items[i].0;
            let mut j = i;
            while j < items.len() && items[j].0 - t0 <= window {
                j += 1;
            }
            let members: Vec<usize> = items[i..j].iter().map(|&(_, d)| d).collect();
            if members.len() >= min_burst {
                let burst = members.len() >= min_burst;
                let group: Vec<Vec<(String, bool)>> = members
                    .iter()
                    .map(|&d| {
                        let mut f = feature_vector(&diagnoses[d]);
                        f.push((classes::CARD_BURST_FEATURE.to_string(), burst));
                        f
                    })
                    .collect();
                let ranked = model.classify_group(&group);
                let sessions = {
                    let mut s: Vec<_> = members
                        .iter()
                        .map(|&d| diagnoses[d].symptom.location)
                        .collect();
                    s.sort();
                    s.dedup();
                    s.len()
                };
                findings.push(CardGroupFinding {
                    card,
                    rule_labels: members.iter().map(|&d| diagnoses[d].label()).collect(),
                    members,
                    sessions,
                    bayes_class: ranked[0].name.clone(),
                });
                i = j;
            } else {
                i += 1;
            }
        }
    }
    findings
}
