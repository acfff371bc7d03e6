//! E9 — Fig. 8 / §IV-C: the Bayesian engine attributing a burst of eBGP
//! flaps to an *unobservable* line-card crash.
//!
//! Paper: one month of eBGP flaps on a PE with several hundred sessions;
//! rule-based reasoning diagnosed 133 flaps (125 sessions) as
//! "interface flap"; joint Bayesian inference attributed them to a
//! line-card issue, all on one card within 3 minutes — later confirmed.
//!
//! Ours: one PE with ~150 sessions on large cards, a planted crash amid a
//! month of ordinary faults, both engines compared.

use crate::{json, Output};
use grca_apps::bgp;
use grca_collector::Database;
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig, Sim};
use grca_types::{Duration, Timestamp};
use serde::Serialize;

#[derive(Serialize)]
struct Result {
    burst_flaps: usize,
    burst_sessions: usize,
    rule_based_label: String,
    bayes_class: String,
    crash_recovered: bool,
}

pub fn run(_smoke: bool) -> Output {
    let topo_cfg = TopoGenConfig {
        sessions_per_pe: 150,
        ports_per_card: 192,
        ..TopoGenConfig::default()
    };
    let topo = generate(&topo_cfg);

    // A month of ordinary faults...
    let cfg = ScenarioConfig::new(30, 8, FaultRates::bgp_study());
    let mut out = run_scenario(&topo, &cfg);
    // ...plus one planted line-card crash.
    let mut sim = Sim::new(&topo, &cfg);
    let crash_at = Timestamp::from_civil(2010, 1, 17, 14, 3, 0);
    let card = sim.inject_line_card_crash(crash_at, None);
    println!(
        "planted crash: {} at {crash_at} ({} sessions on the card)",
        grca_net_model::Location::LineCard(card).display(&topo),
        topo.sessions_on_card(card).len()
    );
    out.records.extend(sim.records);
    out.truth.extend(sim.truth);

    let (db, _) = Database::ingest(&topo, &out.records);
    let run = bgp::run(&topo, &db).expect("valid app");
    println!("diagnosed {} flaps over the month", run.diagnoses.len());

    // Rule-based verdicts inside the burst.
    let burst_labels: Vec<String> = run
        .diagnoses
        .iter()
        .filter(|d| {
            d.symptom.window.start >= crash_at
                && d.symptom.window.start <= crash_at + Duration::mins(10)
        })
        .map(|d| d.label())
        .collect();
    let iface_labeled = burst_labels
        .iter()
        .filter(|l| l.contains("interface-flap"))
        .count();
    println!(
        "\nrule-based engine: {} of {} burst flaps labeled interface-flap \
         (paper: all 133 were)",
        iface_labeled,
        burst_labels.len()
    );

    // Joint Bayesian inference over card-grouped bursts.
    let findings = bgp::analyze_card_groups(&topo, &run.diagnoses, Duration::mins(5), 10);
    let f = findings
        .iter()
        .find(|f| f.card == card)
        .expect("burst on the crashed card was not grouped");
    println!(
        "Bayesian engine: {} flaps on {} distinct sessions, all on {}, \
         classified {} (paper: 133 flaps, 125 sessions, line-card issue)",
        f.members.len(),
        f.sessions,
        grca_net_model::Location::LineCard(f.card).display(&topo),
        f.bayes_class
    );
    let ok = f.bayes_class == bgp::classes::LINE_CARD_ISSUE;
    assert!(
        ok,
        "unobservable root cause NOT recovered by joint inference"
    );
    println!("\n=> unobservable root cause RECOVERED by joint inference");
    let result = Result {
        burst_flaps: f.members.len(),
        burst_sessions: f.sessions,
        rule_based_label: "interface-flap".to_string(),
        bayes_class: f.bayes_class.clone(),
        crash_recovered: ok,
    };
    vec![("exp_fig8_bayes.json", json(&result))]
}
