//! A1 — sensitivity of diagnosis accuracy to the temporal margin X.
//!
//! The paper's future work: "make the temporal joining rules less
//! sensitive". The 180 s hold timer separates an interface failure from
//! the session flap it causes; the worked example of §II-C models this
//! with X=180 on the symptom side. With *windowed* flap diagnostics the
//! overlap survives a small X (the interface is still down when the
//! session drops), so this ablation uses the sharper configuration the
//! paper's example actually describes: the diagnostic is the interface
//! *down* transition, a point event at outage onset. A margin below the
//! hold timer then misses every hold-timer-expiry flap; an enormous
//! margin starts joining unrelated events.

use crate::{json, Output};
use grca_apps::{report, run_app, Study};
use grca_core::{DiagnosisGraph, DiagnosisRule, ExpandOption, Expansion, TemporalRule};
use grca_events::names as ev;
use grca_net_model::gen::TopoGenConfig;
use grca_net_model::{JoinLevel, NullOracle};
use grca_simnet::FaultRates;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    margin_x: i64,
    accuracy: f64,
    interface_flap_pct: f64,
    unknown_pct: f64,
}

/// The BGP graph with point-event (down-transition) layer-2 diagnostics
/// at margin `x`.
fn graph_with_margin(x: i64) -> DiagnosisGraph {
    let mut g = grca_apps::bgp::diagnosis_graph();
    // Swap the windowed flap diagnostics for their down-transition point
    // events and drop the deeper flap-symptom rules.
    g.rules.retain(|r| {
        !(r.diagnostic == ev::INTERFACE_FLAP || r.diagnostic == ev::LINE_PROTOCOL_FLAP)
            && r.symptom == ev::EBGP_FLAP
    });
    let t = TemporalRule::new(
        Expansion::new(ExpandOption::StartStart, x, 5),
        Expansion::new(ExpandOption::StartEnd, 5, 5),
    );
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::INTERFACE_DOWN,
        t,
        JoinLevel::Interface,
        180,
    ));
    g.add_rule(DiagnosisRule::new(
        ev::EBGP_FLAP,
        ev::LINE_PROTOCOL_DOWN,
        t,
        JoinLevel::Interface,
        170,
    ));
    g
}

pub fn run(_smoke: bool) -> Output {
    // BGP fast external fallover is *off by default* on real routers; the
    // hold timer is then the normal flap mechanism. Longer outages make
    // most interface failures outlast the timer.
    let mut rates = FaultRates::bgp_study();
    rates.customer_iface_flap = 160.0;
    let fx = grca_bench::fixture_with(&TopoGenConfig::default(), 10, 55, rates, |cfg| {
        cfg.fast_fallover_prob = 0.0;
        cfg.iface_outage_mean_secs = 150.0;
    });
    let defs = grca_apps::bgp::event_definitions();
    let mut points = Vec::new();
    println!(
        "{:>8} {:>10} {:>16} {:>10}",
        "X (s)", "accuracy", "iface-flap %", "unknown %"
    );
    for x in [5, 30, 60, 120, 185, 400, 1200, 3600] {
        let run = run_app(
            &fx.topo,
            &fx.db,
            &NullOracle,
            &defs,
            graph_with_margin(x),
            None,
        )
        .expect("valid graph");
        let acc = report::score(Study::Bgp, &fx.topo, &run.diagnoses, &fx.out.truth);
        let rows = report::category_breakdown(Study::Bgp, &fx.topo, &run.diagnoses);
        let pct = |c: &str| {
            rows.iter()
                .find(|(l, _, _)| l == c)
                .map(|(_, _, p)| *p)
                .unwrap_or(0.0)
        };
        println!(
            "{x:>8} {:>9.1}% {:>15.1}% {:>9.1}%",
            100.0 * acc.rate(),
            pct("Interface flap"),
            pct("Unknown")
        );
        points.push(Point {
            margin_x: x,
            accuracy: acc.rate(),
            interface_flap_pct: pct("Interface flap"),
            unknown_pct: pct("Unknown"),
        });
    }
    // The configured value (185 = hold timer + noise) must beat both a
    // too-tight and a too-loose margin.
    let at = |x: i64| points.iter().find(|p| p.margin_x == x).unwrap().accuracy;
    println!(
        "\naccuracy: X=5 -> {:.3}, X=185 -> {:.3}, X=3600 -> {:.3}",
        at(5),
        at(185),
        at(3600)
    );
    assert!(
        at(185) > at(5) + 0.02,
        "a margin below the hold timer must lose recall"
    );
    assert!(
        at(185) + 0.005 >= at(3600),
        "an enormous margin must not beat the timer value"
    );
    vec![("exp_ablation_temporal.json", json(&points))]
}
