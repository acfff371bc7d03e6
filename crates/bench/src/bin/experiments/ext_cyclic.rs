//! X1 (extension, paper future-work item 1) — the cyclic-causality guard.
//!
//! §IV-B ends with "evidence-based diagnosis systems including our RCA
//! tool hit their limit" on the flap↔CPU cycle, and §VI lists breaking it
//! as future work. Our guard orders the point-event CPU spike against the
//! flap onset: spikes that only appear *after* the flap (route
//! recomputation, not cause) are demoted. This experiment sweeps the
//! confounder strength and reports accuracy with and without the guard.

use crate::{json, Output};
use grca_apps::{bgp, report, Study};
use grca_bench::fixture_with;
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    reverse_cpu_prob: f64,
    accuracy_unguarded: f64,
    accuracy_guarded: f64,
    demoted: usize,
}

pub fn run(_smoke: bool) -> Output {
    let mut points = Vec::new();
    println!(
        "{:>12} {:>12} {:>11} {:>9}",
        "confounder", "unguarded", "guarded", "demoted"
    );
    for prob in [0.0, 0.2, 0.5, 0.8] {
        let fx = fixture_with(
            &TopoGenConfig::default(),
            10,
            71,
            FaultRates::bgp_study(),
            |cfg| cfg.reverse_cpu_prob = prob,
        );
        let run = bgp::run(&fx.topo, &fx.db).expect("valid app");
        let before = report::score(Study::Bgp, &fx.topo, &run.diagnoses, &fx.out.truth);
        let mut guarded = run.diagnoses.clone();
        let demoted = bgp::demote_reverse_cpu(&mut guarded);
        let after = report::score(Study::Bgp, &fx.topo, &guarded, &fx.out.truth);
        println!(
            "{prob:>12.1} {:>11.2}% {:>10.2}% {demoted:>9}",
            100.0 * before.rate(),
            100.0 * after.rate()
        );
        points.push(Point {
            reverse_cpu_prob: prob,
            accuracy_unguarded: before.rate(),
            accuracy_guarded: after.rate(),
            demoted,
        });
    }
    // The guard must help under heavy confounding and never hurt without.
    let p0 = &points[0];
    let p_hi = points.last().unwrap();
    assert!(p0.accuracy_guarded >= p0.accuracy_unguarded - 0.005);
    assert!(p_hi.accuracy_guarded > p_hi.accuracy_unguarded);
    println!(
        "\nguard gains {:.1} accuracy points at confounder 0.8, costs nothing at 0.0",
        100.0 * (p_hi.accuracy_guarded - p_hi.accuracy_unguarded)
    );
    vec![("exp_ext_cyclic.json", json(&points))]
}
