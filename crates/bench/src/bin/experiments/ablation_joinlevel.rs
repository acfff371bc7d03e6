//! A4 — what the spatial model buys: joining at the wrong level.
//!
//! The PIM graph joins backbone causes at path levels (router-path /
//! link-path), which requires the full dependency model — historical OSPF
//! paths with ECMP. This ablation degrades those rules to plain `router`
//! joins (endpoint-only, no path knowledge) and to `exact` joins (no
//! model at all), showing the accuracy the dependency model contributes.

use crate::{json, Output};
use grca_apps::{pim, report, run_app, Study};
use grca_bench::fixture;
use grca_net_model::gen::TopoGenConfig;
use grca_net_model::JoinLevel;
use grca_simnet::FaultRates;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    variant: String,
    accuracy: f64,
    unknown_pct: f64,
}

pub fn run(_smoke: bool) -> Output {
    let fx = fixture(&TopoGenConfig::default(), 14, 5, FaultRates::pim_study());
    let defs = pim::event_definitions();
    let mut points = Vec::new();
    println!(
        "{:<22} {:>10} {:>11}",
        "join levels", "accuracy", "unknown %"
    );
    for (variant, downgrade) in [
        ("full spatial model", None),
        ("router-only", Some(JoinLevel::Router)),
        ("exact-only", Some(JoinLevel::Exact)),
    ] {
        let mut graph = pim::diagnosis_graph();
        if let Some(level) = downgrade {
            for r in &mut graph.rules {
                if matches!(
                    r.spatial.join_level,
                    JoinLevel::RouterPath | JoinLevel::LinkPath
                ) {
                    r.spatial.join_level = level;
                }
            }
        }
        let routing = grca_apps::build_routing(&fx.topo, &fx.db);
        let run =
            run_app(&fx.topo, &fx.db, &routing, &defs, graph, Some(&routing)).expect("valid graph");
        let acc = report::score(Study::Pim, &fx.topo, &run.diagnoses, &fx.out.truth);
        let rows = report::category_breakdown(Study::Pim, &fx.topo, &run.diagnoses);
        let unknown = rows
            .iter()
            .find(|(l, _, _)| l == "Unknown")
            .map(|(_, _, p)| *p)
            .unwrap_or(0.0);
        println!(
            "{variant:<22} {:>9.1}% {:>10.1}%",
            100.0 * acc.rate(),
            unknown
        );
        points.push(Point {
            variant: variant.to_string(),
            accuracy: acc.rate(),
            unknown_pct: unknown,
        });
    }
    assert!(
        points[0].accuracy > points[2].accuracy,
        "the spatial model must beat exact-only joins"
    );
    println!(
        "\nfull model {:.1}% vs exact-only {:.1}% — the dependency model's contribution",
        100.0 * points[0].accuracy,
        100.0 * points[2].accuracy
    );
    vec![("exp_ablation_joinlevel.json", json(&points))]
}
