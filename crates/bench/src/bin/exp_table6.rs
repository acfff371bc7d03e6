//! E6 (paper Table VI) — root-cause breakdown of CDN RTT degradations.
//!
//! Paper setting: one month of RTT degradation events toward one
//! northeast CDN node; ~75% of degradations have no in-network cause.
//! Ours: 30 days on the default topology with the CDN-study mix.

use grca_apps::Study;
use grca_bench::{fixture, save_json, table_run};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use serde::Serialize;

/// Table VI of the paper.
const PAPER: &[(&str, f64)] = &[
    ("CDN assignment policy change", 3.83),
    ("Egress Change due to Inter-domain routing change", 5.71),
    ("Link Congestions", 3.50),
    ("Link Loss", 3.32),
    ("Interface flap", 4.65),
    ("OSPF re-convergence", 4.16),
    ("Outside of our network (Unknown)", 74.83),
];

#[derive(Serialize)]
struct Result {
    degradations: usize,
    accuracy: f64,
    outside_dominates: bool,
    rows: Vec<grca_bench::CompareRow>,
}

fn main() {
    let fx = fixture(&TopoGenConfig::default(), 30, 2010, FaultRates::cdn_study());
    let t = table_run(
        Study::Cdn,
        &fx,
        PAPER,
        "Table VI — root cause breakdown of RTT degradations",
        "<3 min, dominated by route computation",
    );
    let outside = t
        .rows
        .iter()
        .find(|r| r.category.starts_with("Outside"))
        .map(|r| r.measured_pct > 50.0)
        .unwrap_or(false);
    println!("majority outside the network (the paper's headline): {outside}");

    save_json(
        "exp_table6",
        &Result {
            degradations: t.diagnosed,
            accuracy: t.accuracy,
            outside_dominates: outside,
            rows: t.rows,
        },
    );
}
