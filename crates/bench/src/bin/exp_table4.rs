//! E4 — Table IV: root-cause breakdown of customer eBGP flaps.
//!
//! Paper setting: one month of eBGP flaps on >600 provider edge routers.
//! Ours: the paper-scale synthetic topology (600 PEs) over 30 days with
//! the BGP-study fault mix, diagnosed from raw telemetry alone, plus
//! per-symptom accuracy against the simulator's hidden ground truth.

use grca_apps::Study;
use grca_bench::{fixture, same_ranking, save_json, table_run};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use serde::Serialize;

/// Table IV of the paper.
const PAPER: &[(&str, f64)] = &[
    ("Router reboot", 0.33),
    ("Customer reset session", 1.84),
    ("CPU high (average)", 0.02),
    ("CPU high (spike)", 6.44),
    ("Interface flap", 63.94),
    ("Line protocol flap", 11.15),
    ("eBGP HTE (due to unknown reasons)", 4.86),
    ("Regular optical mesh network restoration", 0.04),
    ("Fast optical mesh network restoration", 0.14),
    ("SONET restoration", 0.29),
    ("Unknown", 10.95),
];

#[derive(Serialize)]
struct Result {
    flaps: usize,
    pes: usize,
    accuracy: f64,
    ranking_top3_matches: bool,
    rows: Vec<grca_bench::CompareRow>,
}

fn main() {
    let t0 = std::time::Instant::now();
    let fx = fixture(
        &TopoGenConfig::paper_scale(),
        30,
        2010,
        FaultRates::bgp_study(),
    );
    println!(
        "simulated {} records over 30 days on {} ({:.1}s)",
        fx.out.records.len(),
        fx.topo.summary(),
        t0.elapsed().as_secs_f64()
    );

    let t = table_run(
        Study::Bgp,
        &fx,
        PAPER,
        "Table IV — root cause breakdown of BGP flaps",
        "<5 s/symptom",
    );
    let ranking = same_ranking(&t.rows, 3);
    println!("top-3 category ranking matches the paper: {ranking}");

    save_json(
        "exp_table4",
        &Result {
            flaps: t.diagnosed,
            pes: fx.topo.provider_edges().count(),
            accuracy: t.accuracy,
            ranking_top3_matches: ranking,
            rows: t.rows,
        },
    );
}
