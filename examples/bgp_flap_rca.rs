//! The BGP-flap RCA application in depth (§III-A of the paper).
//!
//! Shows the pieces an operator touches: the rule-specification DSL for
//! the Fig. 4 diagnosis graph, per-day trending, evidence chains for
//! individual flaps, and raw-data drill-down around an unexplained one.
//!
//! ```sh
//! cargo run --release --example bgp_flap_rca
//! ```

use grca::apps::bgp;
use grca::collector::Database;
use grca::core::{drill_down, render_graph, ResultBrowser};
use grca::net_model::gen::{generate, TopoGenConfig};
use grca::simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca::types::Duration;

fn main() {
    let topo = generate(&TopoGenConfig::default());
    let cfg = ScenarioConfig::new(14, 7, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let (db, _) = Database::ingest(&topo, &out.records);

    // The diagnosis graph, rendered in the rule-specification language.
    // An operator edits exactly this text to customize the application.
    let graph = bgp::diagnosis_graph();
    println!(
        "=== diagnosis graph (rule DSL) ===\n{}",
        render_graph(&graph)
    );

    let run = bgp::run(&topo, &db).unwrap();
    let rb = ResultBrowser::new(&topo, &run.diagnoses);
    println!(
        "{}",
        rb.breakdown().render("=== breakdown over 14 days ===")
    );

    // Trending: per-day counts per root cause (the chronic-issue view).
    println!("=== daily trend (top cause per day) ===");
    for (day, causes) in rb.trend() {
        let (top, n) = causes.iter().max_by_key(|(_, n)| **n).unwrap();
        let total: usize = causes.values().sum();
        println!("  day {day}: {total} flaps, most common: {top} ({n})");
    }

    // Evidence chains: how one diagnosed flap was explained.
    if let Some(d) = run.diagnoses.iter().find(|d| {
        d.root_causes
            .first()
            .map(|&i| d.evidence[i].depth > 1)
            .unwrap_or(false)
    }) {
        println!("\n=== a transitively-explained flap ===");
        println!(
            "symptom {} at {}",
            d.symptom.location.display(&topo),
            d.symptom.window.start
        );
        for e in d.chain(d.root_causes[0]) {
            println!(
                "  depth {} via rule #{}: {} at {} (priority {})",
                e.depth,
                e.rule,
                e.event(),
                e.instance.window.start,
                e.priority
            );
        }
    }

    // Drill-down: the raw records around an unexplained flap — the manual
    // exploration entry point of the knowledge-building loop (§IV-A).
    if let Some(d) = rb.unexplained().first() {
        let dd = drill_down(&topo, &db, d, Duration::mins(10));
        println!(
            "\n=== drill-down around an unexplained flap ({} raw rows) ===",
            dd.total()
        );
        for line in dd.syslog.iter().take(8) {
            println!("  {line}");
        }
    }
}
