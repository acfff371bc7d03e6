//! E12 — §II-E: validating diagnosis rules with the Correlation Tester.
//!
//! "The diagnosis rule is only considered to be accurate when it passes
//! the test." For a set of key Knowledge Library rule pairs, we build the
//! symptom and diagnostic event series from a simulated scenario and run
//! the NICE circular-permutation test. Genuine rules must pass; a
//! deliberately bogus rule (eBGP flaps explained by unrelated syslog
//! noise) must fail.

use crate::{json, Output};
use grca_bench::fixture;
use grca_core::discovery::SeriesGrid;
use grca_correlation::{CorrelationTester, EventSeries};
use grca_events::{bgp_app_events, extract_all, knowledge_library, names as ev, ExtractCx};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use grca_types::Duration;
use serde::Serialize;

#[derive(Serialize)]
struct RuleCheck {
    symptom: String,
    diagnostic: String,
    score: f64,
    significant: bool,
    expected_significant: bool,
}

fn series(grid: &SeriesGrid, store: &grca_events::EventStore, name: &str) -> EventSeries {
    EventSeries::from_instants(
        grid.start,
        grid.bin,
        grid.bins,
        store.instances(name).iter().map(|i| i.window.start),
    )
}

pub fn run(_smoke: bool) -> Output {
    let mut rates = FaultRates::bgp_study();
    rates.link_cost_out_maint = 2.0;
    rates.ospf_weight_change = 4.0;
    rates.link_congestion = 4.0;
    rates.sonet_restoration = 6.0;
    let fx = fixture(&TopoGenConfig::default(), 45, 99, rates);
    let cx = ExtractCx::new(&fx.topo, &fx.db, None);
    let mut defs = knowledge_library();
    defs.extend(bgp_app_events());
    let store = extract_all(&defs, &cx);
    let grid = SeriesGrid::new(fx.cfg.start, fx.cfg.end(), Duration::mins(5));
    let tester = CorrelationTester {
        smooth_bins: 2,
        ..Default::default()
    };

    // (symptom, diagnostic, expect-significant)
    let checks = [
        (ev::EBGP_FLAP, ev::INTERFACE_FLAP, true),
        (ev::EBGP_FLAP, ev::LINE_PROTOCOL_FLAP, true),
        (ev::EBGP_FLAP, ev::EBGP_HTE, true),
        (ev::EBGP_FLAP, ev::CUSTOMER_RESET_SESSION, true),
        (ev::LINE_PROTOCOL_FLAP, ev::INTERFACE_FLAP, true),
        (ev::INTERFACE_FLAP, ev::SONET_RESTORATION, true),
        (ev::OSPF_RECONVERGENCE, ev::COMMAND_COST_OUT, true),
        (ev::LINK_COST_OUT_DOWN, ev::COMMAND_COST_OUT, true),
        // A bogus rule: flaps are not explained by routine noise type 3.
        (ev::EBGP_FLAP, "bogus-noise", false),
    ];

    let mut results = Vec::new();
    println!(
        "{:<28} {:<28} {:>8} {:>12} {:>9}",
        "symptom", "diagnostic", "score", "significant", "expected"
    );
    println!("{:-<90}", "");
    for (sym, diag, expect) in checks {
        let s = series(&grid, &store, sym);
        let d = if diag == "bogus-noise" {
            // Build the noise-type-3 syslog series directly from the db.
            EventSeries::from_instants(
                grid.start,
                grid.bin,
                grid.bins,
                fx.db
                    .syslog
                    .all()
                    .iter()
                    .filter(|r| r.raw.starts_with("%NOISE-6-T003"))
                    .map(|r| r.utc),
            )
        } else {
            series(&grid, &store, diag)
        };
        let res = tester.test(&s, &d).expect("testable series");
        println!(
            "{:<28} {:<28} {:>8.2} {:>12} {:>9}",
            sym, diag, res.score, res.significant, expect
        );
        results.push(RuleCheck {
            symptom: sym.to_string(),
            diagnostic: diag.to_string(),
            score: res.score,
            significant: res.significant,
            expected_significant: expect,
        });
    }
    let wrong = results
        .iter()
        .filter(|r| r.significant != r.expected_significant)
        .count();
    println!(
        "\n{} of {} checks match expectation",
        results.len() - wrong,
        results.len()
    );
    assert_eq!(wrong, 0, "rule validation mismatch");
    vec![("exp_rule_validation.json", json(&results))]
}
