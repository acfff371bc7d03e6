//! E8 — Fig. 7 / §IV-B: discovering the hidden provisioning bug by
//! statistical screening, and the necessity of root-cause prefiltering.
//!
//! Paper: screening the *CPU-related* BGP-flap series against 3361
//! candidate series (831 workflow + 2533 syslog) surfaced ~80 significant
//! correlations including provisioning activity; screening *all* flaps
//! did not reach significance for provisioning. We reproduce the protocol
//! at reduced candidate-set scale (documented in EXPERIMENTS.md) and also
//! serve as ablation A2.

use crate::{json, Output};
use grca_apps::bgp;
use grca_core::browser::location_routers;
use grca_core::discovery::{screen_parallel, symptom_series, CandidateCache, SeriesGrid};
use grca_correlation::CorrelationTester;
use grca_events::names as ev;
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::FaultRates;
use grca_types::Duration;
use serde::Serialize;
use std::collections::BTreeSet;

#[derive(Serialize)]
struct Result {
    candidates: usize,
    testable: usize,
    skipped: usize,
    cpu_related_flaps: usize,
    all_flaps: usize,
    significant_filtered: usize,
    provisioning_score_filtered: f64,
    provisioning_significant_filtered: bool,
    provisioning_score_unfiltered: f64,
    provisioning_significant_unfiltered: bool,
    top_filtered: Vec<(String, f64)>,
}

const PROVISIONING: &str = "workflow:provision-customer-port";

pub fn run(_smoke: bool) -> Output {
    // Three months, as in the paper; busy provisioning systems; a small
    // set of buggy routers.
    let mut rates = FaultRates::bgp_study();
    rates.provisioning_activity = 260.0;
    let topo_cfg = TopoGenConfig {
        pes_per_pop: 6,
        ..TopoGenConfig::default()
    };
    let fx = grca_bench::fixture_with(&topo_cfg, 90, 4711, rates, |cfg| {
        cfg.buggy_router_fraction = 0.06;
    });
    let run = bgp::run(&fx.topo, &fx.db).expect("valid app");

    // Prefilter (the paper's definition): flaps with hold-timer expiries,
    // no link-failure evidence, joined with a high-CPU signature.
    let cpu_related: Vec<_> = run
        .diagnoses
        .iter()
        .filter(|d| {
            d.has_evidence(ev::EBGP_HTE)
                && (d.has_evidence(ev::CPU_HIGH_SPIKE) || d.has_evidence(ev::CPU_HIGH_AVERAGE))
                && !d.has_evidence(ev::INTERFACE_FLAP)
                && !d.has_evidence(ev::LINE_PROTOCOL_FLAP)
        })
        .collect();
    let all: Vec<_> = run.diagnoses.iter().collect();
    println!(
        "{} flaps; {} CPU-related after prefiltering",
        all.len(),
        cpu_related.len()
    );

    // Candidate series on the routers where the subset occurred.
    let routers: BTreeSet<_> = cpu_related
        .iter()
        .flat_map(|d| location_routers(&d.symptom.location))
        .collect();
    let grid = SeriesGrid::new(fx.cfg.start, fx.cfg.end(), Duration::mins(5));
    let cache = CandidateCache::new(&fx.db);
    let candidates = cache.get(&grid, Some(&routers));
    println!(
        "screening against {} candidate series (paper: 3361)",
        candidates.len()
    );

    let tester = CorrelationTester::default();
    let filtered_series = symptom_series(&grid, &cpu_related);
    let screening = screen_parallel(&tester, &filtered_series, &candidates, 8);
    let sig = screening.significant();
    // "0 hits" and "0 testable series" are different findings; say which.
    println!("screening outcome: {}", screening.summary());
    println!(
        "\nsignificant series for the CPU-related subset: {} (paper: ~80 of 3361)",
        sig.len()
    );
    for h in screening.hits.iter().take(10) {
        println!(
            "  {:<48} score {:>7.2} {}",
            h.name,
            h.result.score,
            if h.result.significant {
                "SIGNIFICANT"
            } else {
                ""
            }
        );
    }
    let prov_f = screening.hits.iter().find(|h| h.name == PROVISIONING);

    // The control: the full flap series buries the signal.
    let unfiltered_series = symptom_series(&grid, &all);
    let prov_series = candidates
        .iter()
        .find(|(n, _)| n == PROVISIONING)
        .map(|(_, s)| s)
        .expect("provisioning series present");
    let prov_u = tester.test(&unfiltered_series, prov_series);

    let (sf, okf) = prov_f
        .map(|h| (h.result.score, h.result.significant))
        .unwrap_or((f64::NAN, false));
    let (su, oku) = prov_u
        .map(|r| (r.score, r.significant))
        .unwrap_or((f64::NAN, false));
    println!("\nprovisioning activity vs CPU-related flaps: score {sf:.2} significant={okf}");
    println!("provisioning activity vs ALL flaps:         score {su:.2} significant={oku}");
    println!(
        "\nprefiltering amplifies the signal by {:.1}x — {}",
        sf / su.abs().max(0.01),
        if okf && !oku {
            "reproducing the paper's finding exactly"
        } else if okf {
            "signal visible in both (stronger when filtered)"
        } else {
            "signal NOT recovered (check rates/seed)"
        }
    );

    assert!(
        okf,
        "the planted provisioning correlation must be discovered"
    );
    let result = Result {
        candidates: candidates.len(),
        testable: screening.hits.len(),
        skipped: screening.skipped.len(),
        cpu_related_flaps: cpu_related.len(),
        all_flaps: all.len(),
        significant_filtered: sig.len(),
        provisioning_score_filtered: sf,
        provisioning_significant_filtered: okf,
        provisioning_score_unfiltered: su,
        provisioning_significant_unfiltered: oku,
        top_filtered: screening
            .hits
            .iter()
            .take(10)
            .map(|h| (h.name.clone(), h.result.score))
            .collect(),
    };
    vec![("exp_fig7_mining.json", json(&result))]
}
