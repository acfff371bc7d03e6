//! Cross-crate integration: the full pipeline exercised through the
//! public facade, end to end, with invariants that span crate boundaries.

use grca::apps::{bgp, cdn, pim, report, Study};
use grca::collector::Database;
use grca::core::{parse_graph, render_graph, ResultBrowser, UNKNOWN};
use grca::net_model::config::{emit_all, ConfigDb};
use grca::net_model::gen::{generate, TopoGenConfig};
use grca::simnet::{run_scenario, FaultRates, ScenarioConfig, SymptomKind};

#[test]
fn every_symptom_gets_exactly_one_diagnosis() {
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(5, 3, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let (db, _) = Database::ingest(&topo, &out.records);
    let run = bgp::run(&topo, &db).unwrap();
    let truth_flaps = out
        .truth
        .iter()
        .filter(|t| t.symptom == SymptomKind::EbgpFlap)
        .count();
    assert_eq!(run.diagnoses.len(), truth_flaps);
    // Every diagnosis labels either a graph event or unknown.
    let graph = bgp::diagnosis_graph();
    let events: std::collections::BTreeSet<&str> = graph.events().into_iter().collect();
    for d in &run.diagnoses {
        let label = d.label();
        for part in label.split('+') {
            assert!(
                part == UNKNOWN || events.contains(part),
                "label {part:?} is not a graph event"
            );
        }
    }
}

#[test]
fn application_graphs_roundtrip_through_the_dsl() {
    for graph in [
        bgp::diagnosis_graph(),
        cdn::diagnosis_graph(),
        pim::diagnosis_graph(),
    ] {
        let text = render_graph(&graph);
        let back = parse_graph(&text).unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        assert_eq!(graph, back, "{} did not round-trip", graph.name);
    }
}

#[test]
fn evidence_is_always_temporally_plausible() {
    // No evidence instance may start absurdly far from its symptom: the
    // largest configured margin in any app graph is 15 minutes of lag plus
    // event durations.
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(5, 9, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let (db, _) = Database::ingest(&topo, &out.records);
    let run = bgp::run(&topo, &db).unwrap();
    for d in &run.diagnoses {
        for e in &d.evidence {
            let gap = (e.instance.window.start - d.symptom.window.start)
                .abs()
                .as_secs();
            // hold timer (185) + reboot forward window (300) + flap
            // durations (<= 2h pairing cap) bound any legitimate join.
            assert!(
                gap <= 2 * 3600 + 600,
                "evidence {} is {gap}s from its symptom",
                e.event()
            );
        }
    }
}

#[test]
fn config_snapshots_agree_with_spatial_conversions() {
    // The §II-B story: configuration-derived mappings drive the spatial
    // model. Verify the parsed config agrees with the conversions used in
    // diagnosis for every session.
    let topo = generate(&TopoGenConfig::small());
    let db = ConfigDb::parse(&emit_all(&topo)).unwrap();
    let oracle = grca::net_model::NullOracle;
    let sm = grca::net_model::SpatialModel::new(&topo, &oracle);
    for s in &topo.sessions {
        let via_model = sm.neighbor_iface(s.pe, s.neighbor_ip).unwrap();
        let via_config = db
            .neighbor_interface(&topo.router(s.pe).name, s.neighbor_ip)
            .unwrap();
        assert_eq!(topo.interface(via_model).name, via_config);
    }
}

#[test]
fn accuracy_holds_across_seeds() {
    // The headline result must not be a single-seed accident.
    for seed in [101, 202, 303] {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(5, seed, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let (db, _) = Database::ingest(&topo, &out.records);
        let run = bgp::run(&topo, &db).unwrap();
        let acc = report::score(Study::Bgp, &topo, &run.diagnoses, &out.truth);
        assert!(
            acc.rate() > 0.88,
            "seed {seed}: accuracy {:.3}, confusion {:?}",
            acc.rate(),
            acc.confusion
        );
    }
}

#[test]
fn browser_breakdown_is_consistent_with_diagnoses() {
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(5, 3, FaultRates::pim_study());
    let out = run_scenario(&topo, &cfg);
    let (db, _) = Database::ingest(&topo, &out.records);
    let run = pim::run(&topo, &db).unwrap();
    let rb = ResultBrowser::new(&topo, &run.diagnoses);
    let b = rb.breakdown();
    // Counts per label sum to the total; each filter returns that count.
    assert_eq!(b.rows.iter().map(|(_, n, _)| n).sum::<usize>(), b.total);
    for (label, n, _) in &b.rows {
        assert_eq!(rb.with_label(label).len(), *n);
    }
}

#[test]
fn table_categories_are_stable_names() {
    // Experiments and EXPERIMENTS.md rely on these exact strings.
    assert_eq!(
        report::label_category(Study::Bgp, "interface-flap"),
        "Interface flap"
    );
    assert_eq!(
        report::label_category(Study::Pim, "uplink-pim-adjacency-change"),
        "Uplink PIM adjacency loss"
    );
    assert_eq!(
        report::label_category(Study::Cdn, "bgp-egress-change"),
        "Egress Change due to Inter-domain routing change"
    );
}
