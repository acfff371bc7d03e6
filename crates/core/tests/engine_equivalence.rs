//! The engine's index-driven candidate cut must be invisible: diagnosing
//! with the real engine equals a naive reference that scans every instance
//! of every diagnostic event.

use grca_core::{DiagnosisGraph, DiagnosisRule, Engine, ExpandOption, Expansion, TemporalRule};
use grca_events::{EventInstance, EventStore};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{JoinLevel, Location, NullOracle, SpatialModel};
use grca_types::{TimeWindow, Timestamp};
use proptest::prelude::*;

/// Naive reference: for one symptom, full scan over all rules × all
/// instances, collecting (rule idx, window, location) of direct (depth-1)
/// matches.
fn naive_direct_matches(
    graph: &DiagnosisGraph,
    store: &EventStore,
    sm: &SpatialModel,
    symptom: &EventInstance,
) -> Vec<(usize, TimeWindow, Location)> {
    let mut out = Vec::new();
    for (ri, rule) in graph.rules.iter().enumerate() {
        if rule.symptom != symptom.name {
            continue;
        }
        for cand in store.instances(rule.diagnostic) {
            if !rule.temporal.joined(symptom.window, cand.window) {
                continue;
            }
            let pre = rule.temporal.symptom.expand(symptom.window).start;
            let post = symptom.window.end;
            let ok = rule
                .spatial
                .joined(sm, &symptom.location, &cand.location, pre)
                || (post != pre
                    && rule
                        .spatial
                        .joined(sm, &symptom.location, &cand.location, post));
            if ok {
                out.push((ri, cand.window, cand.location));
            }
        }
    }
    out.sort_by_key(|(ri, w, l)| (*ri, w.start, w.end, *l));
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_naive_reference(
        seed in 0u64..50,
        instants in proptest::collection::vec((0i64..50_000, 0i64..400), 5..60),
        sym_at in 0i64..50_000,
    ) {
        let topo = generate(&TopoGenConfig { seed, ..TopoGenConfig::small() });
        let sm = SpatialModel::new(&topo, &NullOracle);

        // Graph: one symptom with two rules at different levels/margins.
        let mut graph = DiagnosisGraph::new("eq", "sym");
        graph.add_rule(DiagnosisRule::new(
            "sym",
            "diag-a",
            TemporalRule::new(
                Expansion::new(ExpandOption::StartStart, 180, 5),
                Expansion::new(ExpandOption::StartEnd, 5, 5),
            ),
            JoinLevel::Router,
            100,
        ));
        graph.add_rule(DiagnosisRule::new(
            "sym",
            "diag-b",
            TemporalRule::symmetric(60),
            JoinLevel::Interface,
            120,
        ));

        // Instances scattered over routers/interfaces and time.
        let mut store = EventStore::new();
        let n_ifaces = topo.interfaces.len();
        let mut instances = Vec::new();
        for (k, &(t, dur)) in instants.iter().enumerate() {
            let iface = grca_net_model::InterfaceId::from(k % n_ifaces);
            let w = TimeWindow::new(Timestamp(t), Timestamp(t + dur));
            if k % 2 == 0 {
                instances.push(EventInstance::new(
                    "diag-a",
                    w,
                    Location::Router(topo.interface(iface).router),
                ));
            } else {
                instances.push(EventInstance::new("diag-b", w, Location::Interface(iface)));
            }
        }
        store.add(instances);

        let sess = &topo.sessions[(seed as usize) % topo.sessions.len()];
        let symptom = EventInstance::new(
            "sym",
            TimeWindow::new(Timestamp(sym_at), Timestamp(sym_at + 60)),
            Location::RouterNeighborIp { router: sess.pe, neighbor: sess.neighbor_ip },
        );

        let engine = Engine::new(&graph, &store, &sm);
        let d = engine.diagnose(&symptom);
        let mut got: Vec<(usize, TimeWindow, Location)> = d
            .evidence
            .iter()
            .filter(|e| e.depth == 1)
            .map(|e| (e.rule as usize, e.instance.window, e.instance.location))
            .collect();
        got.sort_by_key(|(ri, w, l)| (*ri, w.start, w.end, *l));
        got.dedup();

        let want = naive_direct_matches(&graph, &store, &sm, &symptom);
        prop_assert_eq!(got, want);
    }

    /// Work-stealing must be invisible: any worker count yields the
    /// sequential result, in the sequential order, for arbitrary symptom
    /// loads (including loads smaller than the worker count).
    #[test]
    fn parallel_equals_sequential_for_all_thread_counts(
        seed in 0u64..50,
        instants in proptest::collection::vec((0i64..100_000, 0i64..200), 1..80),
    ) {
        let topo = generate(&TopoGenConfig { seed, ..TopoGenConfig::small() });
        let sm = SpatialModel::new(&topo, &NullOracle);
        let mut graph = DiagnosisGraph::new("par", "sym");
        graph.add_rule(DiagnosisRule::new(
            "sym",
            "diag-a",
            TemporalRule::hold_timer(180),
            JoinLevel::Router,
            100,
        ));
        graph.add_rule(DiagnosisRule::new(
            "diag-a",
            "diag-b",
            TemporalRule::symmetric(30),
            JoinLevel::Router,
            150,
        ));
        let n_sess = topo.sessions.len();
        let mut instances = Vec::new();
        for (k, &(t, dur)) in instants.iter().enumerate() {
            let sess = &topo.sessions[k % n_sess];
            let w = TimeWindow::new(Timestamp(t), Timestamp(t + dur));
            instances.push(match k % 3 {
                0 => EventInstance::new(
                    "sym",
                    w,
                    Location::RouterNeighborIp { router: sess.pe, neighbor: sess.neighbor_ip },
                ),
                1 => EventInstance::new("diag-a", w, Location::Router(sess.pe)),
                _ => EventInstance::new("diag-b", w, Location::Router(sess.pe)),
            });
        }
        let mut store = EventStore::new();
        store.add(instances);
        let engine = Engine::new(&graph, &store, &sm);
        let seq = engine.diagnose_all();
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(engine.diagnose_all_parallel(threads), seq.clone());
        }
    }
}
