//! E-hotpath — microbenchmarks of the diagnosis hot path.
//!
//! Three loops the engine overhaul targets: single-symptom `diagnose`
//! over a dense synthetic graph (interned names, indexed rules, memoized
//! joins), the store's binary-search `candidates` cut over a large index,
//! and a cache-hit route-oracle path query (the sharded-cache read path) —
//! plus the two per-cycle costs of the online path: merging a batch into a
//! finalized table, and an incremental `extract` over settled history.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grca_core::{DiagnosisGraph, DiagnosisRule, Engine, TemporalRule};
use grca_events::{EventInstance, EventStore};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{JoinLevel, Location, NullOracle, RouteOracle, RouterId, SpatialModel};
use grca_routing::RoutingState;
use grca_types::{Duration, TimeWindow, Timestamp};
use std::hint::black_box;

fn w(s: i64, e: i64) -> TimeWindow {
    TimeWindow::new(Timestamp(s), Timestamp(e))
}

fn bench_hotpath(c: &mut Criterion) {
    let topo = generate(&TopoGenConfig::small());
    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(1));

    // diagnose: the engine inner loop with direct and transitive evidence.
    {
        let mut g = DiagnosisGraph::new("hot", "flap");
        g.add_rule(DiagnosisRule::new(
            "flap",
            "cpu",
            TemporalRule::hold_timer(180),
            JoinLevel::Router,
            100,
        ));
        g.add_rule(DiagnosisRule::new(
            "flap",
            "iface-flap",
            TemporalRule::hold_timer(180),
            JoinLevel::Interface,
            180,
        ));
        g.add_rule(DiagnosisRule::new(
            "iface-flap",
            "sonet",
            TemporalRule::symmetric(10),
            JoinLevel::PhysicalLink,
            200,
        ));
        let sess = &topo.sessions[0];
        let mut instances = Vec::new();
        for k in 0..500i64 {
            let base = k * 400;
            instances.push(EventInstance::new(
                "flap",
                w(base + 100, base + 160),
                Location::RouterNeighborIp {
                    router: sess.pe,
                    neighbor: sess.neighbor_ip,
                },
            ));
            instances.push(EventInstance::new(
                "iface-flap",
                w(base + 60, base + 70),
                Location::Interface(sess.iface),
            ));
            instances.push(EventInstance::new(
                "cpu",
                w(base + 90, base + 95),
                Location::Router(sess.pe),
            ));
        }
        let mut store = EventStore::new();
        store.add(instances);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let symptoms = store.instances("flap").to_vec();
        let mut i = 0;
        group.bench_function("diagnose", |b| {
            b.iter(|| {
                let s = &symptoms[i % symptoms.len()];
                i += 1;
                black_box(engine.diagnose(s))
            })
        });
    }

    // candidates: index-driven cut over a 100k-instance name.
    {
        let mut instances = Vec::new();
        for k in 0..100_000i64 {
            instances.push(EventInstance::new(
                "syslog",
                w(k * 10, k * 10 + 5),
                Location::Router(RouterId::new((k % 50) as u32)),
            ));
        }
        let mut store = EventStore::new();
        store.add(instances);
        let mut t = 0i64;
        group.bench_function("candidates", |b| {
            b.iter(|| {
                t = (t + 7919) % 999_000;
                black_box(store.candidates("syslog", w(t, t + 60), Duration::secs(185)))
            })
        });
    }

    // finalize: merge a sorted batch into an already-finalized table —
    // the per-cycle ingest cost the suffix-merge finalize targets. Two
    // arrival patterns: append-only (new batch entirely after the prefix)
    // and overlapping (late rows interleave with the sorted prefix).
    {
        use grca_collector::{FlatTable, PerfRow};
        use grca_net_model::RouterId as Rid;
        let mk_row = |t: i64| PerfRow {
            utc: Timestamp(t),
            ingress: Rid::new(0),
            egress: Rid::new(1),
            metric: grca_telemetry::records::PerfMetric::LossPct,
            value: 0.5,
        };
        let base: Vec<_> = (0..100_000i64).map(|k| mk_row(k * 10)).collect();
        for (name, batch_at) in [
            ("finalize_append", 1_000_000i64),
            ("finalize_overlap", 995_000),
        ] {
            let batch: Vec<_> = (0..1_000i64).map(|k| mk_row(batch_at + k * 10)).collect();
            let mut proto = FlatTable::default();
            for r in &base {
                proto.push(r.clone());
            }
            proto.finalize();
            group.bench_function(name, |b| {
                b.iter_batched(
                    || proto.clone(),
                    |mut t| {
                        for r in &batch {
                            t.push(r.clone());
                        }
                        t.finalize();
                        black_box(t.len())
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }

    // incremental extract, steady state: one simulated day of the BGP study
    // in 64-row segments (every table many sealed runs deep), the BGP
    // application's definitions. The warm call collects every sealed run
    // into the extractor's memo; the timed calls are what a polling cycle
    // pays over settled history — the tail and the finish, no decode.
    {
        use grca_collector::{Database, IngestStats, StorageConfig};
        use grca_events::{bgp_app_events, knowledge_library, ExtractCx, IncrementalExtractor};
        use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
        let mut cfg = ScenarioConfig::new(1, 41, FaultRates::bgp_study());
        cfg.background.emit_baseline = true;
        let records = run_scenario(&topo, &cfg).records;
        let mut db = Database::with_storage(&StorageConfig {
            segment_rows: 64,
            ..Default::default()
        });
        db.ingest_more(&topo, &records, &mut IngestStats::default());
        let sealed = db.storage_stats().expect("segmented").sealed_segments;
        assert!(sealed >= 40, "only {sealed} sealed runs");
        let mut defs = knowledge_library();
        defs.extend(bgp_app_events());
        let mut inc = IncrementalExtractor::new(defs);
        let cx = ExtractCx::new(&topo, &db, None);
        let warm = inc.extract(&cx).total();
        group.bench_function("incremental_extract_steady_state", |b| {
            b.iter(|| {
                let store = inc.extract(&cx);
                assert_eq!(store.total(), warm);
                black_box(store)
            })
        });
    }

    // oracle cache-hit: the sharded read path on a warm cache.
    {
        let rs = RoutingState::baseline(&topo);
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        assert!(!rs.path_routers(a, b, Timestamp(0)).is_empty());
        group.bench_function("oracle_cache_hit", |bch| {
            bch.iter(|| black_box(rs.path_routers(a, b, Timestamp(0))))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
