//! E11 — Data Collector normalization throughput.
//!
//! The paper's deployment ingests ~600 sources / ~7 TB per day; we report
//! records/second on the synthetic feeds (mixed syslog + SNMP + monitors)
//! so the scale claim can be translated: records-per-day capacity =
//! throughput × 86400. Two shapes of the one `ingest_more`: a bulk ingest
//! into flat tables (the batch studies) and the same records streamed in
//! hourly micro-batches into segmented storage with 12 h retention (the
//! online soak: seals and retention cuts between batches), plus the
//! fingerprint on its own.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use grca_collector::{record_fingerprint, Database, IngestStats, StorageConfig};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_simnet::{run_scenario, FaultRates, FeedChaos, MicroBatches, ScenarioConfig};
use grca_types::{Duration, Timestamp};
use std::hint::black_box;

fn bench_ingest(c: &mut Criterion) {
    let topo = generate(&TopoGenConfig::default());
    let cfg = ScenarioConfig::new(7, 3, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let records = out.records;
    let hourly = MicroBatches::from_keyed(
        records.clone(),
        &out.delivery,
        cfg.start,
        cfg.end(),
        Duration::hours(1),
    );
    let clocks: Vec<Timestamp> = (0..hourly.cycles()).map(|i| hourly.clock(i)).collect();
    let hourly = FeedChaos::new(0).deliver_owned(hourly);

    let mut g = c.benchmark_group("collector");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.sample_size(20);
    g.bench_function(format!("ingest_{}_records", records.len()), |b| {
        b.iter_batched(
            || records.clone(),
            |recs| black_box(Database::ingest(&topo, &recs)),
            BatchSize::LargeInput,
        )
    });

    g.bench_function("ingest_streamed_segmented", |b| {
        b.iter(|| {
            let mut db = Database::with_storage(&StorageConfig::default());
            let mut stats = IngestStats::default();
            for (batch, &now) in hourly.iter().zip(&clocks) {
                db.ingest_more(&topo, batch, &mut stats);
                db.retain_before(now - Duration::hours(12));
            }
            assert_eq!(stats.total_input(), records.len());
            black_box(db.total_rows())
        })
    });
    g.bench_function("fingerprint_only", |b| {
        b.iter(|| {
            let fold = |acc, rec| acc ^ record_fingerprint(black_box(rec));
            black_box(records.iter().fold(0u128, fold))
        })
    });

    // Range-query latency on the populated database.
    let (db, _) = Database::ingest(&topo, &records);
    let w = grca_types::TimeWindow::new(
        cfg.start + grca_types::Duration::days(2),
        cfg.start + grca_types::Duration::days(2) + grca_types::Duration::mins(10),
    );
    g.bench_function("syslog_range_query_10min", |b| {
        b.iter(|| black_box(db.syslog.range(w).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
