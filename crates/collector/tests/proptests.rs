//! Property-based tests: normalization is the exact inverse of each feed's
//! clock/naming conventions, and table queries agree with full scans.

use grca_collector::segment::{SegReader, SegWriter};
use grca_collector::{Database, IngestStats, Row, StorageConfig, StoredRow, Table};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{RouterId, Topology};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca_telemetry::records::{RawRecord, SnmpMetric, SnmpSample, SyslogLine};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{TimeWindow, TimeZone, Timestamp};
use proptest::prelude::*;

fn topo() -> Topology {
    generate(&TopoGenConfig::small())
}

proptest! {
    /// For any router and instant, a syslog line written in that router's
    /// device-local clock ingests back to the exact UTC instant.
    #[test]
    fn syslog_utc_inversion(router_idx in 0usize..16, unix in 631_200_000i64..4_000_000_000i64) {
        let topo = topo();
        let r = RouterId::from(router_idx % topo.routers.len());
        let name: std::sync::Arc<str> = topo.router(r).name.clone().into();
        let tz = topo.router_tz(r);
        let utc = Timestamp::from_unix(unix);
        let ev = SyslogEvent::Restart;
        let rec = RawRecord::Syslog(SyslogLine {
            host: name,
            line: ev.format_line(tz.to_local(utc)),
        });
        let (db, stats) = Database::ingest(&topo, &[rec]);
        prop_assert_eq!(stats.total_accepted(), 1);
        prop_assert_eq!(db.syslog.all()[0].utc, utc);
        prop_assert_eq!(db.syslog.all()[0].router, r);
    }

    /// SNMP samples stamped in provider network time ingest back to UTC,
    /// with system name and ifIndex resolved.
    #[test]
    fn snmp_utc_and_ifindex_inversion(
        router_idx in 0usize..16,
        unix in 631_200_000i64..4_000_000_000i64,
        value in 0.0f64..100.0,
    ) {
        let topo = topo();
        let r = RouterId::from(router_idx % topo.routers.len());
        // Pick this router's first interface, if any (reflectors have none).
        let iface = topo
            .interfaces
            .iter()
            .position(|i| i.router == r);
        let utc = Timestamp::from_unix(unix);
        let rec = RawRecord::Snmp(SnmpSample {
            system: topo.router(r).snmp_name().into(),
            local_time: TimeZone::US_EASTERN.to_local(utc),
            metric: SnmpMetric::LinkUtil5m,
            if_index: iface.map(|i| topo.interfaces[i].if_index),
            value,
        });
        let (db, stats) = Database::ingest(&topo, &[rec]);
        match iface {
            Some(i) => {
                prop_assert_eq!(stats.total_accepted(), 1);
                let row = &db.snmp.all()[0];
                prop_assert_eq!(row.utc, utc);
                prop_assert_eq!(row.router, r);
                prop_assert_eq!(row.iface.map(|x| x.index()), Some(i));
            }
            None => {
                // Router-level sample still accepted.
                prop_assert_eq!(stats.total_accepted(), 1);
            }
        }
    }

    /// Range queries equal a filtered full scan for arbitrary windows.
    #[test]
    fn range_query_equals_scan(
        times in proptest::collection::vec(0i64..100_000, 1..80),
        lo in 0i64..100_000,
        len in 0i64..50_000,
    ) {
        let topo = topo();
        let tz = topo.router_tz(RouterId::new(0));
        let name: std::sync::Arc<str> = topo.routers[0].name.clone().into();
        let recs: Vec<RawRecord> = times
            .iter()
            .map(|&t| {
                RawRecord::Syslog(SyslogLine {
                    host: name.clone(),
                    line: SyslogEvent::Restart.format_line(tz.to_local(Timestamp(t))),
                })
            })
            .collect();
        let (db, _) = Database::ingest(&topo, &recs);
        let w = TimeWindow::new(Timestamp(lo), Timestamp(lo + len));
        let via_range = db.syslog.range(w).len();
        let via_scan = db
            .syslog
            .all()
            .iter()
            .filter(|r| w.contains(r.utc))
            .count();
        prop_assert_eq!(via_range, via_scan);
        // And incremental ingest in two halves matches one-shot ingest.
        let (half, rest) = recs.split_at(recs.len() / 2);
        let mut db2 = Database::default();
        let mut stats = IngestStats::default();
        db2.ingest_more(&topo, half, &mut stats);
        db2.ingest_more(&topo, rest, &mut stats);
        prop_assert_eq!(db2.syslog.len(), db.syslog.len());
        prop_assert_eq!(db2.syslog.range(w).len(), via_range);
    }
}

/// A minimal stored row: entity `e`, payload `v` as the tiebreak.
#[derive(Debug, Clone, PartialEq)]
struct TRow {
    t: Timestamp,
    e: u32,
    v: u64,
}

impl Row for TRow {
    type Entity = u32;
    fn time(&self) -> Timestamp {
        self.t
    }
    fn entity(&self) -> u32 {
        self.e
    }
    fn tiebreak(&self) -> u64 {
        self.v
    }
}

impl StoredRow for TRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.varu(r.e as u64);
            w.varu(r.v);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        let row = |&t| TRow {
            t,
            e: r.varu() as u32,
            v: r.varu(),
        };
        times.iter().map(row).collect()
    }
}

const ENTITIES: u32 = 6;

/// One mutation of a table: a batch of `(time offset, entity, payload)`
/// rows that lands past the newest row, across it, or anywhere in the
/// history (late: a reseal on the segmented backend); a retention cut at a
/// fraction of the time span held; or the checkpoint barrier, which seals
/// a tail that the lookups after the previous step have indexed.
#[derive(Debug, Clone)]
enum Step {
    InOrder(Vec<(i64, u32, u64)>),
    Overlapping(Vec<(i64, u32, u64)>),
    Late(Vec<(i64, u32, u64)>),
    Retain(u8),
    SealAll,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let rows = proptest::collection::vec((0i64..40, 0..ENTITIES, 0u64..1000), 1..40);
    (0u8..10, rows, 0u8..100).prop_map(|(kind, rows, pct)| match kind {
        0..=3 => Step::InOrder(rows),
        4..=5 => Step::Overlapping(rows),
        6 => Step::Late(rows),
        7..=8 => Step::Retain(pct),
        _ => Step::SealAll,
    })
}

/// Every per-entity answer of `t` against a filter scan of `t.all()`.
fn assert_lookups_match_a_scan(t: &Table<TRow>, when: &str) {
    let all = t.all().to_vec();
    let scan = |e: u32| -> Vec<TRow> { all.iter().filter(|r| r.e == e).cloned().collect() };
    for e in 0..ENTITIES + 1 {
        let got: Vec<TRow> = t.rows_of(&e).iter().cloned().collect();
        assert_eq!(got, scan(e), "rows_of({e}) {when}");
        assert_eq!(t.rows_of(&e).len(), got.len(), "rows_of({e}).len() {when}");
    }
    let groups: Vec<(u32, Vec<TRow>)> = t
        .groups()
        .map(|(e, rows)| (e, rows.iter().cloned().collect()))
        .collect();
    let expect: Vec<(u32, Vec<TRow>)> = (0..ENTITIES)
        .map(|e| (e, scan(e)))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    assert_eq!(groups, expect, "groups() {when}");
    assert_eq!(t.entity_count(), expect.len(), "entity_count() {when}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-entity index is built by the first lookup and dropped by
    /// whatever moves rows, so no interleaving of ingest, sealing, reseals
    /// and retention with lookups may ever be answered from an index that
    /// describes rows as they used to be. Looked up after every step, on
    /// both backends, against a scan.
    #[test]
    fn lazy_entity_index_never_goes_stale(
        steps in proptest::collection::vec(step_strategy(), 4..16),
        segment_rows in 8usize..=64,
    ) {
        let mut tables = [
            Table::<TRow>::default(),
            Table::segmented(StorageConfig {
                segment_rows,
                cache_segments: 2,
                ..Default::default()
            }),
        ];
        for t in &mut tables {
            for (i, step) in steps.iter().enumerate() {
                let newest = t.last_time().map_or(0, |t| t.0);
                let batch = match step {
                    Step::InOrder(rows) => Some((newest, 1, rows)),
                    Step::Overlapping(rows) => Some(((newest - 20).max(0), 1, rows)),
                    Step::Late(rows) => Some((0, newest / 40 + 1, rows)),
                    Step::Retain(pct) => {
                        let oldest = t.all().first().map_or(0, |r| r.t.0);
                        let floor = oldest + (newest - oldest) * *pct as i64 / 100;
                        t.retain_before(Timestamp(floor));
                        None
                    }
                    Step::SealAll => {
                        t.seal_all();
                        None
                    }
                };
                if let Some((base, span, rows)) = batch {
                    for &(dt, e, v) in rows {
                        t.push(TRow { t: Timestamp(base + dt * span), e, v });
                    }
                    t.finalize();
                }
                assert_lookups_match_a_scan(t, &format!("after step {i} ({step:?})"));
            }
        }
    }
}

/// Deterministic per-index corruption covering every decoder's failure
/// modes: truncated/garbled syslog, ghost entities, non-finite samples,
/// empty workflow activity.
fn corrupt(rec: &mut RawRecord, i: usize) {
    match rec {
        RawRecord::Syslog(s) => match i % 3 {
            0 => {
                let mut cut = s.line.len() / 2;
                while !s.line.is_char_boundary(cut) {
                    cut -= 1;
                }
                s.line.truncate(cut);
            }
            1 => s.host = format!("ghost{i}").into(),
            _ => s.line = format!("garbage #{i}"),
        },
        RawRecord::Snmp(s) => s.value = f64::NAN,
        RawRecord::Perf(p) => p.value = f64::INFINITY,
        RawRecord::CdnMon(c) => c.rtt_ms = f64::NAN,
        RawRecord::ServerLog(s) => s.load = -f64::NAN,
        RawRecord::Workflow(w) => w.activity = "".into(),
        RawRecord::Tacacs(t) => t.router = format!("ghost{i}").into(),
        _ => {}
    }
}

proptest! {
    // Whole-scenario cases are expensive; a handful of seeds is plenty.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzz the whole ingest pipeline: batches with duplicated and
    /// corrupted records never panic, and the statistics account for every
    /// input record exactly once —
    /// `accepted + quarantined + deduplicated == input`.
    #[test]
    fn mutated_batches_account_exactly(
        seed in 0u64..1_000,
        dup_period in 2usize..9,
        corrupt_period in 2usize..9,
    ) {
        let topo = topo();
        let cfg = ScenarioConfig::new(1, seed, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let mut records = Vec::new();
        for (i, rec) in out.records.iter().enumerate() {
            let mut rec = rec.clone();
            if i % corrupt_period == 0 {
                corrupt(&mut rec, i);
            }
            records.push(rec.clone());
            if i % dup_period == 0 {
                records.push(rec);
            }
        }
        let (db, stats) = Database::ingest(&topo, &records);
        prop_assert_eq!(stats.total_input(), records.len());
        prop_assert_eq!(
            stats.total_accepted() + stats.total_quarantined() + stats.total_deduplicated(),
            records.len()
        );
        prop_assert_eq!(db.quarantine.len(), stats.total_quarantined());
    }

    /// A chaotic delivery — every `dup_period`-th record delivered twice,
    /// the whole stream reordered by a stride permutation — ingests to a
    /// database byte-identical to a clean ingest of the
    /// original stream: canonical table ordering plus content-hash dedup
    /// make ingestion delivery-order independent.
    #[test]
    fn chaotic_delivery_matches_clean_ingest(
        seed in 0u64..1_000,
        dup_period in 2usize..9,
        stride in 2usize..17,
    ) {
        let topo = topo();
        let cfg = ScenarioConfig::new(1, seed, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let mut records = Vec::new();
        for (i, rec) in out.records.iter().enumerate() {
            records.push(rec.clone());
            if i % dup_period == 0 {
                records.push(rec.clone());
            }
        }
        let mut delivery = Vec::with_capacity(records.len());
        for off in 0..stride {
            delivery.extend(records.iter().skip(off).step_by(stride).cloned());
        }
        let dup_count = delivery.len() - out.records.len();
        let (db_chaotic, st) = Database::ingest(&topo, &delivery);
        let (db_clean, st_clean) = Database::ingest(&topo, &out.records);
        prop_assert!(
            db_chaotic == db_clean,
            "chaotic delivery diverged from clean ingest (seed={seed}, stride={stride})"
        );
        prop_assert_eq!(st.total_accepted(), st_clean.total_accepted());
        prop_assert_eq!(st.total_deduplicated(), dup_count);
        prop_assert_eq!(st.total_quarantined(), st_clean.total_quarantined());
    }
}

/// Distances at which [`redelivered_day`] repeats a record: inside one
/// 256-record ingest block, and across one or two block boundaries.
const DUP_DISTANCES: [usize; 5] = [1, 255, 256, 257, 511];

/// A bgp-study day as a lossy transport delivers it: every 11th record
/// corrupted, and every 7th slot a re-delivery of the record one of
/// [`DUP_DISTANCES`] before it — a corrupted one now and then, so a reject
/// is quarantined and then deduplicated. Per slot, also the instant the
/// simulator delivered it at and whether it re-delivers a reject.
fn redelivered_day(seed: u64) -> (Vec<RawRecord>, Vec<Timestamp>, Vec<bool>) {
    let topo = topo();
    let out = run_scenario(
        &topo,
        &ScenarioConfig::new(1, seed, FaultRates::bgp_study()),
    );
    let mut stream: Vec<RawRecord> = Vec::new();
    let (mut delivered, mut corrupted, mut redelivered_reject) =
        (Vec::new(), Vec::new(), Vec::new());
    for (k, (rec, at)) in out.records.into_iter().zip(out.delivery).enumerate() {
        let d = DUP_DISTANCES[k / 7 % DUP_DISTANCES.len()];
        if k % 7 == 0 && k >= d {
            stream.push(stream[k - d].clone());
            delivered.push(delivered[k - d]);
            corrupted.push(corrupted[k - d]);
            redelivered_reject.push(corrupted[k - d]);
        } else {
            let mut rec = rec;
            if k % 11 == 0 {
                corrupt(&mut rec, k);
            }
            stream.push(rec);
            delivered.push(at);
            corrupted.push(k % 11 == 0);
            redelivered_reject.push(false);
        }
    }
    (stream, delivered, redelivered_reject)
}

/// Ingest `prefix`, age out history before `floor`, ingest `window`: each
/// part as one call, or one call per record.
fn ingest_around_a_floor(
    topo: &Topology,
    prefix: &[RawRecord],
    floor: Timestamp,
    window: &[RawRecord],
    per_record: bool,
) -> (Database, IngestStats) {
    let mut db = Database::default();
    let mut stats = IngestStats::default();
    let mut ingest = |db: &mut Database, part: &[RawRecord]| {
        if per_record {
            for rec in part {
                db.ingest_more(topo, std::slice::from_ref(rec), &mut stats);
            }
        } else {
            db.ingest_more(topo, part, &mut stats);
        }
    };
    ingest(&mut db, prefix);
    db.retain_before(floor);
    ingest(&mut db, window);
    (db, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Ingest claims a block's fingerprints before it normalizes any of
    /// them; one record per call makes every record a block of its own.
    /// Either way the result is the same: the database (rows, order,
    /// `seen`, quarantine, floor), the journal, and every counter. The
    /// window after the floor is each of 0, 1, 255, 256, 257 and 1,000
    /// records long, and holds re-deliveries from its own block, earlier
    /// blocks and the prefix, rejects quarantined and then re-delivered,
    /// and records older than the floor (expired).
    #[test]
    fn one_call_ingests_as_one_record_per_call(seed in 0u64..1_000, skip in 0usize..300) {
        let topo = topo();
        let (stream, delivered, redelivered_reject) = redelivered_day(seed);
        let (prefix, rest) = stream.split_at(600);
        // The prefix's median delivery: about half of it ages out.
        let mut times = delivered[..prefix.len()].to_vec();
        times.sort_unstable();
        let floor = times[times.len() / 2];
        for len in [0, 1, 255, 256, 257, 1_000] {
            let window = &rest[skip..skip + len];
            let (one, one_stats) = ingest_around_a_floor(&topo, prefix, floor, window, false);
            let (each, each_stats) = ingest_around_a_floor(&topo, prefix, floor, window, true);
            prop_assert!(one == each, "databases differ, window of {len}");
            prop_assert_eq!(one.seen_log(), each.seen_log(), "journals differ, window of {}", len);
            prop_assert_eq!(&one_stats, &each_stats, "counters differ, window of {}", len);
            if len == 1_000 {
                let s = &one_stats;
                prop_assert!(s.total_expired() > 0 && s.total_quarantined() > 0);
                prop_assert!(s.total_deduplicated() > 0 && s.syslog_unparsed > 0);
                let offset = prefix.len() + skip;
                let rejects = &redelivered_reject[offset..offset + len];
                prop_assert!(rejects.iter().any(|r| *r), "no re-delivered reject");
            }
        }
    }
}
