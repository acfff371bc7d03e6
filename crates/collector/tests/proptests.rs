//! Property-based tests: normalization is the exact inverse of each feed's
//! clock/naming conventions, and table queries agree with full scans.

use grca_collector::Database;
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
        let mut stats = grca_collector::IngestStats::default();
        db2.ingest_more(&topo, half, &mut stats);
        db2.ingest_more(&topo, rest, &mut stats);
        prop_assert_eq!(db2.syslog.len(), db.syslog.len());
        prop_assert_eq!(db2.syslog.range(w).len(), via_range);
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
