//! Property-based tests for transition pairing, threshold merging and the
//! event-store index, exercised through the public extraction interface —
//! and for the incremental extractor's equality with batch extraction over
//! segmented storage, whatever the segment size and however the stream is
//! cut into cycles.

use grca_collector::{Database, IngestStats, StorageConfig};
use grca_events::{
    bgp_app_events, cdn_app_events, extract, extract_all, knowledge_library, names, pim_app_events,
    EventDefinition, ExtractCx, IncrementalExtractor, Retrieval, StateSel,
};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{LocationType, Topology};
use grca_telemetry::records::{RawRecord, SnmpMetric, SnmpSample, SyslogLine};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{TimeZone, Timestamp};
use proptest::prelude::*;

fn topo() -> Topology {
    generate(&TopoGenConfig::small())
}

/// Test epoch inside the collector's clock-plausibility window (records
/// stamped near unix 0 would be quarantined as implausible).
const BASE: i64 = 1_600_000_000;

/// Build raw syslog lines for a sequence of (time, up) transitions on one
/// interface of one router.
fn transition_records(topo: &Topology, seq: &[(i64, bool)]) -> Vec<RawRecord> {
    let router = topo.router_by_name("nyc-per1").unwrap();
    let ifc = topo.interfaces.iter().find(|i| i.router == router).unwrap();
    let tz = topo.router_tz(router);
    seq.iter()
        .map(|&(t, up)| {
            let ev = SyslogEvent::LinkUpDown {
                iface: ifc.name.clone(),
                up,
            };
            RawRecord::Syslog(SyslogLine {
                host: "nyc-per1".into(),
                line: ev.format_line(tz.to_local(Timestamp::from_unix(t))),
            })
        })
        .collect()
}

fn def(sel: StateSel) -> EventDefinition {
    EventDefinition::new(
        match sel {
            StateSel::Down => names::INTERFACE_DOWN,
            StateSel::Up => names::INTERFACE_UP,
            StateSel::Flap => names::INTERFACE_FLAP,
        },
        LocationType::Interface,
        Retrieval::InterfaceState(sel),
        "t",
        "syslog",
    )
}

proptest! {
    /// For any transition sequence: #downs and #ups extract exactly; every
    /// flap starts at a down and ends at the first up at/after it; flap
    /// count never exceeds min(#downs paired within the gap).
    #[test]
    fn pairing_invariants(seq in proptest::collection::vec((0i64..200_000, any::<bool>()), 0..40)) {
        let seq: Vec<(i64, bool)> = seq.into_iter().map(|(t, u)| (BASE + t, u)).collect();
        let topo = topo();
        let recs = transition_records(&topo, &seq);
        let (db, _) = Database::ingest(&topo, &recs);
        let cx = ExtractCx::new(&topo, &db, None);
        let downs = extract(&def(StateSel::Down), &cx);
        let ups = extract(&def(StateSel::Up), &cx);
        let flaps = extract(&def(StateSel::Flap), &cx);
        let n_down = seq.iter().filter(|(_, up)| !up).count();
        let n_up = seq.iter().filter(|(_, up)| *up).count();
        prop_assert_eq!(downs.len(), n_down);
        prop_assert_eq!(ups.len(), n_up);
        prop_assert!(flaps.len() <= n_down);
        // Sorted up instants for verification.
        let mut up_times: Vec<i64> = seq.iter().filter(|(_, u)| *u).map(|(t, _)| *t).collect();
        up_times.sort();
        for f in &flaps {
            prop_assert!(f.window.start <= f.window.end);
            // The flap end is the first up at or after the start.
            let first_up = up_times
                .iter()
                .find(|&&u| u >= f.window.start.unix())
                .copied();
            prop_assert_eq!(Some(f.window.end.unix()), first_up);
        }
        // Every down with an up within the pairing gap produced a flap.
        let expected = seq
            .iter()
            .filter(|(t, u)| {
                !u && up_times
                    .iter()
                    .any(|&x| x >= *t && x - t <= 7200)
            })
            .count();
        prop_assert_eq!(flaps.len(), expected);
    }

    /// SNMP threshold extraction: events cover exactly the qualifying
    /// samples, merged when adjacent.
    #[test]
    fn threshold_merging(values in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        let topo = topo();
        let router = topo.router_by_name("nyc-per1").unwrap();
        let recs: Vec<RawRecord> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                RawRecord::Snmp(SnmpSample {
                    system: topo.router(router).snmp_name().into(),
                    local_time: TimeZone::US_EASTERN
                        .to_local(Timestamp::from_unix(BASE + 300 * i as i64)),
                    metric: SnmpMetric::CpuUtil5m,
                    if_index: None,
                    value: v,
                })
            })
            .collect();
        let (db, _) = Database::ingest(&topo, &recs);
        let cx = ExtractCx::new(&topo, &db, None);
        let d = EventDefinition::new(
            names::CPU_HIGH_AVERAGE,
            LocationType::Router,
            Retrieval::SnmpThreshold { metric: SnmpMetric::CpuUtil5m, min: 80.0 },
            "t",
            "snmp",
        );
        let events = extract(&d, &cx);
        // Number of events equals the number of maximal runs of
        // qualifying samples (gap merging at 10 min covers two adjacent
        // 5-minute bins).
        let mut runs = 0;
        let mut in_run = false;
        for &v in &values {
            let q = v >= 80.0;
            if q && !in_run {
                runs += 1;
            }
            in_run = q;
        }
        prop_assert_eq!(events.len(), runs);
        // Every qualifying sample instant is inside some event window.
        for (i, &v) in values.iter().enumerate() {
            if v >= 80.0 {
                let t = Timestamp::from_unix(BASE + 300 * i as i64);
                prop_assert!(
                    events.iter().any(|e| e.window.contains(t)),
                    "sample {} uncovered", i
                );
            }
        }
    }
}

/// One simulated day of the BGP study over the small topology, generated
/// once: the property below varies how it is stored and delivered.
fn bgp_day() -> &'static (Topology, Vec<RawRecord>) {
    static DAY: std::sync::OnceLock<(Topology, Vec<RawRecord>)> = std::sync::OnceLock::new();
    DAY.get_or_init(|| {
        let topo = topo();
        let mut cfg = grca_simnet::ScenarioConfig::new(1, 31, grca_simnet::FaultRates::bgp_study());
        cfg.background.emit_baseline = true;
        let records = grca_simnet::run_scenario(&topo, &cfg).records;
        (topo, records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the segment size, wherever the stream is cut into cycles,
    /// whichever slice arrives late (reseals) and whether or not sealed
    /// history is dropped on the way: one incremental extractor's store
    /// equals batch extraction over the same database after every cycle.
    #[test]
    fn incremental_equals_batch_for_any_chunking_and_segment_size(
        segment_rows in 8usize..200,
        cuts in proptest::collection::vec(0.0f64..1.0, 1..7),
        late in (0.0f64..0.7, 0.01f64..0.1),
        retain in any::<bool>(),
    ) {
        let (topo, records) = bgp_day();
        let n = records.len();
        let mut stream = records.clone();
        let lo = (late.0 * n as f64) as usize;
        let held: Vec<RawRecord> = stream.drain(lo..lo + (late.1 * n as f64) as usize).collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|f| (f * stream.len() as f64) as usize).collect();
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();

        let mut defs = knowledge_library();
        defs.extend(bgp_app_events());
        defs.extend(cdn_app_events(Vec::new()));
        defs.extend(pim_app_events());
        let mut inc = IncrementalExtractor::new(defs.clone());
        let mut db = Database::with_storage(&StorageConfig {
            segment_rows,
            cache_segments: 2,
            spill_dir: None,
            durable: false,
        });
        let mut stats = IngestStats::default();
        let cycles = cuts.len() - 1;
        for (cycle, w) in cuts.windows(2).enumerate() {
            db.ingest_more(topo, &stream[w[0]..w[1]], &mut stats);
            if cycle == cycles / 2 {
                // The held-back slice lands behind rows delivered since.
                db.ingest_more(topo, &held, &mut stats);
            }
            let cx = ExtractCx::new(topo, &db, None);
            prop_assert!(inc.extract(&cx) == extract_all(&defs, &cx), "cycle {}", cycle);
            if retain && cycle == cycles / 2 {
                let newest = db.feed_watermarks()[1].1.expect("snmp delivered");
                db.retain_before(newest - grca_types::Duration::hours(6));
            }
        }
        let sealed = db.storage_stats().expect("segmented").sealed_segments;
        prop_assert!(sealed > 0, "nothing sealed: the case exercised no memo");
    }
}

/// Promoted proptest regression (`proptests.proptest-regressions`,
/// `8c43fd3e…`, shrunk to `values = [84.17…, 0.0, 87.60…]`).
///
/// Three 5-minute CPU samples at t = 0 / 300 / 600 s: the first and third
/// qualify (≥ 80%), the middle does not. The two qualifying samples are
/// 600 s apart — *within* a naive "merge anything ≤ 2 × bin" gap — but the
/// disqualifying sample between them means they are two separate maximal
/// runs and must extract as **two** events, not one merged event. The
/// original merge used a gap wide enough to jump the hole; the fix set
/// `MERGE_GAP` to 330 s (one bin plus slack), which merges adjacent
/// qualifying bins (300 s apart) but never bridges a disqualifying bin.
#[test]
fn regression_threshold_merge_must_not_bridge_disqualifying_sample() {
    let topo = topo();
    let router = topo.router_by_name("nyc-per1").unwrap();
    let values = [84.17096651029743, 0.0, 87.60907424575326];
    let recs: Vec<RawRecord> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            RawRecord::Snmp(SnmpSample {
                system: topo.router(router).snmp_name().into(),
                local_time: TimeZone::US_EASTERN
                    .to_local(Timestamp::from_unix(BASE + 300 * i as i64)),
                metric: SnmpMetric::CpuUtil5m,
                if_index: None,
                value: v,
            })
        })
        .collect();
    let (db, _) = Database::ingest(&topo, &recs);
    let cx = ExtractCx::new(&topo, &db, None);
    let d = EventDefinition::new(
        names::CPU_HIGH_AVERAGE,
        LocationType::Router,
        Retrieval::SnmpThreshold {
            metric: SnmpMetric::CpuUtil5m,
            min: 80.0,
        },
        "t",
        "snmp",
    );
    let events = extract(&d, &cx);
    assert_eq!(
        events.len(),
        2,
        "disqualifying middle sample must split the run: {events:?}"
    );
    assert!(events[0].window.contains(Timestamp::from_unix(BASE)));
    assert!(events[1].window.contains(Timestamp::from_unix(BASE + 600)));
}
