//! The dedup fingerprint is tested, not assumed: a collision is a record
//! silently dropped as a re-delivery, and a field left out of the hash is a
//! collision between every pair of records that differ only there.

use grca_collector::record_fingerprint;
use grca_net_model::{Ipv4, Prefix, TierConfig};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca_telemetry::records::*;
use grca_types::{Duration, Timestamp};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// A record's identity by other means: two keyed SipHash passes over its
/// `Debug` rendering, which prints every field (the `f64`s in round-trip
/// form) and owes nothing to the fingerprint's field list or hasher.
fn identity(rec: &RawRecord) -> u128 {
    let text = format!("{rec:?}");
    let half = |key: u64| {
        let mut h = DefaultHasher::new();
        (key, &text).hash(&mut h);
        h.finish()
    };
    (half(1) as u128) << 64 | half(2) as u128
}

/// One `tier1` day and the three default-preset 7-day study scenarios —
/// the benchmark's record population. No two distinct records share a
/// fingerprint, nor even one 64-bit half of one: each half is one lane's
/// digest, so a lane that stopped mixing shows here long before the pair
/// collides.
#[test]
fn no_collisions_over_the_study_and_tier1_record_population() {
    let mut by_fp: HashMap<u128, u128> = HashMap::new();
    let mut halves: [HashSet<u64>; 2] = Default::default();
    let mut absorb = |records: &[RawRecord]| {
        for rec in records {
            let (fp, id) = (record_fingerprint(rec), identity(rec));
            match by_fp.entry(fp) {
                // The simulator does emit the same record twice now and then.
                Entry::Occupied(held) => assert_eq!(*held.get(), id, "collision on {rec:?}"),
                Entry::Vacant(slot) => {
                    slot.insert(id);
                    assert!(halves[0].insert((fp >> 64) as u64), "high half: {rec:?}");
                    assert!(halves[1].insert(fp as u64), "low half: {rec:?}");
                }
            }
        }
    };
    let tier = TierConfig::default_preset();
    let topo = tier.generate();
    let studies = [
        FaultRates::bgp_study(),
        FaultRates::cdn_study(),
        FaultRates::pim_study(),
    ];
    for (seed, rates) in studies.into_iter().enumerate() {
        let mut cfg = ScenarioConfig::new(7, 3 + seed as u64, rates);
        cfg.background.probe_fanout = tier.probe_fanout;
        absorb(&run_scenario(&topo, &cfg).records);
    }
    let tier = TierConfig::tier1();
    let topo = tier.generate();
    let mut cfg = ScenarioConfig::new(1, 2026, FaultRates::bgp_study());
    cfg.background.probe_fanout = tier.probe_fanout;
    cfg.background.snmp_baseline_bin = Duration::hours(6);
    cfg.background.perf_baseline_bin = Duration::hours(6);
    cfg.background.cdn_baseline_bin = Duration::hours(6);
    absorb(&run_scenario(&topo, &cfg).records);

    let distinct: HashSet<u128> = by_fp.values().copied().collect();
    assert_eq!(distinct.len(), by_fp.len(), "one record, two fingerprints");
    assert!(by_fp.len() > 590_000, "only {} records", by_fp.len());
}

fn t(s: i64) -> Timestamp {
    Timestamp::from_unix(1_262_304_000 + s)
}

/// One record of every feed, each followed by copies that differ from it
/// in exactly one field — every field in turn.
fn one_field_apart() -> Vec<Vec<RawRecord>> {
    let syslog = SyslogLine {
        host: "nyc-per1".into(),
        line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
    };
    let snmp = SnmpSample {
        system: "NYC-PER1.ISP.NET".into(),
        local_time: t(0),
        metric: SnmpMetric::LinkUtil5m,
        if_index: Some(3),
        value: 42.0,
    };
    let l1 = L1LogRecord {
        device: "adm-nyc-1".into(),
        local_time: t(0),
        kind: L1EventKind::SonetRestoration,
        circuit: "CKT-NYC-CHI-0042".into(),
    };
    let ospf = OspfMonRecord {
        utc: t(0),
        link_addr: Ipv4::new(10, 0, 0, 1),
        weight: Some(10),
    };
    let bgp = BgpMonRecord {
        utc: t(0),
        reflector: "rr1".into(),
        prefix: Prefix::new(Ipv4::new(192, 0, 2, 0), 24),
        egress_router: "nyc-per1".into(),
        attrs: Some((100, 3)),
    };
    let tacacs = TacacsRecord {
        local_time: t(0),
        router: "nyc-per1".into(),
        user: "netops".into(),
        command: "show ip bgp summary".into(),
    };
    let workflow = WorkflowRecord {
        local_time: t(0),
        router: "nyc-per1".into(),
        activity: "provision-customer-port".into(),
    };
    let perf = PerfRecord {
        utc: t(0),
        ingress_router: "nyc-per1".into(),
        egress_router: "chi-per1".into(),
        metric: PerfMetric::DelayMs,
        value: 25.0,
    };
    let cdn = CdnMonRecord {
        utc: t(0),
        node: "cdn-nyc".into(),
        client_addr: Ipv4::new(198, 51, 100, 7),
        rtt_ms: 30.0,
        throughput_mbps: 80.0,
    };
    let server = ServerLogRecord {
        local_time: t(0),
        node: "cdn-nyc".into(),
        load: 0.5,
    };
    // `vary!(Variant, base; field = value, ...)`: the base record, then one
    // copy per listed field with only that field replaced.
    macro_rules! vary {
        ($variant:ident, $base:expr; $($field:ident = $value:expr),+ $(,)?) => {
            vec![
                RawRecord::$variant($base.clone()),
                $(RawRecord::$variant({
                    let mut r = $base.clone();
                    r.$field = $value;
                    r
                })),+
            ]
        };
    }
    vec![
        vary!(Syslog, syslog;
            host = "nyc-per2".into(),
            line = "2010-01-01 04:00:01 %SYS-5-RESTART: System restarted".into()),
        vary!(Snmp, snmp;
            system = "NYC-PER2.ISP.NET".into(), local_time = t(300),
            metric = SnmpMetric::OverflowPkts5m, if_index = None, value = 42.5),
        vary!(L1Log, l1;
            device = "adm-nyc-2".into(), local_time = t(1),
            kind = L1EventKind::MeshFastRestoration, circuit = "CKT-NYC-CHI-0043".into()),
        vary!(OspfMon, ospf;
            utc = t(1), link_addr = Ipv4::new(10, 0, 0, 5), weight = None),
        vary!(BgpMon, bgp;
            utc = t(1), reflector = "rr2".into(),
            prefix = Prefix::new(Ipv4::new(192, 0, 2, 0), 25),
            egress_router = "nyc-per2".into(), attrs = None),
        vary!(Tacacs, tacacs;
            local_time = t(1), router = "nyc-per2".into(), user = "noc".into(),
            command = "show ip bgp summarx".into()),
        vary!(Workflow, workflow;
            local_time = t(1), router = "nyc-per2".into(), activity = "reboot".into()),
        vary!(Perf, perf;
            utc = t(300), ingress_router = "chi-per1".into(), egress_router = "nyc-per1".into(),
            metric = PerfMetric::LossPct, value = -25.0),
        vary!(CdnMon, cdn;
            utc = t(300), node = "cdn-chi".into(), client_addr = Ipv4::new(198, 51, 100, 8),
            rtt_ms = 80.0, throughput_mbps = 30.0),
        vary!(ServerLog, server;
            local_time = t(300), node = "cdn-chi".into(),
            load = f64::from_bits(0.5f64.to_bits() + 1)),
    ]
}

/// Changing any one field of any feed's record changes the fingerprint,
/// and records of different feeds never share one.
#[test]
fn every_field_of_every_feed_reaches_the_fingerprint() {
    let families = one_field_apart();
    let fields: usize = families.iter().map(|f| f.len() - 1).sum();
    assert_eq!(fields, 2 + 5 + 4 + 3 + 5 + 4 + 3 + 5 + 5 + 3);
    let all: Vec<&RawRecord> = families.iter().flatten().collect();
    let distinct: HashSet<u128> = all.iter().map(|r| record_fingerprint(r)).collect();
    assert_eq!(distinct.len(), all.len(), "a field does not reach the hash");
}

/// Bytes moved across the boundary between two adjacent strings make a
/// different record, so they must make a different fingerprint: every
/// string is fed with its length and `str`'s terminator.
#[test]
fn adjacent_strings_cannot_trade_bytes() {
    let syslog = |host: &str, line: &str| {
        record_fingerprint(&RawRecord::Syslog(SyslogLine {
            host: host.into(),
            line: line.into(),
        }))
    };
    assert_ne!(syslog("ab", "c 2010"), syslog("a", "bc 2010"));
    assert_ne!(syslog("ab", ""), syslog("", "ab"));
    // Zero padding of the last word is not content.
    assert_ne!(syslog("ab", "c"), syslog("ab\0", "c"));
    assert_ne!(syslog("abcdefg", "h"), syslog("abcdefg\0", "h"));
    let tacacs = |router: &str, user: &str, command: &str| {
        record_fingerprint(&RawRecord::Tacacs(TacacsRecord {
            local_time: t(0),
            router: router.into(),
            user: user.into(),
            command: command.into(),
        }))
    };
    let base = tacacs("nyc-per1", "netops", "show run");
    assert_ne!(base, tacacs("nyc-per", "1netops", "show run"));
    assert_ne!(base, tacacs("nyc-per1", "netop", "sshow run"));
    assert_ne!(base, tacacs("nyc-per1n", "etops", "show run"));
}

/// The value is persisted in the seen log and compared across processes,
/// so it is part of the on-disk format: a change that moves this constant
/// must also bump `MANIFEST_VERSION`, or a restored pipeline would dedup
/// against fingerprints that mean nothing to it.
#[test]
fn fingerprint_of_a_known_record_is_pinned() {
    let rec = RawRecord::Syslog(SyslogLine {
        host: "nyc-per1".into(),
        line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
    });
    assert_eq!(
        record_fingerprint(&rec),
        0xadf5_0b78_7ebe_2b55_78f1_2f2a_1ce3_f3b5
    );
}
