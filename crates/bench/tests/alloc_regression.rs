//! Allocation regression gates for the simnet record-generation hot
//! path, the collector's ingest path and steady-state incremental
//! extraction, measured with [`grca_bench::mem::CountingAlloc`] as this
//! test binary's global allocator.
//!
//! Every feed emitter on [`Sim`] is pinned to an allocs-per-emit
//! ceiling. Since telemetry names moved to interned `Arc<str>` handles
//! (cloned by refcount bump, never reallocated), most emitters allocate
//! nothing beyond the record bodies that genuinely vary per emit (a
//! formatted syslog line, a TACACS command string). A revert to
//! per-emit `String` clones of router/reflector/node names immediately
//! exceeds these bounds.

use grca_bench::mem::{alloc_snapshot, CountingAlloc};
use grca_collector::{Database, IngestStats, StorageConfig};
use grca_events::{bgp_app_events, knowledge_library, ExtractCx, IncrementalExtractor};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{CdnNodeId, ClientSiteId, InterfaceId, PhysLinkId, RouterId};
use grca_simnet::{FaultRates, ScenarioConfig, Sim};
use grca_telemetry::records::{L1EventKind, PerfMetric, SnmpMetric};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Duration, Timestamp};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `CountingAlloc` counts for the whole process and the test harness runs
/// tests on parallel threads, so one test's fixture setup would land in
/// another's measured window. Every test allocates only inside
/// [`measure`], which holds this lock from setup to the final snapshot.
static WINDOW: Mutex<()> = Mutex::new(());

const N: usize = 10_000;

/// Drive `emit` N times against a quiet small-topology sim and return
/// the measured allocations per emitted record. Sink buffers are
/// pre-sized so the measurement sees emission cost, not `Vec` doubling,
/// and one warmup emit runs outside the window so lazily-built state
/// (interned TACACS users, memoized session keys) is excluded. Emitters
/// read entity counts off `sim.topo` instead of generating a topology of
/// their own, which would allocate outside the lock.
fn measure<F: FnMut(&mut Sim, usize)>(mut emit: F) -> f64 {
    // The guarded value is `()`: a test that panicked in here left nothing
    // half-updated, so a poisoned lock is still good to take.
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 5, FaultRates::zero());
    let mut sim = Sim::new(&topo, &cfg);
    sim.records.reserve(4 * N);
    sim.keys.reserve(4 * N);
    emit(&mut sim, 0);
    let before = sim.records.len();
    let (allocs0, _) = alloc_snapshot();
    for i in 0..N {
        emit(&mut sim, i);
    }
    let (allocs1, _) = alloc_snapshot();
    let emitted = sim.records.len() - before;
    assert!(emitted >= N, "emitter produced no records");
    (allocs1 - allocs0) as f64 / emitted as f64
}

fn t0() -> Timestamp {
    Timestamp::from_civil(2010, 1, 1, 12, 0, 0)
}

#[test]
fn snmp_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let routers = sim.topo.routers.len();
        sim.snmp(
            RouterId::from(i % routers),
            t0(),
            SnmpMetric::CpuUtil5m,
            None,
            42.0,
        );
    });
    // The system name is an `Arc<str>` refcount bump, so the emit
    // itself allocates nothing. The pre-intern String clone sits near
    // 1/emit and per-call uppercase+format near 3/emit; both fail here.
    assert!(
        per_emit < 0.5,
        "snmp emission allocates {per_emit:.2}/record — name interning regressed"
    );
}

#[test]
fn syslog_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let routers = sim.topo.routers.len();
        sim.syslog(RouterId::from(i % routers), t0(), &SyslogEvent::Restart);
    });
    // Budget: the formatted line body only (nested format! plus growth
    // reallocs measure ~5/emit; host is an interned refcount bump). A
    // host String clone adds a full allocation and must fail here.
    assert!(
        per_emit < 5.8,
        "syslog emission allocates {per_emit:.2}/record — host interning regressed"
    );
}

#[test]
fn perf_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let routers = sim.topo.routers.len();
        sim.perf(
            RouterId::from(i % routers),
            RouterId::from((i + 1) % routers),
            t0(),
            PerfMetric::DelayMs,
            25.0,
        );
    });
    // Both endpoint names are interned: zero allocations per probe.
    assert!(
        per_emit < 0.5,
        "perf emission allocates {per_emit:.2}/record — endpoint interning regressed"
    );
}

#[test]
fn cdnmon_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let nodes = sim.topo.cdn_nodes.len();
        let sites = sim.topo.ext_nets.len();
        sim.cdnmon(
            CdnNodeId::from(i % nodes),
            ClientSiteId::from(i % sites),
            t0(),
            30.0,
            80.0,
        );
    });
    assert!(
        per_emit < 0.5,
        "cdnmon emission allocates {per_emit:.2}/record — node interning regressed"
    );
}

#[test]
fn bgpmon_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let routers = sim.topo.routers.len();
        let prefix = sim.topo.ext_nets[0].prefix;
        sim.bgpmon(
            t0(),
            prefix,
            RouterId::from(i % routers),
            Some((100, 65001)),
        );
    });
    // Two records per update (one per reflector); reflector and egress
    // names are interned, so per-record cost is zero. The old path
    // formatted "rr1"/"rr2" Strings per record and cloned the egress
    // name: ~2/record, which must fail here.
    assert!(
        per_emit < 0.5,
        "bgpmon emission allocates {per_emit:.2}/record — reflector interning regressed"
    );
}

#[test]
fn l1log_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let circuits = sim.topo.phys_links.len();
        sim.l1log(
            PhysLinkId::from(i % circuits),
            t0(),
            L1EventKind::SonetRestoration,
        );
    });
    // Device and circuit names are interned: zero allocations.
    assert!(
        per_emit < 0.5,
        "l1log emission allocates {per_emit:.2}/record — device interning regressed"
    );
}

#[test]
fn workflow_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let router = sim.names.routers[i % sim.names.routers.len()].clone();
        let activity = sim.names.activities[i % sim.names.activities.len()].clone();
        sim.workflow(router, t0(), activity);
    });
    // Caller hands in already-interned handles: zero allocations.
    assert!(
        per_emit < 0.5,
        "workflow emission allocates {per_emit:.2}/record — activity interning regressed"
    );
}

#[test]
fn tacacs_emission_stays_within_alloc_budget() {
    let per_emit = measure(|sim, i| {
        let routers = sim.topo.routers.len();
        sim.tacacs(
            RouterId::from(i % routers),
            t0(),
            "netops",
            "show ip bgp summary".to_string(),
        );
    });
    // One allocation for the command body the caller builds; the user
    // and router names are interned (the old path allocated a fresh
    // user String per entry on top of this).
    assert!(
        per_emit < 1.5,
        "tacacs emission allocates {per_emit:.2}/record — user interning regressed"
    );
}

/// The collector resolves names against the topology's own indexes, which
/// borrow the name: a micro-batch in which every record names a different
/// router costs nothing per name. What remains per record is the syslog
/// row's owned message body, plus each `ingest_more` call's finalize
/// scratch and amortized table growth.
#[test]
fn ingest_of_ever_new_names_stays_within_alloc_budget() {
    const BATCHES: usize = 200;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 5, FaultRates::zero());
    let mut sim = Sim::new(&topo, &cfg);
    let routers = topo.routers.len();
    // One SNMP sample and one syslog line per router per batch: no name
    // repeats within a feed within a call.
    for b in 0..BATCHES {
        let at = t0() + Duration::secs(300 * b as i64);
        for r in 0..routers {
            sim.snmp(RouterId::from(r), at, SnmpMetric::CpuUtil5m, None, 42.0);
            sim.syslog(RouterId::from(r), at, &SyslogEvent::Restart);
        }
    }
    let per_batch = 2 * routers;
    assert_eq!(sim.records.len(), BATCHES * per_batch);
    let mut db = Database::default();
    let mut stats = IngestStats::default();
    // The first batch pays the tables' and the fingerprint map's first growth.
    let (warmup, measured) = sim.records.split_at(per_batch);
    db.ingest_more(&topo, warmup, &mut stats);
    let (allocs0, _) = alloc_snapshot();
    for batch in measured.chunks(per_batch) {
        db.ingest_more(&topo, batch, &mut stats);
    }
    let (allocs1, _) = alloc_snapshot();
    assert_eq!(stats.total_accepted(), sim.records.len());
    let per_record = (allocs1 - allocs0) as f64 / measured.len() as f64;
    // Measures 0.56: half the records are syslog lines (one body each),
    // the rest is each call's two sort scratches over 32 records. A memo
    // keyed by owned names in front of the topology measured 2.31 here (a
    // key `String` per first sighting per call, a lower-cased copy per
    // SNMP miss, map growth); a lower-cased copy per SNMP sample alone
    // adds 0.5.
    assert!(
        per_record < 0.65,
        "ingest allocates {per_record:.2}/record — a per-name key or case-folded copy is back"
    );
}

/// The online path's shape: SNMP polls of every interface streamed into
/// 128-row segments, history aged out an hour behind, so nearly every call
/// seals a segment and drops one. A record costs its share of that seal
/// (the encoder's buffers, grown by doubling: some twenty allocations),
/// of the call's sort scratch and of its fingerprint-age bucket — not an
/// index of the tail. Rebuilding the per-entity index of the remaining
/// tail at every seal, as ingest did while it maintained one, is an
/// allocation per entity per seal.
#[test]
fn streamed_segmented_ingest_allocates_per_seal_not_per_entity() {
    const POLLS: usize = 120;
    const WARMUP: usize = 20;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 5, FaultRates::zero());
    let mut sim = Sim::new(&topo, &cfg);
    let poll_at = |p: usize| t0() + Duration::secs(300 * p as i64);
    for p in 0..POLLS {
        for (i, ifc) in topo.interfaces.iter().enumerate() {
            let (metric, iface) = (SnmpMetric::LinkUtil5m, Some(InterfaceId::from(i)));
            sim.snmp(ifc.router, poll_at(p), metric, iface, 40.0);
        }
    }
    let per_poll = topo.interfaces.len();
    assert_eq!(sim.records.len(), POLLS * per_poll);
    let mut db = Database::with_storage(&StorageConfig {
        segment_rows: 128,
        ..Default::default()
    });
    let mut stats = IngestStats::default();
    let mut allocs0 = 0;
    for (p, batch) in sim.records.chunks(per_poll).enumerate() {
        if p == WARMUP {
            allocs0 = alloc_snapshot().0;
        }
        db.ingest_more(&topo, batch, &mut stats);
        db.retain_before(poll_at(p) - Duration::hours(1));
    }
    let (allocs1, _) = alloc_snapshot();
    assert_eq!(stats.total_accepted(), sim.records.len());
    let storage = db.storage_stats().expect("segmented");
    let measured = (POLLS - WARMUP) * per_poll;
    assert!(
        storage.dropped_segments as usize > measured / 256 && storage.sealed_segments > 0,
        "seals and retention must fall inside the window: {storage:?}"
    );
    let per_record = (allocs1 - allocs0) as f64 / measured as f64;
    // Measures 0.24 at 110 records a call (26 allocations a call, one seal
    // each); with the tail re-indexed per seal it measured 1.22.
    assert!(
        per_record < 0.3,
        "streamed ingest allocates {per_record:.2}/record — something indexes the tail per seal"
    );
}

/// A polling cycle that ingests nothing should cost what the unsealed tail
/// and the finish cost, not what the retained history costs: the sealed
/// runs' contributions are memoized, so a steady-state `extract` decodes
/// nothing. Two hundred SNMP polls of every router (one in ten samples over
/// the CPU threshold) in 128-row segments is a table of well over twenty
/// sealed runs.
#[test]
fn steady_state_extract_allocations_do_not_scale_with_sealed_history() {
    const POLLS: usize = 200;
    const CALLS: usize = 20;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 5, FaultRates::zero());
    let mut sim = Sim::new(&topo, &cfg);
    for p in 0..POLLS {
        let at = t0() + Duration::secs(300 * p as i64);
        for r in 0..topo.routers.len() {
            let value = if (p + r) % 10 == 0 { 95.0 } else { 40.0 };
            sim.snmp(RouterId::from(r), at, SnmpMetric::CpuUtil5m, None, value);
        }
    }
    let mut db = Database::with_storage(&StorageConfig {
        segment_rows: 128,
        ..Default::default()
    });
    db.ingest_more(&topo, &sim.records, &mut IngestStats::default());
    let sealed = db.storage_stats().expect("segmented").sealed_segments;
    assert!(sealed >= 20, "only {sealed} sealed runs");

    let mut defs = knowledge_library();
    defs.extend(bgp_app_events());
    let mut inc = IncrementalExtractor::new(defs);
    let cx = ExtractCx::new(&topo, &db, None);
    let warm = inc.extract(&cx);
    assert!(warm.total() > 0, "no sample crossed the threshold");
    let decodes0 = db.storage_stats().expect("segmented").decodes;
    let (allocs0, _) = alloc_snapshot();
    for _ in 0..CALLS {
        let store = inc.extract(&cx);
        assert_eq!(store.total(), warm.total());
    }
    let (allocs1, _) = alloc_snapshot();
    let decodes = db.storage_stats().expect("segmented").decodes - decodes0;
    let per_call = (allocs1 - allocs0) / CALLS as u64;
    // Measures 133 a call (the finish merging the ~360 qualifying samples
    // out of the sorted parts, the store, the walk's bookkeeping) and no
    // decode; 205 while the SNMP finish grouped them in a tree per call,
    // 223 while the probe finish built one too. Re-reading the 27 sealed
    // runs every call measured 1364 a call and 27 decodes each.
    assert!(
        per_call < 260 && decodes == 0,
        "steady-state extract: {per_call} allocations a call, {decodes} decodes in {CALLS} \
         calls over {sealed} sealed runs — sealed history is being re-read"
    );
}

/// A stateful finish costs a few buffers per definition, not a node or a
/// vector per entity it judges: a metric's probe samples are grouped by
/// merging the parts' sorted runs, and one trailing baseline judges every
/// pair. Six polls of 600
/// probe pairs of the default topology (each past the baseline's
/// four-sample warm-up, none anomalous) in 128-row segments.
#[test]
fn steady_state_extract_allocations_do_not_scale_with_probe_pairs() {
    const PAIRS: usize = 600;
    const POLLS: usize = 6;
    const CALLS: usize = 20;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let topo = generate(&TopoGenConfig::default());
    let cfg = ScenarioConfig::new(1, 5, FaultRates::zero());
    let mut sim = Sim::new(&topo, &cfg);
    let routers = topo.routers.len();
    let pairs: Vec<(RouterId, RouterId)> = (0..routers * routers)
        .map(|i| (RouterId::from(i / routers), RouterId::from(i % routers)))
        .filter(|(a, b)| a != b)
        .take(PAIRS)
        .collect();
    assert_eq!(pairs.len(), PAIRS, "the topology has too few routers");
    for p in 0..POLLS {
        let at = t0() + Duration::secs(300 * p as i64);
        for &(ingress, egress) in &pairs {
            sim.perf(ingress, egress, at, PerfMetric::DelayMs, 25.0);
        }
    }
    let mut db = Database::with_storage(&StorageConfig {
        segment_rows: 128,
        ..Default::default()
    });
    db.ingest_more(&topo, &sim.records, &mut IngestStats::default());
    assert_eq!(db.perf.len(), PAIRS * POLLS);

    let mut inc = IncrementalExtractor::new(knowledge_library());
    let cx = ExtractCx::new(&topo, &db, None);
    inc.extract(&cx);
    let (allocs0, _) = alloc_snapshot();
    for _ in 0..CALLS {
        inc.extract(&cx);
    }
    let (allocs1, _) = alloc_snapshot();
    let per_call = (allocs1 - allocs0) / CALLS as u64;
    // Measures 48 a call; 52 while the finish copied every part's samples
    // into one buffer and sorted it. A tree of per-pair vectors and a
    // baseline per pair, copying and sorting its window per sample,
    // measured 3724.
    assert!(
        per_call < 150,
        "steady-state extract: {per_call} allocations a call over {PAIRS} probe pairs — \
         the finish allocates per pair or per sample"
    );
}
