//! `serve-live`: four tenants (bgp / cdn / pim / e2e over the union of
//! their event definitions) served while ingest runs.
//!
//! * The **publisher** is open loop: one simulated day in 10-minute cycles,
//!   one cycle per wall-clock slot (`--seconds` ÷ cycles), each slot
//!   `Publisher::ingest` → `publish_if_changed` → `Server::publish`,
//!   whether or not the previous slot finished on time. Freshness is timed
//!   from the slot's due time; late starts are counted.
//! * The **load** is closed loop: 1 client thread with 256 tickets in
//!   flight, sweeping the current snapshot's symptom mix across all tenants.
//! * One serving worker (`ServeConfig { workers: 1, .. }`): two busy
//!   threads on the box's two cores, the publisher a third that wakes once
//!   per slot.
//!
//! Every served verdict is checked afterwards against
//! `ServingSnapshot::diagnose_all` at the epoch it was served at.

use crate::host::Probes;
use crate::quality::{verdict_at, Quality};
use crate::stats::{median, percentile, sorted, tail_or_supported};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use grca_apps::{bgp, build_routing, cdn, e2e, pim, Study};
use grca_collector::{Database, IngestStats, StorageConfig};
use grca_core::Engine;
use grca_events::{EventDefinition, EventInstance, ExtractCx, IncrementalExtractor};
use grca_net_model::{SpatialModel, TierConfig, Topology};
use grca_serve::{
    Publisher, ServeConfig, Server, ServerStats, ServingSnapshot, Tenant, TenantSpec, Ticket,
};
use grca_simnet::{
    run_scenario, FaultInstance, FaultRates, FeedChaos, MicroBatches, ScenarioConfig, TruthRecord,
};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, TimeWindow};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

/// Tickets the client keeps outstanding, collected half at a time. Deep
/// enough that the worker's queue never drains and the client sleeps once
/// per 128 verdicts, not once per micro-batch: a wake-up across vCPUs costs
/// tens of microseconds on this VM and swings with the host, so at 4 in
/// flight, and still at 32, the number measured was futex latency (±10 % run
/// to run, whole runs 30 % off), not the serving path.
const IN_FLIGHT: usize = 256;
/// Requests per tenant (bgp, cdn, pim, e2e) in one sweep of a client. Fixed
/// shares rather than "every symptom once": the tenants' symptom counts swing
/// ±20 % from seed to seed and their diagnoses cost differently, so a sweep
/// proportional to the counts made the cost of the average request a property
/// of the seed. e2e has a handful of symptoms, hence the smaller share.
const QUOTA: [usize; 4] = [64, 64, 64, 16];
/// Tenants with a ground-truth study behind them (e2e has none).
const STUDIES: [(&str, Study); 3] = [
    ("bgp", Study::Bgp),
    ("cdn", Study::Cdn),
    ("pim", Study::Pim),
];

struct Input {
    topo: Arc<Topology>,
    cycles: Vec<Vec<RawRecord>>,
    /// Simulated clock at the end of each cycle.
    clocks: Vec<i64>,
    truth: Vec<TruthRecord>,
    faults: Vec<FaultInstance>,
    records: usize,
    gen_secs: f64,
}

/// Every study's faults at once, so every tenant has symptoms to serve:
/// the field-wise maximum of the three study mixes.
fn mixed_rates() -> FaultRates {
    let (b, c, p) = (
        FaultRates::bgp_study(),
        FaultRates::cdn_study(),
        FaultRates::pim_study(),
    );
    let max3 = |f: fn(&FaultRates) -> f64| f(&b).max(f(&c)).max(f(&p));
    FaultRates {
        customer_iface_flap: max3(|r| r.customer_iface_flap),
        mvpn_customer_flap: max3(|r| r.mvpn_customer_flap),
        line_proto_flap: max3(|r| r.line_proto_flap),
        router_reboot: max3(|r| r.router_reboot),
        cpu_spike: max3(|r| r.cpu_spike),
        cpu_average: max3(|r| r.cpu_average),
        customer_reset: max3(|r| r.customer_reset),
        hte_unknown: max3(|r| r.hte_unknown),
        unknown_flap: max3(|r| r.unknown_flap),
        sonet_restoration: max3(|r| r.sonet_restoration),
        mesh_fast_restoration: max3(|r| r.mesh_fast_restoration),
        mesh_regular_restoration: max3(|r| r.mesh_regular_restoration),
        line_card_crash: max3(|r| r.line_card_crash),
        provisioning_activity: max3(|r| r.provisioning_activity),
        backbone_link_failure: max3(|r| r.backbone_link_failure),
        link_cost_out_maint: max3(|r| r.link_cost_out_maint),
        router_cost_out_maint: max3(|r| r.router_cost_out_maint),
        ospf_weight_change: max3(|r| r.ospf_weight_change),
        link_congestion: max3(|r| r.link_congestion),
        link_loss: max3(|r| r.link_loss),
        egress_change: max3(|r| r.egress_change),
        cdn_policy_change: max3(|r| r.cdn_policy_change),
        cdn_server_issue: max3(|r| r.cdn_server_issue),
        external_rtt_degradation: max3(|r| r.external_rtt_degradation),
        pim_config_change: max3(|r| r.pim_config_change),
        uplink_pim_loss: max3(|r| r.uplink_pim_loss),
        noise_syslog: max3(|r| r.noise_syslog),
        noise_workflow: max3(|r| r.noise_workflow),
    }
}

fn generate(seed: u64, smoke: bool) -> Input {
    let tier = if smoke {
        TierConfig::smoke()
    } else {
        TierConfig::default_preset()
    };
    let topo = Arc::new(tier.generate());
    let t0 = Instant::now();
    let mut cfg = ScenarioConfig::new(1, seed ^ 0x5e17, mixed_rates());
    cfg.background.probe_fanout = tier.probe_fanout;
    let sim = run_scenario(&topo, &cfg);
    let gen_secs = t0.elapsed().as_secs_f64();
    let records = sim.records.len();
    let mb = MicroBatches::from_keyed(
        sim.records,
        &sim.delivery,
        cfg.start,
        cfg.end(),
        Duration::mins(10),
    );
    let clocks = (0..mb.cycles()).map(|i| mb.clock(i).unix()).collect();
    Input {
        topo,
        cycles: FeedChaos::new(0).deliver_owned(mb),
        clocks,
        truth: sim.truth,
        faults: sim.faults,
        records,
        gen_secs,
    }
}

fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("bgp", bgp::diagnosis_graph()),
        TenantSpec::new("cdn", cdn::diagnosis_graph()),
        TenantSpec::new("pim", pim::diagnosis_graph()),
        TenantSpec::new("e2e", e2e::diagnosis_graph()),
    ]
}

fn union_defs(topo: &Topology) -> Vec<EventDefinition> {
    let mut defs = bgp::event_definitions();
    defs.extend(cdn::event_definitions(topo));
    defs.extend(pim::event_definitions());
    defs.extend(e2e::event_definitions(topo));
    defs
}

/// The ingest side of one slot. The untraced run drives a real
/// [`Publisher`]; the traced run a [`StagedPublisher`].
trait EpochBuilder {
    fn begin_slot(&mut self, _slot: u32) {}
    fn ingest(&mut self, records: &[RawRecord]);
    fn publish_if_changed(&mut self) -> Option<Arc<ServingSnapshot>>;
    fn swap(&mut self, server: &Server, snap: Arc<ServingSnapshot>) {
        server.publish(snap);
    }
}

impl EpochBuilder for Publisher {
    fn ingest(&mut self, records: &[RawRecord]) {
        Publisher::ingest(self, records);
    }
    fn publish_if_changed(&mut self) -> Option<Arc<ServingSnapshot>> {
        Publisher::publish_if_changed(self).expect("tenants validate")
    }
}

/// `Publisher`'s work with a span around each call into a layer — the
/// bodies of `Publisher::{new, ingest, publish, publish_if_changed}`.
struct StagedPublisher {
    tracer: Tracer,
    topo: Arc<Topology>,
    db: Database,
    stats: IngestStats,
    extractor: IncrementalExtractor,
    next_epoch: u64,
    published_ingest_epoch: Option<u64>,
}

impl StagedPublisher {
    fn new(topo: Arc<Topology>) -> Self {
        let mut seen = HashSet::new();
        let defs: Vec<EventDefinition> = union_defs(&topo)
            .into_iter()
            .filter(|d| seen.insert(d.name.clone()))
            .collect();
        StagedPublisher {
            tracer: Tracer::new(),
            topo,
            db: Database::with_storage(&StorageConfig::default()),
            stats: IngestStats::default(),
            extractor: IncrementalExtractor::new(defs),
            next_epoch: 0,
            published_ingest_epoch: None,
        }
    }
}

impl EpochBuilder for StagedPublisher {
    fn begin_slot(&mut self, slot: u32) {
        self.tracer.set_cycle(slot);
    }

    fn ingest(&mut self, records: &[RawRecord]) {
        let (topo, db, stats) = (&self.topo, &mut self.db, &mut self.stats);
        self.tracer
            .span("collector.ingest", |_| db.ingest_more(topo, records, stats));
    }

    fn publish_if_changed(&mut self) -> Option<Arc<ServingSnapshot>> {
        let ingest_epoch = self.db.ingest_epoch();
        if self.published_ingest_epoch == Some(ingest_epoch) {
            return None;
        }
        let (topo, db, extractor) = (&self.topo, &self.db, &mut self.extractor);
        let epoch = self.next_epoch;
        let snap = self.tracer.span("serve.publish", |tr| {
            let live = tr.span("routing.build", |_| build_routing(topo, db));
            let store = tr.span("events.extract", |_| {
                extractor.extract(&ExtractCx::new(topo, db, Some(&live)))
            });
            let tenants: Vec<Tenant> = tr.span("serve.resolve_tenants", |_| {
                tenant_specs()
                    .into_iter()
                    .map(|s| Tenant::resolve(s).expect("tenants validate"))
                    .collect()
            });
            let spatial = tr.span("net-model.spatial_bind", |_| SpatialModel::new(topo, &live));
            tr.span("serve.warm_caches", |_| {
                for t in &tenants {
                    let engine = Engine::with_index(&t.graph, &store, &spatial, &t.index);
                    let _ = engine.diagnose_all();
                }
            });
            drop(spatial);
            let frozen = tr.span("routing.freeze", |_| live.freeze());
            Arc::new(ServingSnapshot::from_parts(
                epoch,
                ingest_epoch,
                topo.clone(),
                frozen,
                store,
                tenants,
            ))
        });
        self.next_epoch += 1;
        self.published_ingest_epoch = Some(ingest_epoch);
        Some(snap)
    }

    fn swap(&mut self, server: &Server, snap: Arc<ServingSnapshot>) {
        self.tracer.span("serve.swap", |_| server.publish(snap));
    }
}

/// What was asked and what came back, without the when: the symptom asked
/// about is `snapshots[client_epoch].symptoms(tenant)[idx]`. Requests are
/// tallied by this key rather than logged one by one, so what the harness
/// holds does not grow with the rate the server sustains.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Served {
    /// Hash of the served `(label, window)`.
    verdict: u64,
    client_epoch: u16,
    served_epoch: u16,
    idx: u16,
    tenant: u8,
    error: bool,
}

fn hash_verdict((label, window): &(String, TimeWindow)) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (label, window.start.unix(), window.end.unix()).hash(&mut h);
    h.finish()
}

struct Pending {
    ticket: Ticket,
    sent: Instant,
    client_epoch: u16,
    tenant: u8,
    idx: u16,
}

/// What the client did: every distinct request → answer pair with its
/// count, the round trips of the requests completed in each schedule slot
/// (nanoseconds; the last entry collects completions past the schedule's
/// end), submits the server refused, and the readings of the host's speed
/// the client took, one in the middle of each slot (see [`crate::host`];
/// while the client probes it submits nothing, a fixed ≈3 ms of every slot).
struct ClientLog {
    served: HashMap<Served, u64>,
    latency_ns: Vec<Vec<u32>>,
    rejected: u64,
    probes: Probes,
    /// Half slots elapsed at the latest completion.
    half_slots: usize,
}

/// Closed-loop client: sweep the current snapshot's symptom mix across all
/// tenants with `IN_FLIGHT` tickets outstanding until told to stop.
fn client_loop(
    server: &Server,
    start: Instant,
    interval: std::time::Duration,
    slots: usize,
    probe: bool,
    done: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog {
        served: HashMap::new(),
        latency_ns: vec![Vec::new(); slots + 1],
        rejected: 0,
        probes: Probes::default(),
        half_slots: 0,
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let settle = |p: Pending, log: &mut ClientLog| {
        let s = p.ticket.wait();
        let latency_ns = p.sent.elapsed().as_nanos() as u32;
        let halves = (start.elapsed().as_nanos() * 2 / interval.as_nanos()) as usize;
        log.half_slots = halves;
        log.latency_ns[(halves / 2).min(slots)].push(latency_ns);
        let key = Served {
            verdict: hash_verdict(&s.diagnosis.verdict()),
            client_epoch: p.client_epoch,
            served_epoch: s.epoch as u16,
            idx: p.idx,
            tenant: p.tenant,
            error: s.error.is_some(),
        };
        *log.served.entry(key).or_default() += 1;
    };
    // Where each tenant's next request comes from; carries over from one
    // snapshot to the next so that every symptom gets asked about in turn.
    let mut cursor = [0usize; QUOTA.len()];
    'sweeps: loop {
        let snap = server.snapshot();
        let mut any = false;
        for (tenant, &quota) in QUOTA.iter().enumerate() {
            let symptoms = snap.symptoms(tenant);
            if symptoms.is_empty() {
                continue;
            }
            any = true;
            for _ in 0..quota {
                if done.load(SeqCst) {
                    break 'sweeps;
                }
                if pending.len() == IN_FLIGHT {
                    // Collect the older half, newest of it first: the client
                    // sleeps until that one is served, by when the rest are.
                    for p in pending.drain(..IN_FLIGHT / 2).rev() {
                        settle(p, &mut log);
                    }
                }
                // One reading per slot, once its middle has passed (its
                // start is when the publisher is busy), so reading `s` sits
                // inside slot `s`.
                while probe && 2 * log.probes.len() < log.half_slots {
                    log.probes.take();
                }
                let idx = cursor[tenant] % symptoms.len();
                cursor[tenant] = idx + 1;
                let sent = Instant::now();
                match server.submit(tenant, symptoms[idx].clone()) {
                    Ok(ticket) => pending.push_back(Pending {
                        ticket,
                        sent,
                        client_epoch: snap.epoch as u16,
                        tenant: tenant as u8,
                        idx: idx as u16,
                    }),
                    Err(_) => log.rejected += 1,
                }
            }
        }
        if !any {
            if done.load(SeqCst) {
                break;
            }
            std::thread::yield_now();
        }
    }
    for p in pending {
        settle(p, &mut log);
    }
    log
}

/// What one run of the schedule produced.
struct Schedule {
    /// Every published epoch, index = epoch number.
    snapshots: Vec<Arc<ServingSnapshot>>,
    /// Simulated clock of the cycle each epoch closed.
    epoch_clock: Vec<i64>,
    served: HashMap<Served, u64>,
    /// Round trips of the requests completed in each slot, nanoseconds.
    latency_ns: Vec<Vec<u32>>,
    /// The host's speed in the middle of each slot.
    probes: Probes,
    rejected: u64,
    /// Per slot, milliseconds.
    ingest_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    /// Wall inside the publisher's entry points, construction and first
    /// publish included.
    busy_secs: f64,
    interval_secs: f64,
    duration_secs: f64,
    late: u64,
    elided: u64,
    stats: ServerStats,
}

fn run_schedule<B: EpochBuilder>(
    input: &Input,
    seconds: f64,
    probe: bool,
    builder: &mut B,
) -> Schedule {
    let slots = input.cycles.len();
    let interval = std::time::Duration::from_secs_f64(seconds / slots as f64);
    // Cold start: the first cycle's epoch must exist before serving can.
    let b0 = Instant::now();
    builder.begin_slot(0);
    builder.ingest(&input.cycles[0]);
    let snap0 = builder
        .publish_if_changed()
        .expect("the first cycle delivers records");
    let server = Server::start(
        snap0.clone(),
        &ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let mut busy_secs = b0.elapsed().as_secs_f64();

    let mut sched = Schedule {
        snapshots: vec![snap0],
        epoch_clock: vec![input.clocks[0]],
        served: HashMap::new(),
        latency_ns: Vec::new(),
        probes: Probes::default(),
        rejected: 0,
        ingest_ms: Vec::new(),
        publish_ms: Vec::new(),
        fresh_ms: Vec::new(),
        busy_secs: 0.0,
        interval_secs: interval.as_secs_f64(),
        duration_secs: 0.0,
        late: 0,
        elided: 0,
        stats: ServerStats::default(),
    };
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let client = scope.spawn(|| client_loop(&server, start, interval, slots, probe, &done));
        for slot in 1..slots {
            let due = start + interval * slot as u32;
            match due.checked_duration_since(Instant::now()) {
                Some(wait) => std::thread::sleep(wait),
                None => sched.late += 1,
            }
            builder.begin_slot(slot as u32);
            let t0 = Instant::now();
            builder.ingest(&input.cycles[slot]);
            let t1 = Instant::now();
            match builder.publish_if_changed() {
                Some(snap) => {
                    builder.swap(&server, snap.clone());
                    sched.snapshots.push(snap);
                    sched.epoch_clock.push(input.clocks[slot]);
                    sched.publish_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                    sched.fresh_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                None => sched.elided += 1,
            }
            sched.ingest_ms.push((t1 - t0).as_secs_f64() * 1e3);
            busy_secs += t0.elapsed().as_secs_f64();
        }
        // The last epoch is served for one more slot, then load stops.
        if let Some(wait) = (start + interval * slots as u32).checked_duration_since(Instant::now())
        {
            std::thread::sleep(wait);
        }
        done.store(true, SeqCst);
        let log = client.join().expect("client thread");
        sched.served = log.served;
        sched.latency_ns = log.latency_ns;
        sched.probes = log.probes;
        sched.rejected = log.rejected;
    });
    sched.duration_secs = start.elapsed().as_secs_f64();
    sched.busy_secs = busy_secs;
    sched.stats = server.stats();
    sched
}

fn sym_key(topo: &Topology, s: &EventInstance) -> (String, i64, String) {
    (
        s.name.to_string(),
        s.window.start.unix(),
        s.location.display(topo),
    )
}

/// Check every served verdict against `diagnose_all` at the epoch it was
/// served at. Returns `(attempted, failed)`.
fn verify(input: &Input, sched: &Schedule) -> (u64, u64) {
    /// Per symptom key of an epoch: its position in the epoch's root set and
    /// the reference verdict `diagnose_all` gave it.
    type Reference = HashMap<(String, i64, String), (usize, u64)>;
    let mut refs: HashMap<(u16, u8), Reference> = HashMap::new();
    let mut failed = sched.rejected;
    for (r, &count) in &sched.served {
        let tenant = r.tenant as usize;
        let snap = &sched.snapshots[r.served_epoch as usize];
        let symptom = &sched.snapshots[r.client_epoch as usize].symptoms(tenant)[r.idx as usize];
        let reference = refs.entry((r.served_epoch, r.tenant)).or_insert_with(|| {
            snap.symptoms(tenant)
                .iter()
                .zip(snap.diagnose_all(tenant))
                .enumerate()
                .map(|(i, (s, d))| (sym_key(&input.topo, s), (i, hash_verdict(&d.verdict()))))
                .collect()
        });
        // A symptom queried from an older epoch may have left this epoch's
        // root set, or grown since (same key, later window end); the
        // reference for exactly what was asked is then a direct diagnosis
        // against the epoch.
        let want = match reference.get(&sym_key(&input.topo, symptom)) {
            Some(&(i, hash)) if snap.symptoms(tenant)[i] == *symptom => hash,
            _ => hash_verdict(&snap.diagnose(tenant, symptom).verdict()),
        };
        if r.error || r.verdict != want {
            failed += count;
        }
    }
    (sched.requests() + sched.rejected, failed)
}

/// Detection latency (injection → the epoch that first made the symptom
/// servable) and accuracy of the final epoch, over the tenants that have a
/// ground-truth study.
fn quality(input: &Input, sched: &Schedule) -> Quality {
    let mut q = Quality::default();
    let last = sched.snapshots.last().expect("at least one epoch");
    for (name, study) in STUDIES {
        let tenant = last.tenant_id(name).expect("tenant exists");
        let mut seen = HashSet::new();
        let mut events = Vec::new();
        for (snap, &clock) in sched.snapshots.iter().zip(&sched.epoch_clock) {
            let fresh: Vec<&EventInstance> = snap
                .symptoms(tenant)
                .iter()
                .filter(|s| seen.insert((s.location.display(&input.topo), s.window.start.unix())))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            snap.with_engine(tenant, |engine| {
                for s in fresh {
                    events.push(verdict_at(&input.topo, &engine.diagnose(s), clock));
                }
            });
        }
        q.add(
            study,
            &input.topo,
            &input.truth,
            &input.faults,
            &events,
            &last.diagnose_all(tenant),
        );
    }
    q
}

impl Schedule {
    /// Requests answered, completions past the schedule's end included.
    fn requests(&self) -> u64 {
        self.served.values().sum()
    }

    /// The schedule's slots proper: without the overflow entry.
    fn slots(&self) -> &[Vec<u32>] {
        &self.latency_ns[..self.latency_ns.len() - 1]
    }
}

/// Served requests per second of the quiet host: each slot's count
/// corrected for the host's slowness around it, the median over the slots
/// (a stall that empties one slot is not the server's rate).
fn served_per_s(sched: &Schedule) -> f64 {
    let rates: Vec<f64> = sched
        .slots()
        .iter()
        .enumerate()
        .map(|(slot, l)| l.len() as f64 * sched.probes.slowness(slot) / sched.interval_secs)
        .collect();
    median(&rates)
}

/// Submit → `Ticket::wait` round trip in milliseconds of the quiet host:
/// each slot's median corrected for the host's slowness around it, the
/// median over the slots.
fn round_trip_ms(sched: &Schedule) -> f64 {
    let medians: Vec<f64> = sched
        .slots()
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(slot, l)| {
            let ms: Vec<f64> = l.iter().map(|&ns| ns as f64 / 1e6).collect();
            median(&ms) / sched.probes.slowness(slot)
        })
        .collect();
    median(&medians)
}

fn latencies_ms(sched: &Schedule) -> Vec<f64> {
    sorted(
        sched
            .latency_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64 / 1e6)
            .collect(),
    )
}

/// Mean microseconds of `f` over `symptoms`, timed one call at a time.
fn mean_us(symptoms: &[EventInstance], mut f: impl FnMut(&EventInstance)) -> f64 {
    if symptoms.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for s in symptoms {
        f(s);
    }
    t0.elapsed().as_secs_f64() * 1e6 / symptoms.len() as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (input, setup_s) = crate::set_up(|| generate(args.seed, args.smoke));
    eprintln!(
        "serve-live: {} routers, {} tenants, {} records in {} cycles, 1 client x {} in flight, \
         1 worker, 1 publisher",
        input.topo.routers.len(),
        tenant_specs().len(),
        input.records,
        input.cycles.len(),
        IN_FLIGHT
    );

    crate::reset_peak_rss();
    let seconds = args.budget();
    let mut publisher = Publisher::new(input.topo.clone(), union_defs(&input.topo), tenant_specs())
        .with_storage(&StorageConfig::default());
    // The traced run's baseline takes no probes: it is compared with a
    // staged schedule that takes none either.
    let sched = run_schedule(&input, seconds, !args.trace, &mut publisher);
    let peak_rss_mb = crate::peak_rss_mb();
    drop(publisher);

    let traced = args.trace.then(|| {
        let mut staged = StagedPublisher::new(input.topo.clone());
        let sched = run_schedule(&input, seconds, false, &mut staged);
        (staged.tracer, sched)
    });

    let v0 = Instant::now();
    let (attempted, failed) = verify(&input, &sched);
    out.attempted += attempted;
    out.failed += failed;
    if failed > 0 {
        out.notes.push(format!(
            "{failed} of {attempted} requests rejected, errored or differing from diagnose_all at \
             their epoch ({} rejected)",
            sched.rejected
        ));
    }
    let q = quality(&input, &sched);
    let verify_secs = v0.elapsed().as_secs_f64();
    eprintln!(
        "serve-live: {} served in {:.2} s (host slowness {:.2}) over {} epochs ({} elided, \
         {} late slots), mean batch {:.1}, {} detection samples",
        sched.requests(),
        sched.duration_secs,
        sched.probes.overall(),
        sched.snapshots.len(),
        sched.elided,
        sched.late,
        sched.stats.served as f64 / sched.stats.batches.max(1) as f64,
        q.detect_samples()
    );

    if let Some((tracer, tsched)) = traced {
        // The staged publisher must have built the same epochs.
        let (t_attempted, t_failed) = verify(&input, &tsched);
        out.attempted += t_attempted + sched.snapshots.len() as u64;
        out.failed += t_failed;
        let drift = sched
            .snapshots
            .iter()
            .zip(&tsched.snapshots)
            .filter(|(a, b)| a.store != b.store || a.ingest_epoch != b.ingest_epoch)
            .count()
            + sched.snapshots.len().abs_diff(tsched.snapshots.len());
        if drift + t_failed as usize > 0 {
            out.failed += drift as u64;
            out.notes.push(format!(
                "staged publisher drifted from Publisher: {drift} epochs differ, {t_failed} \
                 traced-run verdicts wrong"
            ));
        }

        let sum = tracer.summary();
        let get = |n: &str| sum.get(n).copied().unwrap_or_default();
        let publishes = get("serve.publish").count.max(1) as f64;
        let m = &mut out.metrics;
        let ingest = get("collector.ingest");
        m.insert(
            "collector.ingest_ns_per_rec",
            ingest.total_ns as f64 / input.records as f64,
        );
        m.insert(
            "events.extract_ms_per_cycle",
            get("events.extract").total_ms() / publishes,
        );
        m.insert(
            "routing.build_ms",
            get("routing.build").total_ms() / publishes,
        );
        m.insert(
            "net-model.spatial_bind_us",
            get("net-model.spatial_bind").per_call_us(),
        );
        let last = tsched.snapshots.last().expect("at least one epoch");
        m.insert("events.instances_out", last.store.total() as f64);
        let tlat = latencies_ms(&tsched);
        let p50 = percentile(&tlat, 0.5);
        m.insert("serve.latency_p50_ms", p50);
        m.insert("serve.latency_p99_ms", tail_or_supported(&tlat, 0.99));
        m.insert("serve.fresh_ms_p50", median(&tsched.fresh_ms));
        m.insert("serve.publish_ms_p50", median(&tsched.publish_ms));
        m.insert(
            "serve.publish_ms_max",
            tsched.publish_ms.iter().copied().fold(0.0, f64::max),
        );
        m.insert("serve.publisher_ingest_ms_p50", median(&tsched.ingest_ms));
        m.insert(
            "serve.batch_size_mean",
            tsched.stats.served as f64 / tsched.stats.batches.max(1) as f64,
        );
        m.insert("serve.load_retries", tsched.stats.load_retries as f64);
        m.insert("serve.rejected", tsched.rejected as f64);
        m.insert("serve.publish_late", tsched.late as f64);
        m.insert("serve.elided", tsched.elided as f64);

        // Probes against the final epoch, off the schedule: a pinned
        // session's round trip, a bare engine bind, and bare diagnoses for a
        // configuration-only tenant (bgp) and a route-oracle one (cdn).
        let server = Server::start(
            last.clone(),
            &ServeConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let session = server.session();
        let tenants = last.tenants().len();
        let mut session_us = Vec::new();
        for t in 0..tenants {
            session_us.extend(
                last.symptoms(t)
                    .iter()
                    .map(|s| mean_us(std::slice::from_ref(s), |s| drop(session.diagnose(t, s)))),
            );
        }
        let session_mean = session_us.iter().sum::<f64>() / session_us.len().max(1) as f64;
        m.insert("serve.session_diagnose_us", session_mean);
        m.insert("serve.queue_wait_us", p50 * 1e3 - session_mean);
        let bgp_t = last.tenant_id("bgp").expect("bgp tenant");
        let cdn_t = last.tenant_id("cdn").expect("cdn tenant");
        let binds = vec![last.symptoms(bgp_t)[0].clone(); 64];
        m.insert(
            "core.bind_us",
            mean_us(&binds, |_| {
                last.with_engine(bgp_t, |e| {
                    std::hint::black_box(e);
                })
            }),
        );
        let mut diagnosed = 0;
        let mut evidence = 0;
        for (name, t) in [("core.diagnose_us", bgp_t), ("core.diagnose_us_cdn", cdn_t)] {
            let us = last.with_engine(t, |e| {
                mean_us(last.symptoms(t), |s| {
                    let d = e.diagnose(s);
                    diagnosed += 1;
                    evidence += d.evidence.len();
                })
            });
            m.insert(name, us);
        }
        m.insert("core.diagnosed", diagnosed as f64);
        m.insert(
            "core.evidence_per_diag",
            evidence as f64 / diagnosed.max(1) as f64,
        );

        // Everything the trace attributes to a layer: the slot's roots
        // less the publish root's own time.
        let publish = get("serve.publish");
        let stage_ns =
            get("collector.ingest").total_ns + get("serve.swap").total_ns + publish.total_ns
                - publish.self_ns;
        m.insert("trace.coverage", stage_ns as f64 / 1e9 / sched.busy_secs);
        m.insert(
            "trace.overhead_frac",
            tsched.busy_secs / sched.busy_secs - 1.0,
        );
        m.insert("simnet.gen_s", input.gen_secs);
        m.insert("simnet.records", input.records as f64);
        m.insert("eval.verify_s", verify_secs);
        m.insert("eval.detect_p50_s", q.detect().p50_s);

        tracer.report("serve-live");
        return out;
    }

    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("throughput_per_s", served_per_s(&sched));
    m.insert("response_p50_ms", round_trip_ms(&sched));
    q.end_to_end(m);
    m.insert("peak_rss_mb", peak_rss_mb);
    out
}
