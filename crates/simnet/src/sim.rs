//! The simulation context: RNG, record sink, ground truth, and the emit
//! helpers that encode each feed's clock and naming conventions.
//!
//! Injectors (see [`crate::inject`]) call these helpers; everything messy
//! about the raw data — device-local syslog clocks, Eastern-time SNMP
//! polling, uppercase SNMP system names, ifIndex references, circuit ids —
//! is produced here, so the Data Collector has real normalization work to
//! do, as in the paper (§II-A).
//!
//! Emission is *keyed*: every record is pushed together with its true UTC
//! emission instant (`keys` parallels `records`), so delivery ordering
//! never has to re-derive the instant by parsing the record back (the old
//! `approx_utc` pass). Entity names come from a shared, immutable
//! [`FeedNames`] table, so emitting a record clones `Arc<str>` handles
//! instead of heap-copying strings.

use crate::config::ScenarioConfig;
use crate::names::FeedNames;
use crate::truth::{FaultInstance, RootCause, SymptomKind, TruthRecord};
use grca_net_model::{
    CdnNodeId, ClientSiteId, InterfaceId, LinkId, PhysLinkId, RouterId, SessionId, Topology,
};
use grca_routing::RoutingState;
use grca_telemetry::records::*;
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Duration, TimeZone, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// The mutable simulation state threaded through all injectors.
pub struct Sim<'a> {
    pub topo: &'a Topology,
    pub cfg: &'a ScenarioConfig,
    pub rng: StdRng,
    pub records: Vec<RawRecord>,
    /// True UTC emission instant of each record, parallel to `records`.
    /// Feeds still carry their own messy clocks inside the record; this is
    /// the delivery-ordering key the finalizer sorts by.
    pub keys: Vec<Timestamp>,
    pub truth: Vec<TruthRecord>,
    pub faults: Vec<FaultInstance>,
    /// Baseline routing (for targeting path-dependent effects).
    pub routing: RoutingState<'a>,
    /// Per-session: fast external fallover configured?
    pub fast_fallover: Vec<bool>,
    /// (PE, flap-down time) log for the reverse-CPU confounder pass.
    pub flap_log: Vec<(RouterId, Timestamp)>,
    /// Interned entity names, shared across day-chunks and background
    /// emission workers.
    pub names: Arc<FeedNames>,
    /// Lazily-memoized `session_key` results, by session index. The key is
    /// a `format!` of PE name and neighbor IP; injectors re-derive it for
    /// every flap on a session, so the first call per session pays the
    /// format and the rest are refcount bumps (mirrors the old
    /// `snmp_names` cache, generalized).
    session_keys: Vec<Option<Arc<str>>>,
    /// Lazily-built list of sessions whose (customer, PE) pair belongs to
    /// an MVPN — the candidate pool for MVPN flap injection. Built on
    /// first use in O(sessions + mvpn membership); the old per-injection
    /// scan was O(sessions × mvpns) and dominated tier-1 manifest replay.
    mvpn_candidates: Option<Vec<SessionId>>,
}

impl<'a> Sim<'a> {
    pub fn new(topo: &'a Topology, cfg: &'a ScenarioConfig) -> Self {
        let names = Arc::new(FeedNames::new(topo, cfg.noise_workflow_types));
        Sim::with_parts(topo, cfg, names, Vec::new(), Vec::new(), None)
    }

    /// Construct with a pre-built name table, recycled emission buffers
    /// (cleared, capacity retained), and optionally a frozen routing state
    /// from a previous window over the same topology — the day-chunk reuse
    /// path. Thawing recycled routing keeps the reconvergence path cache
    /// warm, which is the dominant per-window cost at tier-1 scale; cache
    /// entries only ever affect speed, never answers. Without a frozen
    /// state, routing starts cold with one memoized SPF per source router.
    pub fn with_parts(
        topo: &'a Topology,
        cfg: &'a ScenarioConfig,
        names: Arc<FeedNames>,
        mut records: Vec<RawRecord>,
        mut keys: Vec<Timestamp>,
        routing: Option<grca_routing::FrozenRoutingState>,
    ) -> Self {
        records.clear();
        keys.clear();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let fast_fallover = (0..topo.sessions.len())
            .map(|_| rng.random::<f64>() < cfg.fast_fallover_prob)
            .collect();
        Sim {
            topo,
            cfg,
            rng,
            records,
            keys,
            truth: Vec::new(),
            faults: Vec::new(),
            routing: match routing {
                Some(frozen) => RoutingState::thaw(topo, frozen),
                None => RoutingState::baseline(topo).with_spf_cache(),
            },
            fast_fallover,
            flap_log: Vec::new(),
            names,
            session_keys: vec![None; topo.sessions.len()],
            mvpn_candidates: None,
        }
    }

    // ------------------------------------------------------------ sampling

    /// Poisson-distributed count with the given mean.
    pub fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            // Knuth's method.
            let l = (-lambda).exp();
            let mut k = 0usize;
            let mut p = 1.0;
            loop {
                p *= self.rng.random::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Normal approximation for large means.
        let g = self.gauss();
        (lambda + lambda.sqrt() * g).round().max(0.0) as usize
    }

    /// Standard normal via Box–Muller.
    pub fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Exponentially distributed duration (seconds), at least 1 s.
    pub fn exp_secs(&mut self, mean: f64) -> Duration {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        Duration::secs((-mean * u.ln()).round().max(1.0) as i64)
    }

    /// Uniform instant within the scenario window.
    pub fn uniform_time(&mut self) -> Timestamp {
        let span = (self.cfg.end() - self.cfg.start).as_secs();
        self.cfg.start + Duration::secs(self.rng.random_range(0..span))
    }

    /// Uniform integer seconds in `[lo, hi]` as a duration.
    pub fn secs_between(&mut self, lo: i64, hi: i64) -> Duration {
        Duration::secs(self.rng.random_range(lo..=hi))
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.random::<f64>()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p
    }

    /// Pick a uniformly random element index.
    pub fn pick(&mut self, len: usize) -> usize {
        self.rng.random_range(0..len)
    }

    // ------------------------------------------------------------- bookkeeping

    /// Register an injected fault, returning its id.
    pub fn fault(&mut self, kind: RootCause, time: Timestamp, what: impl Into<String>) -> usize {
        let id = self.faults.len();
        self.faults.push(FaultInstance {
            id,
            kind,
            time,
            what: what.into(),
        });
        id
    }

    /// Record a ground-truth symptom.
    pub fn symptom(
        &mut self,
        symptom: SymptomKind,
        time: Timestamp,
        key: String,
        cause: RootCause,
        fault: usize,
    ) {
        self.truth.push(TruthRecord {
            symptom,
            time,
            key,
            cause,
            fault,
        });
    }

    /// Push one keyed record.
    #[inline]
    pub fn push(&mut self, utc: Timestamp, rec: RawRecord) {
        self.keys.push(utc);
        self.records.push(rec);
    }

    // ------------------------------------------------------------- emitters

    /// Emit a syslog line from `router` for a UTC instant (written in the
    /// router's device-local clock).
    pub fn syslog(&mut self, router: RouterId, utc: Timestamp, ev: &SyslogEvent) {
        let tz = self.topo.router_tz(router);
        let local = tz.to_local(utc);
        let rec = RawRecord::Syslog(SyslogLine {
            host: self.names.routers[router.index()].clone(),
            line: ev.format_line(local),
        });
        self.push(utc, rec);
    }

    /// Emit an SNMP sample (timestamped in provider network time, named by
    /// SNMP system name; per-interface metrics referenced by ifIndex).
    pub fn snmp(
        &mut self,
        router: RouterId,
        bin_start_utc: Timestamp,
        metric: SnmpMetric,
        iface: Option<InterfaceId>,
        value: f64,
    ) {
        let rec = RawRecord::Snmp(SnmpSample {
            system: self.names.snmp[router.index()].clone(),
            local_time: TimeZone::US_EASTERN.to_local(bin_start_utc),
            metric,
            if_index: iface.map(|i| self.topo.interface(i).if_index),
            value,
        });
        self.push(bin_start_utc, rec);
    }

    /// Emit a layer-1 device log entry for a circuit event.
    pub fn l1log(&mut self, circuit: PhysLinkId, utc: Timestamp, kind: L1EventKind) {
        let pl = self.topo.phys_link(circuit);
        let dev_id = pl.l1_path[0];
        let dev = self.topo.l1_device(dev_id);
        let tz = self.topo.pop(dev.pop).tz;
        let rec = RawRecord::L1Log(L1LogRecord {
            device: self.names.l1_devices[dev_id.index()].clone(),
            local_time: tz.to_local(utc),
            kind,
            circuit: self.names.circuits[circuit.index()].clone(),
        });
        self.push(utc, rec);
    }

    /// Emit an OSPF monitor observation for a link weight change. The LSA
    /// identifies the link by an endpoint /30 address.
    pub fn ospfmon(&mut self, link: LinkId, utc: Timestamp, weight: Option<u32>) {
        let l = self.topo.link(link);
        let addr = self
            .topo
            .interface(l.a)
            .ip
            .expect("backbone links are numbered");
        let rec = RawRecord::OspfMon(OspfMonRecord {
            utc,
            link_addr: addr,
            weight,
        });
        self.push(utc, rec);
    }

    /// Emit a BGP monitor update from both reflectors (the paper's
    /// reflector-visibility approximation: the feed is what reflectors saw).
    pub fn bgpmon(
        &mut self,
        utc: Timestamp,
        prefix: grca_net_model::Prefix,
        egress: RouterId,
        attrs: Option<(u32, u32)>,
    ) {
        let egress_name = &self.names.routers[egress.index()];
        for rr in [&self.names.rr1, &self.names.rr2] {
            let rec = RawRecord::BgpMon(BgpMonRecord {
                utc,
                reflector: rr.clone(),
                prefix,
                egress_router: egress_name.clone(),
                attrs,
            });
            self.keys.push(utc);
            self.records.push(rec);
        }
    }

    /// Emit a TACACS command log entry. Known users (`netops`,
    /// `provisioning`) resolve to interned names.
    pub fn tacacs(&mut self, router: RouterId, utc: Timestamp, user: &str, command: String) {
        let rec = RawRecord::Tacacs(TacacsRecord {
            local_time: TimeZone::US_EASTERN.to_local(utc),
            router: self.names.routers[router.index()].clone(),
            user: self.names.user(user),
            command,
        });
        self.push(utc, rec);
    }

    /// Emit a workflow-system activity record.
    pub fn workflow(&mut self, router: Arc<str>, utc: Timestamp, activity: Arc<str>) {
        let rec = RawRecord::Workflow(WorkflowRecord {
            local_time: TimeZone::US_EASTERN.to_local(utc),
            router,
            activity,
        });
        self.push(utc, rec);
    }

    /// Emit one end-to-end probe sample.
    pub fn perf(
        &mut self,
        ingress: RouterId,
        egress: RouterId,
        bin_start_utc: Timestamp,
        metric: PerfMetric,
        value: f64,
    ) {
        let rec = RawRecord::Perf(PerfRecord {
            utc: bin_start_utc,
            ingress_router: self.names.routers[ingress.index()].clone(),
            egress_router: self.names.routers[egress.index()].clone(),
            metric,
            value,
        });
        self.push(bin_start_utc, rec);
    }

    /// Emit one CDN monitor sample for a (node, client site) pair.
    pub fn cdnmon(
        &mut self,
        node: CdnNodeId,
        client: ClientSiteId,
        bin_start_utc: Timestamp,
        rtt_ms: f64,
        throughput_mbps: f64,
    ) {
        let client_addr = self.topo.ext_net(client).prefix.host(10);
        let rec = RawRecord::CdnMon(CdnMonRecord {
            utc: bin_start_utc,
            node: self.names.cdn_nodes[node.index()].clone(),
            client_addr,
            rtt_ms,
            throughput_mbps,
        });
        self.push(bin_start_utc, rec);
    }

    /// Emit a CDN server-farm load sample.
    pub fn serverlog(&mut self, node: CdnNodeId, utc: Timestamp, load: f64) {
        let n = self.topo.cdn_node(node);
        let tz = self.topo.pop(n.pop).tz;
        let rec = RawRecord::ServerLog(ServerLogRecord {
            local_time: tz.to_local(utc),
            node: self.names.cdn_nodes[node.index()].clone(),
            load,
        });
        self.push(utc, rec);
    }

    // --------------------------------------------------------- conventions

    /// Deterministic per-pair baseline RTT in ms (20–80), stable across the
    /// scenario so detectors can learn it.
    pub fn base_rtt(&self, node: CdnNodeId, client: ClientSiteId) -> f64 {
        crate::background::base_rtt(node, client)
    }

    /// Deterministic baseline throughput in Mb/s (5–50).
    pub fn base_tput(&self, node: CdnNodeId, client: ClientSiteId) -> f64 {
        crate::background::base_tput(node, client)
    }

    /// Whether a router carries the hidden provisioning bug (§IV-B): a
    /// deterministic pseudo-random subset of PEs.
    pub fn is_buggy_router(&self, r: RouterId) -> bool {
        let h = (r.0 as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ self.cfg.seed;
        ((h >> 8) % 10_000) as f64 / 10_000.0 < self.cfg.buggy_router_fraction
    }

    /// The canonical location key for an eBGP session symptom (matches
    /// `Location::RouterNeighborIp` display). Memoized per session.
    pub fn session_key(&mut self, s: SessionId) -> Arc<str> {
        if let Some(k) = &self.session_keys[s.index()] {
            return k.clone();
        }
        let sess = self.topo.session(s);
        let k: Arc<str> = format!("{}:{}", self.topo.router(sess.pe).name, sess.neighbor_ip).into();
        self.session_keys[s.index()] = Some(k.clone());
        k
    }

    /// Sessions eligible for MVPN customer-flap injection: those whose
    /// (customer, PE) pair participates in some MVPN. Built lazily in
    /// O(sessions + mvpn membership) and reused for every injection —
    /// candidate order is the session-index order the old per-injection
    /// scan produced, so the RNG-driven pick stream is unchanged.
    pub fn mvpn_flap_candidates(&mut self) -> &[SessionId] {
        if self.mvpn_candidates.is_none() {
            let member: std::collections::BTreeSet<(grca_net_model::CustomerId, RouterId)> = self
                .topo
                .mvpns
                .iter()
                .flat_map(|m| m.pes.iter().map(move |&pe| (m.customer, pe)))
                .collect();
            let cands = (0..self.topo.sessions.len())
                .map(SessionId::from)
                .filter(|&s| {
                    let sess = self.topo.session(s);
                    member.contains(&(sess.customer, sess.pe))
                })
                .collect();
            self.mvpn_candidates = Some(cands);
        }
        self.mvpn_candidates.as_deref().expect("built above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultRates, ScenarioConfig};
    use grca_net_model::gen::{generate, TopoGenConfig};

    fn mk() -> (Topology, ScenarioConfig) {
        (
            generate(&TopoGenConfig::small()),
            ScenarioConfig::new(7, 11, FaultRates::zero()),
        )
    }

    #[test]
    fn poisson_mean_is_close() {
        let (topo, cfg) = mk();
        let mut sim = Sim::new(&topo, &cfg);
        for &lam in &[0.5, 5.0, 80.0] {
            let n: usize = (0..400).map(|_| sim.poisson(lam)).sum();
            let mean = n as f64 / 400.0;
            assert!(
                (mean - lam).abs() < lam.max(1.0) * 0.25,
                "lambda={lam} mean={mean}"
            );
        }
        assert_eq!(sim.poisson(0.0), 0);
    }

    #[test]
    fn uniform_time_in_window() {
        let (topo, cfg) = mk();
        let mut sim = Sim::new(&topo, &cfg);
        for _ in 0..100 {
            let t = sim.uniform_time();
            assert!(t >= cfg.start && t < cfg.end());
        }
    }

    #[test]
    fn syslog_uses_device_local_clock() {
        let (topo, cfg) = mk();
        let mut sim = Sim::new(&topo, &cfg);
        let r = topo.router_by_name("nyc-per1").unwrap();
        let utc = Timestamp::from_civil(2010, 1, 1, 12, 0, 0);
        sim.syslog(r, utc, &SyslogEvent::Restart);
        let RawRecord::Syslog(line) = &sim.records[0] else {
            panic!()
        };
        // NYC is Eastern: 12:00 UTC == 07:00 local.
        assert!(
            line.line.starts_with("2010-01-01 07:00:00"),
            "{}",
            line.line
        );
        assert_eq!(&*line.host, "nyc-per1");
        // The emission key is the true UTC instant.
        assert_eq!(sim.keys[0], utc);
    }

    #[test]
    fn snmp_uses_network_time_and_snmp_names() {
        let (topo, cfg) = mk();
        let mut sim = Sim::new(&topo, &cfg);
        let r = topo.router_by_name("lax-per1").unwrap();
        let utc = Timestamp::from_civil(2010, 1, 1, 12, 0, 0);
        sim.snmp(r, utc, SnmpMetric::CpuUtil5m, None, 42.0);
        let RawRecord::Snmp(s) = &sim.records[0] else {
            panic!()
        };
        assert_eq!(&*s.system, "LAX-PER1.ISP.NET");
        // Eastern regardless of the device's own zone.
        assert_eq!(s.local_time, TimeZone::US_EASTERN.to_local(utc));
    }

    #[test]
    fn session_key_is_memoized() {
        let (topo, cfg) = mk();
        let mut sim = Sim::new(&topo, &cfg);
        let s = SessionId::new(0);
        let a = sim.session_key(s);
        let b = sim.session_key(s);
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cache");
        let sess = topo.session(s);
        assert_eq!(
            &*a,
            format!("{}:{}", topo.router(sess.pe).name, sess.neighbor_ip)
        );
    }

    #[test]
    fn base_rtt_stable_and_bounded() {
        let (topo, cfg) = mk();
        let sim = Sim::new(&topo, &cfg);
        let n = CdnNodeId::new(0);
        for c in 0..topo.ext_nets.len() {
            let r = sim.base_rtt(n, ClientSiteId::from(c));
            assert!((20.0..=80.0).contains(&r));
            assert_eq!(r, sim.base_rtt(n, ClientSiteId::from(c)));
        }
    }

    #[test]
    fn buggy_router_fraction_is_roughly_respected() {
        let topo = generate(&TopoGenConfig::paper_scale());
        let cfg = ScenarioConfig::new(7, 11, FaultRates::zero());
        let sim = Sim::new(&topo, &cfg);
        let buggy = topo
            .provider_edges()
            .filter(|&r| sim.is_buggy_router(r))
            .count();
        let frac = buggy as f64 / 600.0;
        assert!(frac > 0.01 && frac < 0.12, "frac={frac}");
    }

    #[test]
    fn fast_fallover_assignment_prob() {
        let (topo, _) = mk();
        let cfg = ScenarioConfig::new(7, 3, FaultRates::zero());
        let sim = Sim::new(&topo, &cfg);
        let on = sim.fast_fallover.iter().filter(|&&b| b).count();
        let frac = on as f64 / sim.fast_fallover.len() as f64;
        assert!(frac > 0.3 && frac < 0.9, "frac={frac}");
    }
}
