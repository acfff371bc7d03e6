//! Top-level scenario runner: Poisson fault arrivals, confounder passes,
//! background telemetry, and the final [`SimOutput`].
//!
//! Record generation is split into two passes (see DESIGN.md §13):
//!
//! 1. **Injector pass** (sequential): fault arrivals and their telemetry,
//!    drawn from the single `Sim::rng` stream in arrival order. Causally
//!    entangled, tiny record count.
//! 2. **Background pass** (parallel): baselines and noise, sharded per
//!    entity with per-shard RNGs ([`crate::background`]). The dominant
//!    record volume at tier-1 scale.
//!
//! Both passes key every record with its true UTC emission instant, so
//! delivery ordering is one stable sort — no re-parsing records to recover
//! their clocks.

use crate::background::{self, BackgroundJob};
use crate::config::ScenarioConfig;
use crate::names::FeedNames;
use crate::sim::Sim;
use crate::truth::{FaultInstance, TruthRecord};
use grca_net_model::Topology;
use grca_telemetry::records::{L1EventKind, RawRecord};
use grca_types::Timestamp;
use std::sync::Arc;

/// Everything a scenario produces. `records` is what the Data Collector
/// ingests; `truth`/`faults` are for experiment scoring only.
pub struct SimOutput {
    pub records: Vec<RawRecord>,
    /// True UTC delivery instant of each record, parallel to `records`
    /// (jitter included). Consumers that bucket records by time can use
    /// this directly instead of re-deriving the instant from the record.
    pub delivery: Vec<Timestamp>,
    pub truth: Vec<TruthRecord>,
    pub faults: Vec<FaultInstance>,
}

/// Recyclable scenario buffers: pass the same instance to consecutive
/// windows (e.g. the day-chunks of a soak manifest) and each run reuses
/// the previous run's emission/keying capacity, the interned name table,
/// and the warmed routing state (frozen between windows) instead of
/// rebuilding them. The contents are keyed by nothing — callers must
/// reuse a `SimBuffers` only across runs over the *same* topology and
/// `noise_workflow_types`.
#[derive(Default)]
pub struct SimBuffers {
    records: Vec<RawRecord>,
    keys: Vec<Timestamp>,
    keyed: Vec<(Timestamp, RawRecord)>,
    names: Option<Arc<FeedNames>>,
    /// Baseline routing frozen by the previous window's [`finalize`].
    /// Thawing it back hands the next window a warm reconvergence path
    /// cache — the dominant per-window construction cost at tier-1 scale
    /// (per-source SPF over thousands of routers). Cache entries affect
    /// speed only, never answers, so reuse is output-invisible.
    routing: Option<grca_routing::FrozenRoutingState>,
}

impl SimBuffers {
    pub fn new() -> Self {
        SimBuffers::default()
    }

    /// Take the recycled emission buffers (records + keys), leaving empty
    /// vecs behind; [`finalize`] puts them back when the run completes.
    pub(crate) fn take_emit_buffers(&mut self) -> (Vec<RawRecord>, Vec<Timestamp>) {
        (
            std::mem::take(&mut self.records),
            std::mem::take(&mut self.keys),
        )
    }

    /// The cached interned name table, if a previous run built one.
    pub(crate) fn names(&self) -> Option<Arc<FeedNames>> {
        self.names.clone()
    }

    /// Take the frozen routing state left by the previous window, if any.
    pub(crate) fn take_routing(&mut self) -> Option<grca_routing::FrozenRoutingState> {
        self.routing.take()
    }
}

/// Run a complete scenario over `topo` with the default worker count.
pub fn run_scenario(topo: &Topology, cfg: &ScenarioConfig) -> SimOutput {
    run_scenario_threads(topo, cfg, background::default_threads())
}

/// Run a complete scenario with an explicit background worker count. The
/// output is byte-identical for every `threads` value.
pub fn run_scenario_threads(topo: &Topology, cfg: &ScenarioConfig, threads: usize) -> SimOutput {
    let mut sim = Sim::new(topo, cfg);
    inject_arrivals(&mut sim);
    finalize(sim, threads, None)
}

/// Draw Poisson arrival counts per fault kind and inject at uniform times
/// (the sequential pass; shared by the scenario runner and the manifest
/// replayer's window filter).
pub(crate) fn inject_arrivals(sim: &mut Sim<'_>) {
    let cfg = sim.cfg;
    let days = cfg.days as f64;

    macro_rules! arrivals {
        ($rate:expr, $inject:expr) => {{
            let n = sim.poisson($rate * days);
            for _ in 0..n {
                let t = sim.uniform_time();
                #[allow(clippy::redundant_closure_call)]
                ($inject)(&mut *sim, t);
            }
        }};
    }

    arrivals!(cfg.rates.customer_iface_flap, |s: &mut Sim, t| s
        .inject_customer_iface_flap(t));
    arrivals!(cfg.rates.mvpn_customer_flap, |s: &mut Sim, t| s
        .inject_mvpn_customer_flap(t));
    arrivals!(cfg.rates.line_proto_flap, |s: &mut Sim, t| s
        .inject_line_proto_flap(t));
    arrivals!(cfg.rates.router_reboot, |s: &mut Sim, t| s
        .inject_router_reboot(t));
    arrivals!(cfg.rates.cpu_spike, |s: &mut Sim, t| s.inject_cpu_spike(t));
    arrivals!(cfg.rates.cpu_average, |s: &mut Sim, t| s
        .inject_cpu_average(t));
    arrivals!(cfg.rates.customer_reset, |s: &mut Sim, t| s
        .inject_customer_reset(t));
    arrivals!(cfg.rates.hte_unknown, |s: &mut Sim, t| s
        .inject_hte_unknown(t));
    arrivals!(cfg.rates.unknown_flap, |s: &mut Sim, t| s
        .inject_unknown_flap(t));
    arrivals!(cfg.rates.sonet_restoration, |s: &mut Sim, t| {
        s.inject_l1_restoration(t, L1EventKind::SonetRestoration)
    });
    arrivals!(cfg.rates.mesh_fast_restoration, |s: &mut Sim, t| {
        s.inject_l1_restoration(t, L1EventKind::MeshFastRestoration)
    });
    arrivals!(cfg.rates.mesh_regular_restoration, |s: &mut Sim, t| {
        s.inject_l1_restoration(t, L1EventKind::MeshRegularRestoration)
    });
    arrivals!(cfg.rates.line_card_crash, |s: &mut Sim, t| {
        s.inject_line_card_crash(t, None);
    });
    arrivals!(
        cfg.rates.provisioning_activity + cfg.rates.noise_workflow,
        |s: &mut Sim, t| s.inject_provisioning(t)
    );
    arrivals!(cfg.rates.backbone_link_failure, |s: &mut Sim, t| {
        s.inject_backbone_link_failure(t)
    });
    arrivals!(cfg.rates.link_cost_out_maint, |s: &mut Sim, t| s
        .inject_link_cost_out_maint(t));
    arrivals!(cfg.rates.router_cost_out_maint, |s: &mut Sim, t| {
        s.inject_router_cost_out_maint(t)
    });
    arrivals!(cfg.rates.ospf_weight_change, |s: &mut Sim, t| s
        .inject_ospf_weight_change(t));
    arrivals!(cfg.rates.link_congestion, |s: &mut Sim, t| s
        .inject_link_congestion(t));
    arrivals!(cfg.rates.link_loss, |s: &mut Sim, t| s.inject_link_loss(t));
    arrivals!(cfg.rates.egress_change, |s: &mut Sim, t| s
        .inject_egress_change(t));
    arrivals!(cfg.rates.cdn_policy_change, |s: &mut Sim, t| s
        .inject_cdn_policy_change(t));
    arrivals!(cfg.rates.cdn_server_issue, |s: &mut Sim, t| s
        .inject_cdn_server_issue(t));
    arrivals!(cfg.rates.external_rtt_degradation, |s: &mut Sim, t| s
        .inject_external_rtt(t));
    arrivals!(cfg.rates.pim_config_change, |s: &mut Sim, t| s
        .inject_pim_config_change(t));
    arrivals!(cfg.rates.uplink_pim_loss, |s: &mut Sim, t| s
        .inject_uplink_pim_loss(t));
}

/// The common scenario tail: confounder pass, parallel background
/// emission, jitter, and one stable sort by delivery key. With `recycle`,
/// the run's working buffers are returned to the caller's [`SimBuffers`]
/// for the next window.
pub(crate) fn finalize(
    mut sim: Sim<'_>,
    threads: usize,
    mut recycle: Option<&mut SimBuffers>,
) -> SimOutput {
    let topo = sim.topo;
    let cfg = sim.cfg;

    // Confounder pass (still part of the sequential stream).
    sim.reverse_cpu_pass();

    // Probe pairs for the background job (needs the routing-aware `Sim`).
    let pairs = sim.perf_pairs();

    // Move the injector pass's keyed records into the merge buffer. Using
    // `drain` (not `into_iter`) keeps the emission buffers' capacity so
    // they can be handed back to the caller for the next window.
    let mut records = std::mem::take(&mut sim.records);
    let mut keys = std::mem::take(&mut sim.keys);
    let mut keyed: Vec<(Timestamp, RawRecord)> = match recycle.as_deref_mut() {
        Some(b) => {
            let mut k = std::mem::take(&mut b.keyed);
            k.clear();
            k
        }
        None => Vec::new(),
    };
    keyed.reserve(records.len());
    keyed.extend(keys.drain(..).zip(records.drain(..)));

    // Background pass: fixed shards, per-shard RNGs, canonical merge
    // order. Byte-identical for any worker count.
    let job = BackgroundJob {
        topo,
        cfg,
        names: &sim.names,
        perf_pairs: &pairs,
    };
    background::emit(&job, threads, &mut keyed);

    // Arrival jitter is drawn sequentially from the scenario RNG over the
    // canonical (pre-sort) merge order, so it too is independent of the
    // worker count.
    let jitter = cfg.arrival_jitter.as_secs();
    if jitter > 0 {
        for (k, _) in keyed.iter_mut() {
            *k += grca_types::Duration::secs(sim.uniform(0.0, jitter as f64) as i64);
        }
    }

    // One stable sort by delivery key orders the merged stream; ties keep
    // the canonical merge order, so the result is deterministic.
    keyed.sort_by_key(|(k, _)| *k);
    let mut out_records = Vec::with_capacity(keyed.len());
    let mut delivery = Vec::with_capacity(keyed.len());
    for (k, r) in keyed.drain(..) {
        delivery.push(k);
        out_records.push(r);
    }

    if let Some(b) = recycle {
        b.records = records;
        b.keys = keys;
        b.keyed = keyed;
        if b.names.is_none() {
            b.names = Some(sim.names.clone());
        }
        b.routing = Some(sim.routing.freeze());
    }

    SimOutput {
        records: out_records,
        delivery,
        truth: sim.truth,
        faults: sim.faults,
    }
}

/// The UTC emission instant of a raw record, recovered by inverting each
/// feed's clock convention (the same logic the collector applies).
pub fn approx_utc(topo: &Topology, r: &RawRecord) -> grca_types::Timestamp {
    use grca_types::{TimeZone, Timestamp};
    match r {
        RawRecord::Syslog(l) => {
            let local = grca_telemetry::syslog::split_line(&l.line)
                .map(|(t, _)| t)
                .unwrap_or(Timestamp(0));
            match topo.router_by_name(&l.host) {
                Some(router) => topo.router_tz(router).to_utc(local),
                None => local,
            }
        }
        RawRecord::Snmp(x) => TimeZone::US_EASTERN.to_utc(x.local_time),
        RawRecord::L1Log(x) => match topo.l1dev_by_name(&x.device) {
            Some(d) => topo.pop(topo.l1_device(d).pop).tz.to_utc(x.local_time),
            None => x.local_time,
        },
        RawRecord::OspfMon(x) => x.utc,
        RawRecord::BgpMon(x) => x.utc,
        RawRecord::Tacacs(x) => TimeZone::US_EASTERN.to_utc(x.local_time),
        RawRecord::Workflow(x) => TimeZone::US_EASTERN.to_utc(x.local_time),
        RawRecord::Perf(x) => x.utc,
        RawRecord::CdnMon(x) => x.utc,
        RawRecord::ServerLog(x) => match topo.cdn_node_by_name(&x.node) {
            Some(node) => topo.pop(topo.cdn_node(node).pop).tz.to_utc(x.local_time),
            None => x.local_time,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultRates;
    use crate::truth::{breakdown, RootCause, SymptomKind};
    use grca_net_model::gen::{generate, TopoGenConfig};

    #[test]
    fn bgp_scenario_produces_flap_mix() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(10, 5, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        assert!(!out.records.is_empty());
        let flaps: Vec<_> = out
            .truth
            .iter()
            .filter(|t| t.symptom == SymptomKind::EbgpFlap)
            .collect();
        assert!(flaps.len() > 100, "got {}", flaps.len());
        let b = breakdown(&out.truth, SymptomKind::EbgpFlap);
        let share = |c: RootCause| {
            b.iter()
                .find(|(k, _, _)| *k == c)
                .map(|(_, _, p)| *p)
                .unwrap_or(0.0)
        };
        // Interface flaps dominate, as in Table IV.
        assert!(share(RootCause::InterfaceFlap) > 35.0);
        assert!(share(RootCause::InterfaceFlap) < 85.0);
        assert!(share(RootCause::LineProtocolFlap) > 2.0);
        assert!(share(RootCause::Unknown) > 2.0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(3, 77, FaultRates::bgp_study());
        let a = run_scenario(&topo, &cfg);
        let b = run_scenario(&topo, &cfg);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records, b.records);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.faults, b.faults);
    }

    /// The delivery keys are sorted (records arrive in delivery order) and
    /// parallel to the record stream.
    #[test]
    fn delivery_keys_are_sorted_and_parallel() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(3, 77, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        assert_eq!(out.delivery.len(), out.records.len());
        assert!(out.delivery.windows(2).all(|w| w[0] <= w[1]));
        // Without jitter the key equals the record's recovered UTC instant.
        for (k, r) in out.delivery.iter().zip(&out.records).take(500) {
            assert_eq!(*k, approx_utc(&topo, r), "{r:?}");
        }
    }

    /// Arrival jitter reorders delivery but invents or loses nothing: the
    /// record multiset and the ground truth are unchanged, and some
    /// adjacent pair really is out of timestamp order.
    #[test]
    fn arrival_jitter_permutes_without_loss() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(3, 77, FaultRates::bgp_study());
        let ordered = run_scenario(&topo, &cfg);
        let mut jittered_cfg = cfg.clone();
        jittered_cfg.arrival_jitter = grca_types::Duration::mins(10);
        let jittered = run_scenario(&topo, &jittered_cfg);
        assert_eq!(ordered.truth, jittered.truth);
        assert_eq!(ordered.records.len(), jittered.records.len());
        let key = |r: &RawRecord| format!("{r:?}");
        let mut a: Vec<String> = ordered.records.iter().map(key).collect();
        let mut b: Vec<String> = jittered.records.iter().map(key).collect();
        assert_ne!(a, b, "10-minute jitter should reorder delivery");
        a.sort();
        b.sort();
        assert_eq!(a, b, "jitter must only permute records");
        let times: Vec<_> = jittered
            .records
            .iter()
            .map(|r| approx_utc(&topo, r))
            .collect();
        assert!(
            times.windows(2).any(|w| w[0] > w[1]),
            "jittered delivery should contain out-of-order timestamps"
        );
    }

    #[test]
    fn cdn_scenario_majority_external() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(15, 5, FaultRates::cdn_study());
        let out = run_scenario(&topo, &cfg);
        let b = breakdown(&out.truth, SymptomKind::CdnDegradation);
        let ext = b
            .iter()
            .find(|(k, _, _)| *k == RootCause::ExternalDegradation)
            .map(|(_, _, p)| *p)
            .unwrap_or(0.0);
        assert!(ext > 35.0, "external share {ext}");
    }

    #[test]
    fn pim_scenario_dominated_by_customer_flaps() {
        let topo = generate(&TopoGenConfig::default());
        let cfg = ScenarioConfig::new(14, 5, FaultRates::pim_study());
        let out = run_scenario(&topo, &cfg);
        let pim: Vec<_> = out
            .truth
            .iter()
            .filter(|t| t.symptom == SymptomKind::PimAdjChange)
            .collect();
        assert!(pim.len() > 50, "got {}", pim.len());
        let b = breakdown(&out.truth, SymptomKind::PimAdjChange);
        let top = b
            .iter()
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        assert_eq!(top.0, RootCause::InterfaceFlap, "{b:?}");
    }

    #[test]
    fn background_baseline_present() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 5, FaultRates::zero());
        let out = run_scenario(&topo, &cfg);
        let feeds: std::collections::BTreeSet<&str> =
            out.records.iter().map(|r| r.feed()).collect();
        for f in ["snmp", "perf", "cdnmon", "serverlog"] {
            assert!(feeds.contains(f), "missing {f}");
        }
    }

    #[test]
    fn zero_rates_produce_no_truth() {
        let topo = generate(&TopoGenConfig::small());
        let mut cfg = ScenarioConfig::new(2, 5, FaultRates::zero());
        cfg.background.emit_baseline = false;
        let out = run_scenario(&topo, &cfg);
        assert!(out.truth.is_empty());
        assert!(out.faults.is_empty());
        assert!(out.records.is_empty());
    }
}
