//! Deterministic parallel background/baseline emission.
//!
//! At tier-1 scale the background telemetry — SNMP baseline bins, e2e
//! probe baselines, CDN monitor samples, server-farm load, syslog noise —
//! is the overwhelming record majority (the injector pass is thousands of
//! records; the background is millions). It is also embarrassingly
//! parallel: no shard reads another shard's state. This module splits the
//! background into a *fixed* shard list (independent of thread count),
//! derives each shard's RNG as `hash(seed, shard_kind, shard_id)` — the
//! same idiom as `FeedChaos::rng` — and merges shard outputs by
//! concatenating them in shard order. The caller's final stable sort by
//! delivery key then yields a byte-identical stream at any thread count.
//!
//! Why the injectors stay sequential: fault injection is a tiny fraction
//! of the records but is causally entangled (routing state, flap logs,
//! session fallover draws, reverse-CPU confounders all read and mutate
//! shared simulation state in arrival order). Parallelizing it would buy
//! nothing and cost determinism; it keeps the single `Sim::rng` stream.

use crate::config::ScenarioConfig;
use crate::names::FeedNames;
use grca_net_model::{
    CdnNodeId, ClientSiteId, InterfaceId, InterfaceKind, RouterId, RouterRole, Topology,
};
use grca_telemetry::records::*;
use grca_types::hash::StableHasher;
use grca_types::{map_indexed, TimeZone, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hash::Hasher;

/// Syslog noise is striped over this many independent shards. The count is
/// a fixed constant — NOT the thread count — so the shard list (and thus
/// the record stream) is identical no matter how many workers run it. Each
/// stripe draws `Poisson(lambda / STRIPES)` arrivals; the sum of
/// independent Poissons is Poisson, so the aggregate noise process is
/// unchanged.
pub const NOISE_STRIPES: usize = 64;

// ---------------------------------------------------------------- sampling
// Free-function forms of the `Sim` samplers, usable from worker threads.

/// Poisson-distributed count with the given mean.
pub(crate) fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        // Knuth's method.
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    // Normal approximation for large means.
    let g = gauss(rng);
    (lambda + lambda.sqrt() * g).round().max(0.0) as usize
}

/// Standard normal via Box–Muller.
pub(crate) fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Uniform f64 in `[lo, hi)`.
#[inline]
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// Uniform instant within the scenario window.
fn uniform_time(rng: &mut StdRng, cfg: &ScenarioConfig) -> Timestamp {
    let span = (cfg.end() - cfg.start).as_secs();
    cfg.start + grca_types::Duration::secs(rng.random_range(0..span))
}

/// Deterministic per-pair baseline RTT in ms (20–80), stable across the
/// scenario so detectors can learn it.
pub(crate) fn base_rtt(node: CdnNodeId, client: ClientSiteId) -> f64 {
    let h = (node.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(client.0 as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    20.0 + (h % 6000) as f64 / 100.0
}

/// Deterministic baseline throughput in Mb/s (5–50).
pub(crate) fn base_tput(node: CdnNodeId, client: ClientSiteId) -> f64 {
    let h = (client.0 as u64)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(node.0 as u64);
    5.0 + (h % 4500) as f64 / 100.0
}

// ------------------------------------------------------------------ shards

/// One unit of independent background work. The variants carry the entity
/// index that seeds the shard RNG.
#[derive(Debug, Clone, Copy)]
enum Shard {
    /// Syslog noise stripe `k` of [`NOISE_STRIPES`].
    Noise(usize),
    /// SNMP CPU + per-backbone-interface bins for one router.
    Snmp(RouterId),
    /// E2e probe baseline for one designated (ingress, egress) pair.
    Perf(usize),
    /// CDN monitor baseline for one node (all client sites).
    Cdn(CdnNodeId),
    /// Server-farm load baseline for one node.
    ServerLog(CdnNodeId),
}

impl Shard {
    /// The shard's RNG, derived from `(seed, shard_kind, shard_id)` so
    /// every shard has an independent deterministic stream regardless of
    /// which worker runs it (mirrors `FeedChaos::rng`).
    fn rng(&self, seed: u64) -> StdRng {
        let (kind, id) = match self {
            Shard::Noise(k) => ("noise", *k as u64),
            Shard::Snmp(r) => ("snmp", r.0 as u64),
            Shard::Perf(p) => ("perf", *p as u64),
            Shard::Cdn(n) => ("cdn", n.0 as u64),
            Shard::ServerLog(n) => ("serverlog", n.0 as u64),
        };
        let mut h = StableHasher::new();
        h.write_u64(seed);
        h.write_str(kind);
        h.write_u64(id);
        StdRng::seed_from_u64(h.finish())
    }
}

/// Everything a background worker needs, immutable and shared.
pub struct BackgroundJob<'a> {
    pub topo: &'a Topology,
    pub cfg: &'a ScenarioConfig,
    pub names: &'a FeedNames,
    /// Designated probe pairs (`Sim::perf_pairs`), computed once by the
    /// caller since it needs the routing-capable `Sim`.
    pub perf_pairs: &'a [(RouterId, RouterId)],
}

/// Emit the full background/baseline stream for the scenario window,
/// appending `(true-UTC delivery key, record)` pairs to `out`. `threads`
/// is a worker-count hint only — the output is byte-identical for any
/// value, because the shard list and per-shard RNG streams are fixed and
/// shard outputs are merged in shard order.
pub fn emit(job: &BackgroundJob<'_>, threads: usize, out: &mut Vec<(Timestamp, RawRecord)>) {
    let shards = plan(job);
    if shards.is_empty() {
        return;
    }
    // Per-router backbone interface lists, shared by the SNMP shards.
    let mut backbone: Vec<Vec<InterfaceId>> = vec![Vec::new(); job.topo.routers.len()];
    for i in 0..job.topo.interfaces.len() {
        let iface = job.topo.interface(InterfaceId::from(i));
        if iface.kind == InterfaceKind::Backbone {
            backbone[iface.router.index()].push(InterfaceId::from(i));
        }
    }
    // Noise message bodies, one per noise type (shared by all stripes).
    let noise_bodies: Vec<String> = (0..job.cfg.noise_syslog_types)
        .map(|k| format!("%NOISE-6-T{k:03}: periodic condition type {k}"))
        .collect();

    let workers = threads.clamp(1, shards.len());
    if workers == 1 {
        // Nothing runs in parallel: no per-shard buffer, straight into `out`.
        for s in &shards {
            run_shard(job, &backbone, &noise_bodies, *s, out);
        }
        return;
    }

    // One shard per claim; outputs come back in shard order, so the
    // concatenation never depends on which worker ran what.
    let parts = map_indexed(shards.len(), workers, 1, |i| {
        let mut buf = Vec::new();
        run_shard(job, &backbone, &noise_bodies, shards[i], &mut buf);
        buf
    });
    for mut buf in parts {
        out.append(&mut buf);
    }
}

/// The fixed shard list for a scenario. Order matters: it is the canonical
/// merge order.
fn plan(job: &BackgroundJob<'_>) -> Vec<Shard> {
    let mut shards = Vec::new();
    if job.cfg.rates.noise_syslog > 0.0 && !job.topo.routers.is_empty() {
        shards.extend((0..NOISE_STRIPES).map(Shard::Noise));
    }
    if job.cfg.background.emit_baseline {
        shards.extend(
            (0..job.topo.routers.len())
                .map(RouterId::from)
                .filter(|&r| job.topo.router(r).role != RouterRole::RouteReflector)
                .map(Shard::Snmp),
        );
        shards.extend((0..job.perf_pairs.len()).map(Shard::Perf));
        shards.extend((0..job.topo.cdn_nodes.len()).map(|n| Shard::Cdn(CdnNodeId::from(n))));
        shards.extend((0..job.topo.cdn_nodes.len()).map(|n| Shard::ServerLog(CdnNodeId::from(n))));
    }
    shards
}

fn run_shard(
    job: &BackgroundJob<'_>,
    backbone: &[Vec<InterfaceId>],
    noise_bodies: &[String],
    shard: Shard,
    out: &mut Vec<(Timestamp, RawRecord)>,
) {
    let mut rng = shard.rng(job.cfg.seed);
    let topo = job.topo;
    let cfg = job.cfg;
    let names = job.names;
    let (start, end) = (cfg.start, cfg.end());
    match shard {
        Shard::Noise(_) => {
            let days = cfg.days as f64;
            let lambda = cfg.rates.noise_syslog * days / NOISE_STRIPES as f64;
            let n = poisson(&mut rng, lambda);
            out.reserve(n);
            for _ in 0..n {
                let t = uniform_time(&mut rng, cfg);
                let r = RouterId::from(rng.random_range(0..topo.routers.len()));
                let k = rng.random_range(0..cfg.noise_syslog_types);
                let local = topo.router_tz(r).to_local(t);
                let rec = RawRecord::Syslog(SyslogLine {
                    host: names.routers[r.index()].clone(),
                    line: format!("{local} {}", noise_bodies[k]),
                });
                out.push((t, rec));
            }
        }
        Shard::Snmp(r) => {
            let bin = cfg.background.snmp_baseline_bin;
            let ifaces = &backbone[r.index()];
            let system = &names.snmp[r.index()];
            let bins = ((end - start).as_secs().max(0) / bin.as_secs().max(1)) as usize + 1;
            out.reserve(bins * (1 + 2 * ifaces.len()));
            let mut t = start;
            while t < end {
                let local_time = TimeZone::US_EASTERN.to_local(t);
                let v = uniform(&mut rng, 15.0, 55.0);
                out.push((
                    t,
                    RawRecord::Snmp(SnmpSample {
                        system: system.clone(),
                        local_time,
                        metric: SnmpMetric::CpuUtil5m,
                        if_index: None,
                        value: v,
                    }),
                ));
                for &i in ifaces {
                    let if_index = Some(topo.interface(i).if_index);
                    let util = uniform(&mut rng, 20.0, 60.0);
                    out.push((
                        t,
                        RawRecord::Snmp(SnmpSample {
                            system: system.clone(),
                            local_time,
                            metric: SnmpMetric::LinkUtil5m,
                            if_index,
                            value: util,
                        }),
                    ));
                    let ovf = uniform(&mut rng, 0.0, 5.0).round();
                    out.push((
                        t,
                        RawRecord::Snmp(SnmpSample {
                            system: system.clone(),
                            local_time,
                            metric: SnmpMetric::OverflowPkts5m,
                            if_index,
                            value: ovf,
                        }),
                    ));
                }
                t += bin;
            }
        }
        Shard::Perf(p) => {
            let bin = cfg.background.perf_baseline_bin;
            let (a, b) = job.perf_pairs[p];
            let ingress = &names.routers[a.index()];
            let egress = &names.routers[b.index()];
            let mut t = start;
            while t < end {
                for (metric, lo, hi) in [
                    (PerfMetric::DelayMs, 10.0, 45.0),
                    (PerfMetric::LossPct, 0.0, 0.05),
                    (PerfMetric::ThroughputMbps, 700.0, 950.0),
                ] {
                    let value = uniform(&mut rng, lo, hi);
                    out.push((
                        t,
                        RawRecord::Perf(PerfRecord {
                            utc: t,
                            ingress_router: ingress.clone(),
                            egress_router: egress.clone(),
                            metric,
                            value,
                        }),
                    ));
                }
                t += bin;
            }
        }
        Shard::Cdn(node) => {
            let bin = cfg.background.cdn_baseline_bin;
            let name = &names.cdn_nodes[node.index()];
            let clients = topo.ext_nets.len();
            let mut t = start;
            while t < end {
                for c in 0..clients {
                    let client = ClientSiteId::from(c);
                    let rtt = base_rtt(node, client) * uniform(&mut rng, 0.95, 1.05);
                    let tput = base_tput(node, client) * uniform(&mut rng, 0.9, 1.1);
                    out.push((
                        t,
                        RawRecord::CdnMon(CdnMonRecord {
                            utc: t,
                            node: name.clone(),
                            client_addr: topo.ext_net(client).prefix.host(10),
                            rtt_ms: rtt,
                            throughput_mbps: tput,
                        }),
                    ));
                }
                t += bin;
            }
        }
        Shard::ServerLog(node) => {
            // Server load shares the CDN baseline cadence.
            let bin = cfg.background.cdn_baseline_bin;
            let name = &names.cdn_nodes[node.index()];
            let tz = topo.pop(topo.cdn_node(node).pop).tz;
            let mut t = start;
            while t < end {
                let load = uniform(&mut rng, 0.5, 1.0);
                out.push((
                    t,
                    RawRecord::ServerLog(ServerLogRecord {
                        local_time: tz.to_local(t),
                        node: name.clone(),
                        load,
                    }),
                ));
                t += bin;
            }
        }
    }
}

/// Default worker count for callers that don't specify one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultRates, ScenarioConfig};
    use grca_net_model::gen::{generate, TopoGenConfig};

    fn emit_all(threads: usize) -> Vec<(Timestamp, RawRecord)> {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 9, FaultRates::bgp_study());
        let names = FeedNames::new(&topo, cfg.noise_workflow_types);
        let sim = crate::sim::Sim::new(&topo, &cfg);
        let pairs = sim.perf_pairs();
        let job = BackgroundJob {
            topo: &topo,
            cfg: &cfg,
            names: &names,
            perf_pairs: &pairs,
        };
        let mut out = Vec::new();
        emit(&job, threads, &mut out);
        out
    }

    #[test]
    fn thread_count_does_not_change_stream() {
        let one = emit_all(1);
        assert!(!one.is_empty());
        for threads in [2, 3, 8] {
            let many = emit_all(threads);
            assert_eq!(one.len(), many.len());
            assert_eq!(one, many, "threads={threads} diverged");
        }
    }

    #[test]
    fn covers_all_background_feeds() {
        let out = emit_all(2);
        let feeds: std::collections::BTreeSet<&str> = out.iter().map(|(_, r)| r.feed()).collect();
        for f in ["syslog", "snmp", "perf", "cdnmon", "serverlog"] {
            assert!(feeds.contains(f), "missing {f}");
        }
    }

    #[test]
    fn shard_keys_are_in_window() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 9, FaultRates::bgp_study());
        let out = emit_all(1);
        for (k, _) in &out {
            assert!(*k >= cfg.start && *k < cfg.end());
        }
        let _ = topo;
    }
}
