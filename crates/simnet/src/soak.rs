//! Manifest-driven fault scheduling for long-horizon soak runs.
//!
//! [`run_scenario`](crate::run_scenario) draws its own fault arrivals, so
//! the schedule is implicit in the RNG stream and cannot be sliced, shared,
//! or inspected. A soak run needs the opposite: one explicit, ground-truth
//! schedule drawn up-front for the whole horizon, then replayed day by day
//! so the generator's memory never spans simulated weeks. [`SoakManifest`]
//! is that schedule — a seed-deterministic list of `(instant, fault kind)`
//! entries — and [`run_manifest`] replays a window of it through the same
//! injectors, confounder passes, and background telemetry the scenario
//! runner uses.
//!
//! The manifest is the *injection* ground truth: every entry's `at` is the
//! instant the fault hits the network, which is where end-to-end detection
//! latency starts counting. The per-symptom ground truth (which sessions
//! flapped, when) still comes back in [`SimOutput::truth`] with fault ids
//! linking each symptom to its injection.

use crate::config::{FaultRates, ScenarioConfig};
use crate::names::FeedNames;
use crate::scenario::{finalize, SimBuffers, SimOutput};
use crate::sim::Sim;
use grca_net_model::Topology;
use grca_telemetry::records::L1EventKind;
use grca_types::{Duration, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault kind the soak scheduler can pin to an instant. Mirrors the
/// injector set of the BGP-study scenario (each variant maps to exactly
/// one `Sim::inject_*` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoakFault {
    CustomerIfaceFlap,
    MvpnCustomerFlap,
    LineProtoFlap,
    RouterReboot,
    CpuSpike,
    CpuAverage,
    CustomerReset,
    HteUnknown,
    UnknownFlap,
    SonetRestoration,
    MeshFastRestoration,
    MeshRegularRestoration,
    LineCardCrash,
    Provisioning,
}

impl SoakFault {
    /// Every schedulable kind, in drawing order (fixed — the manifest's
    /// determinism depends on it).
    pub const ALL: [SoakFault; 14] = [
        SoakFault::CustomerIfaceFlap,
        SoakFault::MvpnCustomerFlap,
        SoakFault::LineProtoFlap,
        SoakFault::RouterReboot,
        SoakFault::CpuSpike,
        SoakFault::CpuAverage,
        SoakFault::CustomerReset,
        SoakFault::HteUnknown,
        SoakFault::UnknownFlap,
        SoakFault::SonetRestoration,
        SoakFault::MeshFastRestoration,
        SoakFault::MeshRegularRestoration,
        SoakFault::LineCardCrash,
        SoakFault::Provisioning,
    ];

    /// The daily arrival rate this kind draws from a [`FaultRates`].
    pub fn rate(self, rates: &FaultRates) -> f64 {
        match self {
            SoakFault::CustomerIfaceFlap => rates.customer_iface_flap,
            SoakFault::MvpnCustomerFlap => rates.mvpn_customer_flap,
            SoakFault::LineProtoFlap => rates.line_proto_flap,
            SoakFault::RouterReboot => rates.router_reboot,
            SoakFault::CpuSpike => rates.cpu_spike,
            SoakFault::CpuAverage => rates.cpu_average,
            SoakFault::CustomerReset => rates.customer_reset,
            SoakFault::HteUnknown => rates.hte_unknown,
            SoakFault::UnknownFlap => rates.unknown_flap,
            SoakFault::SonetRestoration => rates.sonet_restoration,
            SoakFault::MeshFastRestoration => rates.mesh_fast_restoration,
            SoakFault::MeshRegularRestoration => rates.mesh_regular_restoration,
            SoakFault::LineCardCrash => rates.line_card_crash,
            SoakFault::Provisioning => rates.provisioning_activity,
        }
    }
}

/// One scheduled injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakEntry {
    /// UTC instant the fault hits the network (detection latency counts
    /// from here).
    pub at: Timestamp,
    pub fault: SoakFault,
}

/// A seed-deterministic injection schedule over a fixed horizon.
#[derive(Debug, Clone)]
pub struct SoakManifest {
    pub start: Timestamp,
    pub end: Timestamp,
    /// Entries sorted by `at`.
    pub entries: Vec<SoakEntry>,
}

impl SoakManifest {
    /// Draw a schedule for `[start, start + days)`: per-kind Poisson
    /// arrival counts at the [`FaultRates`] daily rates, placed uniformly
    /// over the horizon. Pure function of `(start, days, seed, rates)`.
    pub fn draw(start: Timestamp, days: u32, seed: u64, rates: &FaultRates) -> SoakManifest {
        let mut rng = StdRng::seed_from_u64(seed);
        let end = start + Duration::days(days as i64);
        let span = (end - start).as_secs();
        let mut entries = Vec::new();
        for kind in SoakFault::ALL {
            let n = poisson(&mut rng, kind.rate(rates) * days as f64);
            for _ in 0..n {
                let at = start + Duration::secs(rng.random_range(0..span.max(1)));
                entries.push(SoakEntry { at, fault: kind });
            }
        }
        // Stable order: by instant, ties broken by drawing order (already
        // the case within a kind; across kinds use the ALL index implied
        // by the stable sort).
        entries.sort_by_key(|e| e.at);
        SoakManifest {
            start,
            end,
            entries,
        }
    }

    /// The entries landing in `[from, to)`, as a sub-manifest.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> SoakManifest {
        SoakManifest {
            start: from,
            end: to,
            entries: self
                .entries
                .iter()
                .filter(|e| e.at >= from && e.at < to)
                .copied()
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Knuth / normal-approximation Poisson draw (matches `Sim::poisson`).
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
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
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (lambda + lambda.sqrt() * g).round().max(0.0) as usize
}

/// Replay the manifest's entries that land inside `cfg`'s window through
/// the scenario injectors, then run the standard tail (confounders, noise,
/// background baselines, delivery ordering). The caller typically slices a
/// multi-day manifest into day-sized `cfg` windows so memory stays bounded;
/// concatenating the outputs replays the full horizon.
///
/// Injection targets (which session flaps, outage durations) are drawn from
/// `cfg.seed`'s RNG stream exactly as in a scenario run, so
/// `(topo, cfg, manifest)` fully determines the output.
pub fn run_manifest(topo: &Topology, cfg: &ScenarioConfig, manifest: &SoakManifest) -> SimOutput {
    run_manifest_threads(topo, cfg, manifest, crate::background::default_threads())
}

/// [`run_manifest`] with an explicit background worker count. Output is
/// byte-identical for every `threads` value.
pub fn run_manifest_threads(
    topo: &Topology,
    cfg: &ScenarioConfig,
    manifest: &SoakManifest,
    threads: usize,
) -> SimOutput {
    let sim = manifest_sim(topo, cfg, manifest, None);
    finalize(sim, threads, None)
}

/// [`run_manifest`] recycling emission buffers and the interned name table
/// across calls — the day-chunk loop of a soak run passes the same
/// [`SimBuffers`] for every window so per-day allocation is amortized.
/// The buffers must only be reused across windows over the same topology.
pub fn run_manifest_into(
    topo: &Topology,
    cfg: &ScenarioConfig,
    manifest: &SoakManifest,
    threads: usize,
    bufs: &mut SimBuffers,
) -> SimOutput {
    let sim = manifest_sim(topo, cfg, manifest, Some(bufs));
    finalize(sim, threads, Some(bufs))
}

/// Build the injected (pre-finalize) simulation for a manifest window,
/// optionally drawing recycled buffers from `bufs`.
fn manifest_sim<'a>(
    topo: &'a Topology,
    cfg: &'a ScenarioConfig,
    manifest: &SoakManifest,
    bufs: Option<&mut SimBuffers>,
) -> Sim<'a> {
    let mut sim = match bufs {
        Some(b) => {
            let (records, keys) = b.take_emit_buffers();
            let names = b.names().unwrap_or_else(|| {
                std::sync::Arc::new(FeedNames::new(topo, cfg.noise_workflow_types))
            });
            let routing = b.take_routing();
            Sim::with_parts(topo, cfg, names, records, keys, routing)
        }
        None => Sim::new(topo, cfg),
    };
    for e in &manifest.entries {
        if e.at < cfg.start || e.at >= cfg.end() {
            continue;
        }
        apply(&mut sim, e);
    }
    sim
}

fn apply(sim: &mut Sim<'_>, e: &SoakEntry) {
    let t = e.at;
    match e.fault {
        SoakFault::CustomerIfaceFlap => sim.inject_customer_iface_flap(t),
        SoakFault::MvpnCustomerFlap => sim.inject_mvpn_customer_flap(t),
        SoakFault::LineProtoFlap => sim.inject_line_proto_flap(t),
        SoakFault::RouterReboot => sim.inject_router_reboot(t),
        SoakFault::CpuSpike => sim.inject_cpu_spike(t),
        SoakFault::CpuAverage => sim.inject_cpu_average(t),
        SoakFault::CustomerReset => sim.inject_customer_reset(t),
        SoakFault::HteUnknown => sim.inject_hte_unknown(t),
        SoakFault::UnknownFlap => sim.inject_unknown_flap(t),
        SoakFault::SonetRestoration => sim.inject_l1_restoration(t, L1EventKind::SonetRestoration),
        SoakFault::MeshFastRestoration => {
            sim.inject_l1_restoration(t, L1EventKind::MeshFastRestoration)
        }
        SoakFault::MeshRegularRestoration => {
            sim.inject_l1_restoration(t, L1EventKind::MeshRegularRestoration)
        }
        SoakFault::LineCardCrash => {
            sim.inject_line_card_crash(t, None);
        }
        SoakFault::Provisioning => sim.inject_provisioning(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::gen::{generate, TopoGenConfig};

    fn start() -> Timestamp {
        ScenarioConfig::new(1, 0, FaultRates::zero()).start
    }

    #[test]
    fn manifest_is_deterministic_and_sorted() {
        let rates = FaultRates::bgp_study();
        let a = SoakManifest::draw(start(), 3, 42, &rates);
        let b = SoakManifest::draw(start(), 3, 42, &rates);
        assert_eq!(a.entries, b.entries);
        assert!(!a.is_empty());
        assert!(a.entries.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.entries.iter().all(|e| e.at >= a.start && e.at < a.end));

        let c = SoakManifest::draw(start(), 3, 43, &rates);
        assert_ne!(a.entries, c.entries, "seed must matter");
    }

    #[test]
    fn windows_partition_the_horizon() {
        let rates = FaultRates::bgp_study();
        let m = SoakManifest::draw(start(), 4, 7, &rates);
        let mut total = 0;
        for day in 0..4 {
            let lo = m.start + Duration::days(day);
            let w = m.window(lo, lo + Duration::days(1));
            assert!(w.entries.iter().all(|e| e.at >= lo));
            total += w.len();
        }
        assert_eq!(total, m.len());
    }

    #[test]
    fn zero_rates_draw_nothing() {
        let m = SoakManifest::draw(start(), 5, 1, &FaultRates::zero());
        assert!(m.is_empty());
    }

    #[test]
    fn run_manifest_stamps_truth_with_matching_faults() {
        let topo = generate(&TopoGenConfig::small());
        let rates = FaultRates::bgp_study();
        let cfg = ScenarioConfig::new(1, 11, rates.clone());
        let manifest = SoakManifest::draw(cfg.start, 1, 99, &rates);
        let out = run_manifest(&topo, &cfg, &manifest);
        assert!(!out.records.is_empty());
        assert!(!out.truth.is_empty());
        // Every truth record's fault id resolves, and the fault's time is a
        // manifest instant (injection timestamps survive verbatim).
        let instants: std::collections::BTreeSet<i64> =
            manifest.entries.iter().map(|e| e.at.unix()).collect();
        for t in &out.truth {
            let f = &out.faults[t.fault];
            assert_eq!(f.id, t.fault);
            assert!(
                instants.contains(&f.time.unix()),
                "fault at {:?} not on the manifest",
                f.time
            );
        }
        // Deterministic replay.
        let again = run_manifest(&topo, &cfg, &manifest);
        assert_eq!(out.records.len(), again.records.len());
        assert_eq!(out.truth, again.truth);
    }

    #[test]
    fn day_windows_replay_only_their_own_injections() {
        let topo = generate(&TopoGenConfig::small());
        let rates = FaultRates::bgp_study();
        let manifest = SoakManifest::draw(start(), 2, 5, &rates);
        for day in 0..2i64 {
            let mut cfg = ScenarioConfig::new(1, 1000 + day as u64, rates.clone());
            cfg.start = start() + Duration::days(day);
            let slice = manifest.window(cfg.start, cfg.start + Duration::days(1));
            assert!(!slice.is_empty());
            let out = run_manifest(&topo, &cfg, &slice);
            // At most one fault per applied entry (some kinds — e.g. a
            // provisioning activity off the buggy path — log no fault),
            // every fault stamped inside this day's window.
            assert!(!out.faults.is_empty());
            assert!(out.faults.len() <= slice.len());
            for f in &out.faults {
                assert!(f.time >= cfg.start && f.time < cfg.end());
            }
        }
    }
}
