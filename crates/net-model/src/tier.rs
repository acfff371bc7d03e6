//! Named tier presets for the synthetic topology generator.
//!
//! The paper's platform ran against a national tier-1 backbone; our unit
//! tests run against 16 routers. [`TierConfig`] bridges the two with three
//! named, seed-deterministic presets:
//!
//! * `smoke` — the unit-test topology (seconds to generate and soak);
//! * `default` — a mid-size backbone for CI experiment runs;
//! * `tier1` — hundreds of PoPs, thousands of routers, tens of thousands
//!   of interfaces and eBGP sessions, the scale the soak benchmark
//!   (`bench_pipeline`'s `soak-tier1` workload) exists to prove out.
//!
//! Each eBGP session stands in for an access aggregate; multiplying by
//! [`TierConfig::subscribers_per_session`] gives the subscriber population
//! the topology represents (millions at `tier1`). The preset also carries
//! the soak horizon and e2e-probe fan-out so every consumer (bench binary,
//! soak driver, CI) agrees on what a preset means.

use crate::gen::{generate, TopoGenConfig};
use crate::topology::Topology;

/// A named, fully-determined scale preset: topology shape + the scale
/// parameters the streaming soak harness layers on top.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Preset name: `"smoke"`, `"default"`, or `"tier1"`.
    pub name: &'static str,
    /// Generator parameters (seeded — the topology is a pure function).
    pub topo: TopoGenConfig,
    /// Subscribers represented by one customer eBGP session (the fan-out
    /// from modeled sessions to the user population they stand in for).
    pub subscribers_per_session: u64,
    /// Simulated soak horizon in days for this preset.
    pub soak_days: u32,
    /// End-to-end probe fan-out: each PoP's probe head measures paths to
    /// this many ring-successor PoPs (`0` = full all-pairs mesh). Caps the
    /// otherwise quadratic probe volume at tier-1 PoP counts.
    pub probe_fanout: usize,
}

impl TierConfig {
    /// Unit-test scale: the `small()` topology, two simulated days.
    pub fn smoke() -> Self {
        TierConfig {
            name: "smoke",
            topo: TopoGenConfig::small(),
            subscribers_per_session: 50,
            soak_days: 2,
            probe_fanout: 0,
        }
    }

    /// CI experiment scale: a mid-size backbone, simulated working week.
    pub fn default_preset() -> Self {
        TierConfig {
            name: "default",
            topo: TopoGenConfig {
                pops: 20,
                cores_per_pop: 2,
                pes_per_pop: 6,
                sessions_per_pe: 12,
                ports_per_card: 64,
                mvpns: 24,
                mvpn_max_pes: 6,
                cdn_nodes: 2,
                ext_nets: 80,
                sonet_fraction: 0.5,
                aps_fraction: 0.5,
                bundle_fraction: 0.3,
                pops_per_area: 5,
                seed: 2026,
            },
            subscribers_per_session: 400,
            soak_days: 6,
            probe_fanout: 4,
        }
    }

    /// Tier-1 scale: hundreds of PoPs, thousands of routers, tens of
    /// thousands of interfaces/sessions, ~8M represented subscribers.
    pub fn tier1() -> Self {
        TierConfig {
            name: "tier1",
            topo: TopoGenConfig {
                pops: 200,
                cores_per_pop: 2,
                pes_per_pop: 10,
                sessions_per_pe: 16,
                ports_per_card: 64,
                mvpns: 400,
                mvpn_max_pes: 8,
                cdn_nodes: 8,
                ext_nets: 2000,
                sonet_fraction: 0.5,
                aps_fraction: 0.5,
                bundle_fraction: 0.3,
                pops_per_area: 8,
                seed: 600,
            },
            subscribers_per_session: 250,
            soak_days: 7,
            probe_fanout: 4,
        }
    }

    /// All presets, smallest first.
    pub fn all() -> [TierConfig; 3] {
        [Self::smoke(), Self::default_preset(), Self::tier1()]
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<TierConfig> {
        Self::all().into_iter().find(|t| t.name == name)
    }

    /// The same preset regenerated from a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.topo.seed = seed;
        self
    }

    /// Generate the topology for this preset.
    pub fn generate(&self) -> Topology {
        generate(&self.topo)
    }

    /// Subscribers the generated topology stands in for.
    pub fn subscribers(&self, topo: &Topology) -> u64 {
        topo.sessions.len() as u64 * self.subscribers_per_session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        for t in TierConfig::all() {
            assert_eq!(TierConfig::by_name(t.name).unwrap().name, t.name);
        }
        assert!(TierConfig::by_name("galactic").is_none());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let t = TierConfig::default_preset().with_seed(99);
        assert_eq!(t.topo.seed, 99);
        assert_eq!(t.topo.pops, TierConfig::default_preset().topo.pops);
    }

    #[test]
    fn smoke_preset_matches_unit_test_scale() {
        let t = TierConfig::smoke();
        let topo = t.generate();
        assert_eq!(topo.pops.len(), 4);
        assert_eq!(t.subscribers(&topo), topo.sessions.len() as u64 * 50);
    }
}
