//! The golden scenario corpus: named, seed-pinned scenario configurations
//! spanning the paper's three studies plus adversarial telemetry variants.
//!
//! Every entry is fully determined by its fields — fixed topology preset,
//! fixed seed, fixed fault mix, deterministic mutation — so two runs of
//! the same corpus entry produce byte-identical telemetry and therefore
//! identical metrics. Changing an entry (or the platform's behaviour on
//! it) shows up as a diff against the committed golden baseline.

use crate::mutate::Mutation;
use grca_apps::Study;
use grca_collector::{Database, IngestStats};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::Topology;
use grca_simnet::{run_scenario, FaultRates, FeedChaos, MicroBatches, ScenarioConfig, SimOutput};
use grca_telemetry::records::RawRecord;
use grca_types::Duration;

/// Which generated topology a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoPreset {
    /// [`TopoGenConfig::small`] — 4 PoPs, fast enough for unit tests.
    Small,
    /// [`TopoGenConfig::default`] — 10 PoPs, the mid-size fixture.
    Default,
}

impl TopoPreset {
    pub fn config(self) -> TopoGenConfig {
        match self {
            TopoPreset::Small => TopoGenConfig::small(),
            TopoPreset::Default => TopoGenConfig::default(),
        }
    }

    pub fn tag(self) -> &'static str {
        match self {
            TopoPreset::Small => "small",
            TopoPreset::Default => "default",
        }
    }
}

/// One named, seed-pinned golden scenario.
#[derive(Debug, Clone)]
pub struct GoldenScenario {
    pub name: &'static str,
    pub study: Study,
    pub topo: TopoPreset,
    pub days: u32,
    pub seed: u64,
    /// Multiplier on the study's syslog/workflow noise volumes.
    pub noise_factor: f64,
    /// Model a fleet without BGP fast external fallover: sessions ride out
    /// short outages and flaps become hold-timer-dominated (§III-A).
    pub slow_fallover: bool,
    /// Raw-feed corruption applied before ingestion.
    pub mutation: Mutation,
}

impl GoldenScenario {
    const fn new(name: &'static str, study: Study, topo: TopoPreset, days: u32, seed: u64) -> Self {
        GoldenScenario {
            name,
            study,
            topo,
            days,
            seed,
            noise_factor: 1.0,
            slow_fallover: false,
            mutation: Mutation::None,
        }
    }

    fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = m;
        self
    }

    /// The study's calibrated fault mix, with this scenario's noise factor.
    pub fn rates(&self) -> FaultRates {
        let mut r = match self.study {
            Study::Bgp => FaultRates::bgp_study(),
            Study::Cdn => FaultRates::cdn_study(),
            Study::Pim => FaultRates::pim_study(),
        };
        r.noise_syslog *= self.noise_factor;
        r.noise_workflow *= self.noise_factor;
        r
    }

    /// The complete scenario configuration (seed-pinned).
    pub fn scenario_config(&self) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(self.days, self.seed, self.rates());
        if self.slow_fallover {
            cfg.fast_fallover_prob = 0.15;
            cfg.iface_outage_mean_secs = 120.0;
        }
        cfg
    }

    /// Simulate, corrupt and ingest: everything the oracle needs.
    pub fn build(&self) -> BuiltScenario {
        let topo = generate(&self.topo.config());
        let cfg = self.scenario_config();
        let mut out = run_scenario(&topo, &cfg);
        out.records = self.mutation.apply(std::mem::take(&mut out.records));
        let mut db = Database::default();
        let mut stats = IngestStats::default();
        db.ingest_more(&topo, &out.records, &mut stats);
        BuiltScenario {
            topo,
            out,
            db,
            stats,
        }
    }

    /// `built`'s records on the `cycle_len` micro-batch grid, and what the
    /// collector receives each cycle once `chaos` has perturbed delivery.
    pub fn deliver(
        &self,
        built: &BuiltScenario,
        chaos: &FeedChaos,
        cycle_len: Duration,
    ) -> (MicroBatches, Vec<Vec<RawRecord>>) {
        let cfg = self.scenario_config();
        let mb = MicroBatches::new(
            &built.topo,
            &built.out.records,
            cfg.start,
            cfg.end(),
            cycle_len,
        );
        let delivered = chaos.deliver(&mb);
        (mb, delivered)
    }
}

/// A scenario rendered to concrete telemetry and ingested.
pub struct BuiltScenario {
    pub topo: Topology,
    pub out: SimOutput,
    pub db: Database,
    pub stats: IngestStats,
}

/// The golden corpus. Names, seeds and mutations are part of the contract:
/// renaming or reseeding an entry invalidates its committed baseline row.
pub fn corpus() -> Vec<GoldenScenario> {
    use Mutation::*;
    use Study::*;
    use TopoPreset::*;
    vec![
        // --- BGP flap study (Table IV) ---
        GoldenScenario::new("bgp-baseline", Bgp, Small, 10, 101),
        GoldenScenario {
            noise_factor: 3.0,
            ..GoldenScenario::new("bgp-noise-heavy", Bgp, Small, 10, 102)
        },
        GoldenScenario {
            slow_fallover: true,
            ..GoldenScenario::new("bgp-slow-fallover", Bgp, Small, 10, 103)
        },
        GoldenScenario::new("bgp-clock-skew", Bgp, Small, 10, 104)
            .with_mutation(ClockSkewSyslog { secs: 45 }),
        GoldenScenario::new("bgp-divergent-naming", Bgp, Small, 10, 105)
            .with_mutation(DivergentNaming { stride: 4 }),
        GoldenScenario::new("bgp-duplicate-feeds", Bgp, Small, 10, 106)
            .with_mutation(DuplicateRecords { stride: 3 }),
        // --- CDN RTT study (Table VI) ---
        GoldenScenario::new("cdn-baseline", Cdn, Small, 15, 201),
        GoldenScenario::new("cdn-dropped-feeds", Cdn, Small, 15, 202)
            .with_mutation(DropRecords { stride: 7 }),
        GoldenScenario::new("cdn-tz-confused-snmp", Cdn, Small, 15, 203)
            .with_mutation(TimezoneConfusedSnmp { stride: 2 }),
        // --- PIM adjacency study (Table VIII) ---
        GoldenScenario::new("pim-baseline", Pim, Default, 10, 301),
        GoldenScenario::new("pim-clock-skew", Pim, Default, 10, 302)
            .with_mutation(ClockSkewSyslog { secs: 90 }),
        GoldenScenario::new("pim-duplicate-feeds", Pim, Default, 10, 303)
            .with_mutation(DuplicateRecords { stride: 2 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_and_seeds_are_unique() {
        let c = corpus();
        assert!(c.len() >= 12, "corpus shrank to {}", c.len());
        let names: std::collections::BTreeSet<_> = c.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), c.len(), "duplicate scenario names");
        let seeds: std::collections::BTreeSet<_> = c.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), c.len(), "duplicate scenario seeds");
    }

    #[test]
    fn corpus_covers_all_studies_and_adversarial_variants() {
        let c = corpus();
        for study in [Study::Bgp, Study::Cdn, Study::Pim] {
            assert!(c
                .iter()
                .any(|s| s.study == study && s.mutation == Mutation::None));
            assert!(c
                .iter()
                .any(|s| s.study == study && s.mutation != Mutation::None));
        }
    }

    #[test]
    fn small_scenario_builds_and_ingests() {
        let s = &corpus()[0];
        let built = s.build();
        assert!(!built.out.records.is_empty());
        assert!(!built.out.truth.is_empty());
        assert_eq!(built.stats.total_dropped(), 0, "clean feed must not drop");
    }
}
