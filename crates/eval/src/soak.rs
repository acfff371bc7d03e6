//! The long-horizon streaming soak.
//!
//! [`run_soak`] drives the online RCA path through a multi-day,
//! manifest-scheduled fault storm at a named [`TierConfig`] preset:
//!
//! 1. generate the preset topology once;
//! 2. draw one seed-deterministic [`SoakManifest`] over the whole horizon —
//!    the *injection* ground truth detection latency counts from;
//! 3. replay it day by day through [`grca_simnet::run_manifest`] (shifted
//!    `cfg.start`, per-day seed) so the generator's memory never spans the
//!    horizon, accumulating per-symptom truth with fault ids re-based onto
//!    the global schedule;
//! 4. bucket each day into [`MicroBatches`] and hand its cycles to the
//!    replay driver ([`Replay`]) over the segmented storage backend,
//!    stamping every emission with the cycle clock;
//! 5. drain past the horizon, fold the emission stream, and score the
//!    folded verdicts for accuracy ([`grca_apps::score`]) and end-to-end
//!    detection latency ([`measure`]).
//!
//! The soak reports what happened; *how* it ran is observable through the
//! `on_cycle` callback so a caller can sample footprint at cycle
//! granularity. With [`SoakRunOpts::batch_check`] it also runs the batch
//! pipeline over the complete record set and asserts the folded online
//! stream is label-identical — the smoke-preset CI test rides on that.

use crate::latency::{measure, LatencyReport, VerdictEvent};
use crate::replay::{labels, Cadence, Cycle, Replay};
use grca_apps::{score, OnlineRca, Study};
use grca_collector::{Database, StorageConfig, StorageStats};
use grca_core::{fold_stream, Emission};
use grca_net_model::TierConfig;
use grca_simnet::{
    FaultInstance, FaultRates, FeedChaos, MicroBatches, ScenarioConfig, SimBuffers, SoakManifest,
    SymptomKind, TruthRecord,
};
use grca_types::Duration;
use serde::{Deserialize, Serialize};

/// Truth-join slack, matching [`grca_apps::score`].
pub const JOIN_SLACK: Duration = Duration::mins(10);

/// Soak replay knobs.
#[derive(Debug, Clone)]
pub struct SoakRunOpts {
    /// Micro-batch cycle length (the online clock granularity — and the
    /// floor on measurable detection latency).
    pub cycle_len: Duration,
    /// Segmented storage for the online path's database; `None` keeps the
    /// flat backend (only sensible at smoke scale).
    pub storage: Option<StorageConfig>,
    /// Database retention margin (rows too old to affect any future
    /// verdict are dropped each cycle); `None` retains everything.
    pub db_retention: Option<Duration>,
    /// Also run the batch pipeline over the complete record set and check
    /// the folded online stream is label-identical. Costs a second full
    /// database — smoke scale only.
    pub batch_check: bool,
    /// Checkpoint the pipeline into this directory at cycle boundaries
    /// ([`grca_apps::checkpoint`]). Forces durable segmented storage
    /// spilling there.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence: write a barrier every this many cycles, so a
    /// restart replays at most that many cycles of input. `1` checkpoints
    /// every cycle — maximal crash-window coverage, which is what the E19
    /// kill matrix runs — while the default of `12` (twice per simulated
    /// day at the default hourly cycle) is the production-style cadence:
    /// replay-to-caught-up stays under half a day.
    pub checkpoint_every: u64,
}

impl Default for SoakRunOpts {
    fn default() -> Self {
        SoakRunOpts {
            cycle_len: Duration::hours(1),
            storage: Some(StorageConfig::default()),
            db_retention: Some(Duration::hours(12)),
            batch_check: false,
            checkpoint_dir: None,
            checkpoint_every: 12,
        }
    }
}

/// What one advance cycle looked like — handed to `on_cycle` so callers
/// can sample footprint at cycle granularity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakCycle {
    /// Simulated day (== `soak_days` during the post-horizon drain).
    pub day: u32,
    /// Global cycle index across the whole run.
    pub cycle: usize,
    pub clock_unix: i64,
    /// Records delivered this cycle (0 during the drain).
    pub records: usize,
    /// Rows currently retained in the online database.
    pub db_rows: usize,
    /// [`grca_apps::OnlineRca::state_size`] after the cycle.
    pub state_size: usize,
    /// The online database's storage counters after the cycle (`None` on
    /// the flat backend).
    pub storage: Option<StorageStats>,
}

/// Everything one soak run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakOutcome {
    pub preset: String,
    pub days: u32,
    pub pops: usize,
    pub routers: usize,
    pub interfaces: usize,
    pub sessions: usize,
    /// Subscribers the topology stands in for (sessions × per-session).
    pub subscribers: u64,
    /// Records generated and delivered across the horizon.
    pub records: usize,
    pub cycles: usize,
    /// Scheduled injections on the manifest.
    pub injections: usize,
    /// Fault instances actually registered (some scheduled provisioning
    /// activities are benign and log none).
    pub faults: usize,
    /// eBGP-flap truth records (symptoms) across the horizon.
    pub truth_flaps: usize,
    pub emissions: usize,
    pub amendments: usize,
    /// Folded (latest-per-symptom) verdicts.
    pub finals: usize,
    /// Truth-join accuracy over the folded verdicts.
    pub accuracy_matched: usize,
    pub accuracy_correct: usize,
    pub accuracy_rate: f64,
    pub latency: LatencyReport,
    /// Folded online labels == batch labels (only when `batch_check`).
    pub batch_identical: Option<bool>,
    /// Checkpoints written (0 unless [`SoakRunOpts::checkpoint_dir`]).
    pub checkpoints: usize,
}

/// Per-day scenario config: shifted start, per-day seed, preset fan-out,
/// and coarsened background bins at large router counts (baselines are
/// per-entity, so tier-1 topologies would otherwise drown the soak in
/// healthy samples).
fn day_config(tier: &TierConfig, manifest_seed: u64, routers: usize, day: u32) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(
        1,
        manifest_seed.wrapping_add(1 + day as u64),
        FaultRates::bgp_study(),
    );
    cfg.start += Duration::days(day as i64);
    cfg.background.probe_fanout = tier.probe_fanout;
    if routers > 200 {
        cfg.background.snmp_baseline_bin = Duration::hours(6);
        cfg.background.perf_baseline_bin = Duration::hours(6);
        cfg.background.cdn_baseline_bin = Duration::hours(6);
    }
    cfg
}

/// Run the soak at `tier` scale. Deterministic in `(tier, opts)`.
pub fn run_soak<F: FnMut(&SoakCycle)>(
    tier: &TierConfig,
    opts: &SoakRunOpts,
    mut on_cycle: F,
) -> SoakOutcome {
    let topo = tier.generate();
    let rates = FaultRates::bgp_study();
    let manifest_seed = tier.topo.seed ^ 0x50AC;
    let start = ScenarioConfig::new(1, 0, rates.clone()).start;
    let end = start + Duration::days(tier.soak_days as i64);
    let manifest = SoakManifest::draw(start, tier.soak_days, manifest_seed, &rates);

    let mut online = Study::Bgp.online(&topo);
    // Checkpointing needs durable segmented storage rooted at the
    // checkpoint directory; override whatever the caller configured so the
    // manifest's segment references actually resolve on restore.
    let storage = match &opts.checkpoint_dir {
        Some(dir) => Some(StorageConfig {
            spill_dir: Some(dir.clone()),
            durable: true,
            ..opts.storage.clone().unwrap_or_default()
        }),
        None => opts.storage.clone(),
    };
    if let Some(storage) = &storage {
        online = online.with_storage(storage);
    }
    if let Some(margin) = opts.db_retention {
        online = online.with_db_retention(margin);
    }
    let mut replay = Replay::new(Study::Bgp, &topo, online, opts.cycle_len, Cadence::Strict);
    if let Some(dir) = &opts.checkpoint_dir {
        replay = replay.with_checkpoints(dir, opts.checkpoint_every);
    }

    let mut truth: Vec<TruthRecord> = Vec::new();
    let mut faults: Vec<FaultInstance> = Vec::new();
    let mut emissions: Vec<Emission> = Vec::new();
    let mut batch_records: Vec<grca_telemetry::records::RawRecord> = Vec::new();
    let transport = FeedChaos::new(0); // no ops: verbatim delivery
    let mut records = 0usize;
    let mut last_clock = start;
    // Emission/keying buffers recycled across the day loop so per-day
    // generation stops reallocating (same topology every day).
    let mut bufs = SimBuffers::new();
    let threads = grca_simnet::background::default_threads();

    let mut on_replay_cycle = |day: u32, online: &OnlineRca, c: Cycle, new: Vec<Emission>| {
        emissions.extend(new);
        on_cycle(&SoakCycle {
            day,
            cycle: c.index as usize,
            clock_unix: c.clock.unix(),
            records: c.records,
            db_rows: online.database().total_rows(),
            state_size: online.state_size(),
            storage: online.database().storage_stats(),
        });
    };
    // One simulated day at a time, so neither the generator's memory nor
    // the delivery schedule ever spans the horizon.
    for day in 0..tier.soak_days {
        let cfg = day_config(tier, manifest_seed, topo.routers.len(), day);
        let slice = manifest.window(cfg.start, cfg.end());
        let out = grca_simnet::run_manifest_into(&topo, &cfg, &slice, threads, &mut bufs);

        // Re-base this day's fault ids onto the accumulated schedule so
        // `truth[i].fault` keeps indexing `faults` across days.
        let offset = faults.len();
        faults.extend(out.faults.into_iter().map(|mut f| {
            f.id += offset;
            f
        }));
        truth.extend(out.truth.into_iter().map(|mut t| {
            t.fault += offset;
            t
        }));

        if opts.batch_check {
            batch_records.extend(out.records.iter().cloned());
        }
        // Bucket by the already-known delivery keys (no re-parse, records
        // move into their cycle buckets) and deliver by move — the
        // opless transport clones nothing.
        records += out.records.len();
        let mb = MicroBatches::from_keyed(
            out.records,
            &out.delivery,
            cfg.start,
            cfg.end(),
            opts.cycle_len,
        );
        let clocks = Replay::delivery_clocks(&mb);
        let delivered = transport.deliver_owned(mb);
        debug_assert_eq!(clocks.len(), delivered.len());
        replay.run(&clocks, &delivered, |online, c, new| {
            on_replay_cycle(day, online, c, new)
        });
        last_clock = *clocks.last().expect("a day has at least one cycle");
    }
    let drain = replay.drain_clocks(last_clock, end);
    replay.run(&drain, &[], |online, c, new| {
        on_replay_cycle(tier.soak_days, online, c, new)
    });

    let folded = fold_stream(&emissions);
    let diagnoses: Vec<_> = folded.iter().map(|e| e.diagnosis.clone()).collect();
    let accuracy = score(Study::Bgp, &topo, &diagnoses, &truth);

    let events: Vec<VerdictEvent> = emissions
        .iter()
        .map(|e| VerdictEvent::from_emission(&topo, e))
        .collect();
    let truth_flaps: Vec<TruthRecord> = truth
        .iter()
        .filter(|t| t.symptom == SymptomKind::EbgpFlap)
        .cloned()
        .collect();
    let latency = measure(&truth_flaps, &faults, &events, JOIN_SLACK);

    let batch_identical = opts.batch_check.then(|| {
        let (db, _) = Database::ingest(&topo, &batch_records);
        let batch = Study::Bgp
            .run(&topo, &db)
            .expect("bgp application must validate");
        labels(&topo, &batch.diagnoses) == labels(&topo, &diagnoses)
    });

    SoakOutcome {
        preset: tier.name.to_string(),
        days: tier.soak_days,
        pops: topo.pops.len(),
        routers: topo.routers.len(),
        interfaces: topo.interfaces.len(),
        sessions: topo.sessions.len(),
        subscribers: tier.subscribers(&topo),
        records,
        cycles: replay.cycle() as usize,
        injections: manifest.len(),
        faults: faults.len(),
        truth_flaps: truth_flaps.len(),
        emissions: emissions.len(),
        amendments: emissions.iter().filter(|e| e.amends).count(),
        finals: folded.len(),
        accuracy_matched: accuracy.matched,
        accuracy_correct: accuracy.correct,
        accuracy_rate: accuracy.rate(),
        latency,
        batch_identical,
        checkpoints: replay.checkpoints(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_configs_tile_the_horizon_deterministically() {
        let tier = TierConfig::smoke();
        let c0 = day_config(&tier, 9, 16, 0);
        let c1 = day_config(&tier, 9, 16, 1);
        assert_eq!(c0.end(), c1.start);
        assert_ne!(c0.seed, c1.seed);
        assert_eq!(c0.background.probe_fanout, tier.probe_fanout);
        // Small topology keeps the native baseline cadence…
        assert_eq!(c0.background.snmp_baseline_bin, Duration::hours(2));
        // …tier-1 router counts coarsen it.
        let big = day_config(&tier, 9, 2000, 0);
        assert_eq!(big.background.snmp_baseline_bin, Duration::hours(6));
    }
}
