//! The three soak workloads: the BGP study streamed through
//! `OnlineRca::advance` in micro-batch cycles, closed loop, one thread.
//!
//! * `soak-tier1` — tier-1 topology, hourly cycles, clean delivery;
//! * `soak-fine` — default topology, 5-minute cycles (per-cycle fixed cost
//!   dominates, per-record cost almost vanishes);
//! * `soak-hostile` — `soak-tier1`'s input through a seeded chaos
//!   transport into durable storage, checkpointing every 12 cycles, with
//!   one crash / restore / replay.
//!
//! The untraced driver here calls only top-level entry points
//! (`OnlineRca::advance`, `checkpoint::{checkpoint, restore}`); the staged
//! driver of the traced run lives in [`crate::soak_staged`].

use crate::host::{Probes, PROBE_EVERY_NS};
use crate::quality::Quality;
use crate::stats::{median, percentile, sorted, tail_or_supported};
use crate::{Args, Outcome};
use grca_apps::{bgp, checkpoint, OnlineRca, Study};
use grca_collector::{Database, DurableStore, StorageConfig};
use grca_core::{fold_stream, Emission};
use grca_eval::chaos::{eventual_ops, STRICT_CADENCE};
use grca_eval::latency::VerdictEvent;
use grca_net_model::{NullOracle, TierConfig, Topology};
use grca_simnet::{
    FaultInstance, FaultRates, FeedChaos, MicroBatches, ScenarioConfig, SimBuffers, SoakManifest,
    TruthRecord,
};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, Timestamp};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Checkpoint cadence of the durable workload, in cycles (twice per
/// simulated day at hourly cycles — `SoakRunOpts::checkpoint_every`).
pub const CHECKPOINT_EVERY: usize = 12;
/// Cycles replayed after the crash: it hits this many cycles past a
/// checkpoint barrier.
pub const CRASH_TAIL: usize = 7;
/// Database retention margin (`SoakRunOpts::default().db_retention`).
pub const DB_RETENTION: Duration = Duration::hours(12);

/// What distinguishes the soak workloads.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    pub tier: TierConfig,
    pub days: u32,
    pub cycle_len: Duration,
    /// Chaos transport + durable storage + checkpoints + one crash.
    pub hostile: bool,
}

impl SoakSpec {
    pub fn for_workload(name: &str, smoke: bool) -> SoakSpec {
        let (tier, cycle_len, hostile) = match name {
            "soak-tier1" => (TierConfig::tier1(), Duration::hours(1), false),
            "soak-fine" => (TierConfig::default_preset(), Duration::mins(5), false),
            "soak-hostile" => (TierConfig::tier1(), Duration::hours(1), true),
            other => panic!("not a soak workload: {other}"),
        };
        if smoke {
            // Same pipeline and cadences over the unit-test topology.
            return SoakSpec {
                tier: TierConfig::smoke(),
                days: 2,
                cycle_len,
                hostile,
            };
        }
        // A hostile pass also pays for a restore and a replay, so it covers
        // two days where the clean ones cover three: the run fits as many
        // passes of either, and the best-of-passes timing is as steady.
        SoakSpec {
            tier,
            days: if hostile { 2 } else { 3 },
            cycle_len,
            hostile,
        }
    }

    /// The cycle after which the hostile pipeline is dropped.
    pub fn crash_cycle(&self, ingest_cycles: usize) -> Option<usize> {
        self.hostile.then(|| {
            let barrier = (ingest_cycles * 3 / 4 / CHECKPOINT_EVERY) * CHECKPOINT_EVERY;
            barrier + CRASH_TAIL - 1
        })
    }
}

/// Everything generated from `--seed`: the delivery schedule the program
/// sees and the ground truth it never does.
pub struct SoakInput {
    pub topo: Topology,
    pub end: Timestamp,
    /// Records delivered in each ingest cycle (after the chaos transport).
    pub cycles: Vec<Vec<RawRecord>>,
    /// The clock at the end of each ingest cycle.
    pub clocks: Vec<Timestamp>,
    /// The unperturbed schedule, kept only when the transport perturbs
    /// delivery — the reference database is built from the complete,
    /// once-each record set, not from what chaos delivered.
    pub pristine: Vec<MicroBatches>,
    pub truth: Vec<TruthRecord>,
    pub faults: Vec<FaultInstance>,
    /// Records generated (each once, before any duplication).
    pub generated: usize,
    pub gen_secs: f64,
}

impl SoakInput {
    pub fn delivered(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    /// What cycle `cycle` of the schedule delivers: nothing in the drain.
    pub fn delivery(&self, cycle: usize) -> &[RawRecord] {
        self.cycles.get(cycle).map_or(&[], Vec::as_slice)
    }
}

/// Per-day scenario config, as `grca_eval::soak` builds it: shifted start,
/// per-day seed, preset probe fan-out, coarse baselines at tier-1 size.
fn day_config(spec: &SoakSpec, manifest_seed: u64, routers: usize, day: u32) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(
        1,
        manifest_seed.wrapping_add(1 + day as u64),
        FaultRates::bgp_study(),
    );
    cfg.start += Duration::days(day as i64);
    cfg.background.probe_fanout = spec.tier.probe_fanout;
    if routers > 200 {
        cfg.background.snmp_baseline_bin = Duration::hours(6);
        cfg.background.perf_baseline_bin = Duration::hours(6);
        cfg.background.cdn_baseline_bin = Duration::hours(6);
    }
    cfg
}

/// Generate the workload's inputs. `seed` drives the fault manifest, the
/// per-day scenario seeds and the chaos seed; the topology preset is fixed.
pub fn generate(spec: &SoakSpec, seed: u64) -> SoakInput {
    let topo = spec.tier.generate();
    let rates = FaultRates::bgp_study();
    let manifest_seed = seed ^ 0x50AC;
    let start = ScenarioConfig::new(1, 0, rates.clone()).start;
    let end = start + Duration::days(spec.days as i64);
    let manifest = SoakManifest::draw(start, spec.days, manifest_seed, &rates);
    let threads = grca_simnet::background::default_threads();
    let mut bufs = SimBuffers::new();

    let mut input = SoakInput {
        topo,
        end,
        cycles: Vec::new(),
        clocks: Vec::new(),
        pristine: Vec::new(),
        truth: Vec::new(),
        faults: Vec::new(),
        generated: 0,
        gen_secs: 0.0,
    };
    for day in 0..spec.days {
        let t0 = Instant::now();
        let cfg = day_config(spec, manifest_seed, input.topo.routers.len(), day);
        let slice = manifest.window(cfg.start, cfg.end());
        let out = grca_simnet::run_manifest_into(&input.topo, &cfg, &slice, threads, &mut bufs);
        input.gen_secs += t0.elapsed().as_secs_f64();

        // Re-base the day's fault ids onto the accumulated schedule.
        let offset = input.faults.len();
        input.faults.extend(out.faults.into_iter().map(|mut f| {
            f.id += offset;
            f
        }));
        input.truth.extend(out.truth.into_iter().map(|mut t| {
            t.fault += offset;
            t
        }));
        input.generated += out.records.len();

        let mb = MicroBatches::from_keyed(
            out.records,
            &out.delivery,
            cfg.start,
            cfg.end(),
            spec.cycle_len,
        );
        for i in 0..mb.cycles() {
            input.clocks.push(mb.clock(i));
        }
        if spec.hostile {
            let chaos = FeedChaos {
                seed: seed.wrapping_add(day as u64),
                ops: eventual_ops(Study::Bgp, mb.cycles()),
            };
            input.cycles.extend(chaos.deliver(&mb));
            input.pristine.push(mb);
        } else {
            input.cycles.extend(FeedChaos::new(0).deliver_owned(mb));
        }
    }
    input
}

/// A fresh pipeline in the soak configuration: BGP study, segmented
/// storage, 12 h retention margin, strict 30 s feed cadence.
pub fn pipeline<'a>(topo: &'a Topology, storage: &StorageConfig) -> OnlineRca<'a> {
    let mut online = OnlineRca::new(topo, bgp::event_definitions(), bgp::diagnosis_graph())
        .expect("BGP study graph validates")
        .with_storage(storage)
        .with_db_retention(DB_RETENTION);
    for feed in online.relevant_feeds().to_vec() {
        online = online.with_feed_cadence(feed, STRICT_CADENCE);
    }
    online
}

pub fn storage_config(dir: Option<&Path>) -> StorageConfig {
    match dir {
        Some(dir) => StorageConfig {
            spill_dir: Some(dir.to_path_buf()),
            durable: true,
            ..StorageConfig::default()
        },
        None => StorageConfig::default(),
    }
}

/// The full clock schedule: ingest cycles, then the drain past the
/// horizon until the last hold-backs and wait budgets have lapsed.
pub fn schedule(input: &SoakInput, spec: &SoakSpec, online: &OnlineRca) -> Vec<Timestamp> {
    let mut clocks = input.clocks.clone();
    let drain_end = input.end + online.hold_back() + online.wait_budget() + Duration::hours(1);
    let mut now = *clocks.last().expect("at least one ingest cycle");
    while now < drain_end {
        now += spec.cycle_len;
        clocks.push(now);
    }
    clocks
}

/// What one pass over the schedule produced and cost.
pub struct Pass {
    /// The clock schedule the pass ran: ingest cycles, then the drain.
    pub clocks: Vec<Timestamp>,
    /// Wall nanoseconds building the pipeline — counted into the stream's
    /// wall, so work moved from `advance` into construction still shows.
    pub build_ns: u64,
    /// Every emission in arrival order, replayed duplicates included.
    pub emissions: Vec<Emission>,
    /// Wall nanoseconds inside `advance` (plus the checkpoint barrier when
    /// one closes the cycle), per cycle of the schedule.
    pub cycle_ns: Vec<u64>,
    /// Readings of the host's speed taken between cycles, and per cycle the
    /// reading that preceded it (see [`crate::host`]).
    pub probes: Probes,
    pub cycle_probe: Vec<usize>,
    /// `Database::row_counts()` after each cycle — the staged driver must
    /// reproduce these exactly.
    pub row_counts: Vec<[usize; 10]>,
    /// Bytes in the durable store when the pass ended.
    pub ckpt_bytes: u64,
    /// The restore refused its checkpoint and the pipeline replayed from
    /// cycle 0 instead of from the barrier.
    pub cold_start: bool,
    /// `next_seq` when the pipeline was dropped / after restore + replay.
    pub seq_at_crash: Option<(u64, u64)>,
    pub peak_state_size: usize,
    pub stats: PassStats,
}

/// Collector-side counters read off the pipeline when the pass ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    pub rows_retained: usize,
    pub encoded_bytes: usize,
    pub dedup_hits: usize,
    pub quarantined: usize,
    pub expired: usize,
    pub reseals: u64,
    pub cache_hits: u64,
    pub decodes: u64,
    pub delta_passes: usize,
}

impl PassStats {
    pub fn read(online: &OnlineRca) -> PassStats {
        let db = online.database();
        let st = db.storage_stats().unwrap_or_default();
        PassStats {
            rows_retained: db.total_rows(),
            encoded_bytes: st.encoded_bytes + st.spilled_bytes,
            dedup_hits: online.stats().total_deduplicated(),
            quarantined: online.stats().total_quarantined(),
            expired: online.stats().total_expired(),
            reseals: st.reseals,
            cache_hits: st.cache_hits,
            decodes: st.decodes,
            delta_passes: online.delta_passes(),
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Pass {
    /// Each cycle's wall corrected for the host's slowness around it.
    pub fn corrected_ns(&self) -> Vec<f64> {
        self.cycle_ns
            .iter()
            .zip(&self.cycle_probe)
            .map(|(&ns, &at)| ns as f64 / self.probes.slowness(at))
            .collect()
    }
}

/// One untraced pass: a fresh pipeline driven through the whole schedule
/// by its top-level entry points only. `dir` is the durable store of the
/// hostile workload (emptied first). With `probe`, the host's speed is read
/// between cycles, after every `PROBE_EVERY_NS` of timed work.
pub fn run_pass(input: &SoakInput, spec: &SoakSpec, dir: Option<&Path>, probe: bool) -> Pass {
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("create durable dir");
    }
    let storage = storage_config(dir);
    let store = dir.map(|d| DurableStore::open(d).expect("open durable store"));
    let b0 = Instant::now();
    let mut online = pipeline(&input.topo, &storage);
    let build_ns = b0.elapsed().as_nanos() as u64;
    let clocks = schedule(input, spec, &online);
    let crash_at = spec.crash_cycle(input.cycles.len());

    let mut pass = Pass {
        clocks: Vec::new(),
        build_ns,
        emissions: Vec::new(),
        cycle_ns: Vec::with_capacity(clocks.len()),
        probes: Probes::default(),
        cycle_probe: Vec::with_capacity(clocks.len()),
        row_counts: Vec::with_capacity(clocks.len()),
        ckpt_bytes: 0,
        cold_start: false,
        seq_at_crash: None,
        peak_state_size: 0,
        stats: PassStats::default(),
    };
    let mut since_probe = PROBE_EVERY_NS;
    for (cycle, &now) in clocks.iter().enumerate() {
        if probe && since_probe >= PROBE_EVERY_NS {
            pass.probes.take();
            since_probe = 0;
        }
        let recs = input.delivery(cycle);
        let t0 = Instant::now();
        let new = online.advance(recs, now, &NullOracle, None);
        let mut ns = t0.elapsed().as_nanos() as u64;
        if let Some(store) = &store {
            if (cycle + 1).is_multiple_of(CHECKPOINT_EVERY) {
                let c0 = Instant::now();
                checkpoint::checkpoint(&mut online, store, cycle as u64).expect("checkpoint");
                ns += c0.elapsed().as_nanos() as u64;
            }
        }
        pass.cycle_ns.push(ns);
        pass.cycle_probe.push(pass.probes.len().saturating_sub(1));
        since_probe += ns;
        pass.emissions.extend(new);
        pass.row_counts.push(online.database().row_counts());
        pass.peak_state_size = pass.peak_state_size.max(online.state_size());

        if crash_at == Some(cycle) {
            // Crash: the pipeline is dropped with no farewell; durable
            // files survive. Restore and replay the un-checkpointed tail;
            // neither counts into the stream's throughput.
            let dir = dir.expect("hostile workload has a durable dir");
            let seq_before = online.next_seq();
            drop(online);
            online = pipeline(&input.topo, &storage);
            // `restore` answers `None` when the checkpoint fails its own
            // validation; the documented recovery is then a cold start that
            // replays everything (exactly-once still holds through `seq`).
            let resumed = checkpoint::restore(&mut online, dir, &storage).expect("restore");
            pass.cold_start = resumed.is_none();
            let first = resumed.map_or(0, |c| c as usize + 1);
            for (replay, &now) in clocks.iter().enumerate().take(cycle + 1).skip(first) {
                let recs = input.delivery(replay);
                pass.emissions
                    .extend(online.advance(recs, now, &NullOracle, None));
            }
            pass.seq_at_crash = Some((seq_before, online.next_seq()));
            since_probe = PROBE_EVERY_NS;
        }
    }
    if probe {
        pass.probes.take();
    }
    if let Some(dir) = dir {
        pass.ckpt_bytes = dir_bytes(dir);
    }
    pass.stats = PassStats::read(&online);
    pass.clocks = clocks;
    pass
}

/// `(location, window start)` → label: what label identity compares.
pub type Labels = BTreeMap<(String, i64), String>;

/// Dedup a stream by `Emission::seq` (a replay re-emits under the same
/// numbers) and count what exactly-once forbids: a seq re-emitted with
/// different content, and gaps in the deduplicated numbering.
pub fn dedup_by_seq(emissions: &[Emission]) -> (Vec<Emission>, usize) {
    let mut by_seq: BTreeMap<u64, &Emission> = BTreeMap::new();
    let mut violations = 0;
    for e in emissions {
        match by_seq.get(&e.seq) {
            Some(prev) if *prev != e => violations += 1,
            Some(_) => {}
            None => {
                by_seq.insert(e.seq, e);
            }
        }
    }
    let deduped: Vec<Emission> = by_seq.into_values().cloned().collect();
    violations += deduped
        .iter()
        .enumerate()
        .filter(|(i, e)| e.seq != *i as u64 + 1)
        .count();
    (deduped, violations)
}

fn labels_of<'a>(
    topo: &Topology,
    diagnoses: impl Iterator<Item = &'a grca_core::Diagnosis>,
) -> Labels {
    diagnoses
        .map(|d| {
            (
                (
                    d.symptom.location.display(topo),
                    d.symptom.window.start.unix(),
                ),
                d.label(),
            )
        })
        .collect()
}

/// The reference computation: a flat database over the complete record
/// set, diagnosed by the batch BGP application.
pub fn reference_labels(input: &SoakInput) -> Labels {
    let mut db = Database::default();
    let mut stats = grca_collector::IngestStats::default();
    if input.pristine.is_empty() {
        for recs in &input.cycles {
            db.ingest_more(&input.topo, recs, &mut stats);
        }
    } else {
        for mb in &input.pristine {
            for c in 0..mb.cycles() {
                for feed in mb.feeds() {
                    db.ingest_more(&input.topo, mb.batch(c, feed), &mut stats);
                }
            }
        }
    }
    assert_eq!(stats.total_accepted(), input.generated, "reference ingest");
    let batch = bgp::run(&input.topo, &db).expect("BGP application validates");
    labels_of(&input.topo, batch.diagnoses.iter())
}

/// A pass's output judged against the reference.
pub struct Verdicts {
    pub deduped: Vec<Emission>,
    pub folded: Vec<Emission>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

pub fn verify(input: &SoakInput, pass: &Pass, want: &Labels) -> Verdicts {
    let (deduped, seq_violations) = dedup_by_seq(&pass.emissions);
    let folded = fold_stream(&deduped);
    let got = labels_of(&input.topo, folded.iter().map(|e| &e.diagnosis));
    let mismatched = want
        .iter()
        .filter(|(k, l)| got.get(*k).is_some_and(|g| g != *l))
        .count();
    let missed = want.keys().filter(|k| !got.contains_key(*k)).count();
    let spurious = got.keys().filter(|k| !want.contains_key(*k)).count();
    let mut failed = mismatched + missed + spurious + seq_violations;
    let mut notes = Vec::new();
    if let Some((before, after)) = pass.seq_at_crash {
        if before != after {
            failed += 1;
            notes.push(format!(
                "next_seq {after} after restore+replay != {before} at the crash"
            ));
        }
    }
    if failed > 0 {
        notes.push(format!(
            "{mismatched} label mismatches, {missed} missed, {spurious} spurious, \
             {seq_violations} seq violations against {} reference verdicts",
            want.len()
        ));
    }
    Verdicts {
        attempted: (want.len() + deduped.len()) as u64,
        failed: failed as u64,
        deduped,
        folded,
        notes,
    }
}

/// Detection latency and truth-join accuracy of a verified stream.
pub fn quality(input: &SoakInput, v: &Verdicts) -> Quality {
    let events: Vec<VerdictEvent> = v
        .deduped
        .iter()
        .map(|e| VerdictEvent::from_emission(&input.topo, e))
        .collect();
    let finals: Vec<_> = v.folded.iter().map(|e| e.diagnosis.clone()).collect();
    let mut q = Quality::default();
    q.add(
        Study::Bgp,
        &input.topo,
        &input.truth,
        &input.faults,
        &events,
        &finals,
    );
    q
}

/// Where the hostile workload keeps its durable store: under the build's
/// target directory, never outside the checkout.
pub fn durable_dir(tag: &str) -> PathBuf {
    crate::scratch_dir().join(format!("durable-{tag}-{}", std::process::id()))
}

/// Per-cycle wall in nanoseconds of the quiet host: each pass's reading
/// corrected for the host's slowness around it, then the median across the
/// run's passes.
fn typical_cycle_ns(passes: &[Pass]) -> Vec<f64> {
    let corrected: Vec<Vec<f64>> = passes.iter().map(Pass::corrected_ns).collect();
    (0..passes[0].cycle_ns.len())
        .map(|c| median(&corrected.iter().map(|p| p[c]).collect::<Vec<_>>()))
        .collect()
}

/// Wall-clock a verdict waits: the wall of each `advance` call that
/// returned at least one (once per call, however many it returned — a
/// burst of flaps in one cycle would otherwise weigh that cycle by its
/// seed-dependent size).
fn verdict_wait_ms(emissions: &[Emission], clocks: &[Timestamp], cycle_ns: &[f64]) -> Vec<f64> {
    let emitting: BTreeSet<i64> = emissions.iter().map(|e| e.emitted_at.unix()).collect();
    sorted(
        clocks
            .iter()
            .zip(cycle_ns)
            .filter(|(t, _)| emitting.contains(&t.unix()))
            .map(|(_, &ns)| ns / 1e6)
            .collect(),
    )
}

/// Run one soak workload (`--trace 0`: end-to-end metrics; `--trace 1`:
/// the per-layer metrics of a staged, traced run over the same inputs).
pub fn run(name: &str, args: &Args) -> Outcome {
    let spec = SoakSpec::for_workload(name, args.smoke);
    let mut out = Outcome::default();

    let (input, setup_s) = crate::set_up(|| generate(&spec, args.seed));
    let dir = spec.hostile.then(|| durable_dir(name));
    let ingest_cycles = input.cycles.len();
    eprintln!(
        "{name}: {} routers, {} days in {} ingest cycles, {} records generated / {} delivered, \
         {} injections",
        input.topo.routers.len(),
        spec.days,
        ingest_cycles,
        input.generated,
        input.delivered(),
        input.faults.len()
    );

    crate::reset_peak_rss();
    let budget = args.budget();
    // The traced run's baseline takes no probes: it is compared with staged
    // passes that take none either.
    let passes = crate::repeat_for(budget, || {
        run_pass(&input, &spec, dir.as_deref(), !args.trace)
    });
    let peak_rss_mb = crate::peak_rss_mb();

    let traced = args
        .trace
        .then(|| crate::soak_staged::run(name, &input, &spec, dir.as_deref(), &passes[0], budget));

    // Untimed from here on: the reference computation and the checks.
    let v0 = Instant::now();
    let want = reference_labels(&input);
    let verdicts: Vec<Verdicts> = passes.iter().map(|p| verify(&input, p, &want)).collect();
    for v in &verdicts {
        out.attempted += v.attempted;
        out.failed += v.failed;
        out.notes.extend(v.notes.iter().cloned());
    }
    let q = quality(&input, &verdicts[0]);
    let verify_secs = v0.elapsed().as_secs_f64();
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).ok();
    }

    let clocks = &passes[0].clocks;
    let delivered = input.delivered() as f64;
    let cycle_ns = typical_cycle_ns(&passes);
    let build_ns = median(
        &passes
            .iter()
            .map(|p| p.build_ns as f64 / p.probes.slowness(0))
            .collect::<Vec<_>>(),
    );
    let advance_secs = (build_ns + cycle_ns.iter().sum::<f64>()) / 1e9;
    let ingest_ms = sorted(
        cycle_ns[..ingest_cycles]
            .iter()
            .map(|&ns| ns / 1e6)
            .collect(),
    );
    let raw_secs = median(
        &passes
            .iter()
            .map(|p| (p.build_ns + p.cycle_ns.iter().sum::<u64>()) as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let slowness = median(
        &passes
            .iter()
            .map(|p| p.probes.overall())
            .collect::<Vec<_>>(),
    );
    let emissions = verdicts[0].deduped.len() as f64;
    eprintln!(
        "{name}: {} passes, {:.2} s in advance per pass ({:.2} s raw, host slowness {:.2}), \
         {} emissions ({} folded), {} detection samples",
        passes.len(),
        advance_secs,
        raw_secs,
        slowness,
        emissions,
        verdicts[0].folded.len(),
        q.detect_samples()
    );

    if let Some(traced) = traced {
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.notes.extend(traced.notes);
        out.metrics = traced.metrics;
        let m = &mut out.metrics;
        let p0 = &passes[0];
        let waits = verdict_wait_ms(&verdicts[0].deduped, clocks, &cycle_ns);
        m.insert("apps.online.verdict_wait_p50_ms", percentile(&waits, 0.5));
        m.insert(
            "apps.online.cycle_tail_ms",
            tail_or_supported(&ingest_ms, 0.9),
        );
        m.insert(
            "apps.online.cycle_max_ms",
            *ingest_ms.last().unwrap_or(&0.0),
        );
        m.insert("apps.online.state_size", p0.peak_state_size as f64);
        let n = verdicts[0].deduped.len().max(1) as f64;
        let degraded = verdicts[0]
            .deduped
            .iter()
            .filter(|e| e.mode.is_degraded())
            .count();
        let amends = verdicts[0].deduped.iter().filter(|e| e.amends).count();
        m.insert("apps.online.degraded_frac", degraded as f64 / n);
        m.insert("apps.online.amend_frac", amends as f64 / n);
        let simulated = (*clocks.last().expect("schedule") - clocks[0]).as_secs() as f64;
        m.insert("apps.online.realtime_x", simulated / advance_secs);
        m.insert("collector.rows_retained", p0.stats.rows_retained as f64);
        m.insert(
            "collector.encoded_mb",
            p0.stats.encoded_bytes as f64 / (1024.0 * 1024.0),
        );
        m.insert("collector.dedup_hits", p0.stats.dedup_hits as f64);
        m.insert("collector.quarantined", p0.stats.quarantined as f64);
        m.insert("collector.expired", p0.stats.expired as f64);
        m.insert("collector.reseals", p0.stats.reseals as f64);
        m.insert(
            "collector.durable.cold_start",
            f64::from(u8::from(p0.cold_start)),
        );
        let lookups = (p0.stats.cache_hits + p0.stats.decodes).max(1) as f64;
        m.insert(
            "collector.cache_hit_ratio",
            p0.stats.cache_hits as f64 / lookups,
        );
        m.insert(
            "events.delta_pass_ratio",
            p0.stats.delta_passes as f64 / clocks.len() as f64,
        );
        m.insert("simnet.gen_s", input.gen_secs);
        m.insert("simnet.records", input.generated as f64);
        m.insert("eval.verify_s", verify_secs);
        m.insert("eval.detect_p50_s", q.detect().p50_s);
        return out;
    }

    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("throughput_per_s", delivered / advance_secs);
    m.insert("response_p50_ms", percentile(&ingest_ms, 0.5));
    q.end_to_end(m);
    m.insert("peak_rss_mb", peak_rss_mb);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `--seed` must pin down: the generated inputs and everything
    /// simulated time decides.
    fn fingerprint(seed: u64) -> (usize, usize, (f64, f64), f64, u64) {
        let spec = SoakSpec::for_workload("soak-fine", true);
        let input = generate(&spec, seed);
        let pass = run_pass(&input, &spec, None, false);
        let v = verify(&input, &pass, &reference_labels(&input));
        let q = quality(&input, &v);
        (
            input.generated,
            v.deduped.len(),
            (q.detect().mean_s, q.detect().p90_s),
            q.accuracy(),
            v.failed,
        )
    }

    #[test]
    fn seed_pins_inputs_and_simulated_time_metrics() {
        let a = fingerprint(11);
        assert_eq!(a, fingerprint(11), "same seed, same run");
        assert_eq!(a.4, 0, "outputs match the reference");
        assert!(a.1 > 0, "smoke soak emits verdicts");
        let b = fingerprint(12);
        assert_ne!(a.0, b.0, "another seed generates other records");
        assert_eq!(b.4, 0, "and still matches the reference");
    }

    #[test]
    fn crash_lands_a_fixed_tail_past_a_checkpoint_barrier() {
        let spec = SoakSpec::for_workload("soak-hostile", false);
        for cycles in [24, 48, 72, 168] {
            let crash = spec.crash_cycle(cycles).expect("hostile crashes");
            assert!(crash < cycles);
            assert_eq!((crash + 1 - CRASH_TAIL) % CHECKPOINT_EVERY, 0);
        }
        assert_eq!(
            SoakSpec::for_workload("soak-tier1", false).crash_cycle(72),
            None
        );
    }

    #[test]
    fn seq_dedup_counts_gaps_and_divergent_replays() {
        let spec = SoakSpec::for_workload("soak-tier1", true);
        let input = generate(&spec, 5);
        let pass = run_pass(&input, &spec, None, false);
        let (clean, violations) = dedup_by_seq(&pass.emissions);
        assert_eq!((clean.len(), violations), (pass.emissions.len(), 0));
        // A replay re-emits under the same numbers: folded away silently.
        let mut replayed = pass.emissions.clone();
        replayed.extend(pass.emissions[..3].iter().cloned());
        assert_eq!(dedup_by_seq(&replayed), (clean.clone(), 0));
        // A lost emission leaves a gap behind it.
        let mut gap = pass.emissions.clone();
        gap.remove(1);
        assert_eq!(dedup_by_seq(&gap).1, gap.len() - 1);
        // The same number with other content is a determinism bug.
        let mut diverged = pass.emissions.clone();
        let mut other = diverged[0].clone();
        other.amends = !other.amends;
        diverged.push(other);
        assert_eq!(dedup_by_seq(&diverged).1, 1);
    }
}
