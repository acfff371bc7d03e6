//! The staged soak driver of the traced run.
//!
//! It drives the *same generated inputs* as the untraced driver through
//! the same work `OnlineRca::advance` (and, on the durable workload,
//! `checkpoint::{checkpoint, restore}`) does, but calls each layer's public
//! functions directly with a span around every call — so per-layer time
//! and allocations are measured from outside the system, before any span
//! exists inside it.
//!
//! Honesty checks, every cycle: the staged database's `row_counts()` must
//! equal what the untraced run recorded for that cycle, and at the end the
//! staged emission stream must equal the untraced one, emission for
//! emission. If `advance` changes shape, these fail loudly instead of the
//! shares silently drifting.

use crate::soak::{self, Pass, SoakInput, SoakSpec, CHECKPOINT_EVERY};
use crate::stats::median;
use crate::trace::{LayerTotals, Tracer};
use crate::Outcome;
use grca_apps::{bgp, PipelineCheckpoint, CHECKPOINT_VERSION};
use grca_collector::{
    Database, DurableStore, FeedRegistry, IngestStats, SeenLogRef, StorageConfig, StoreManifest,
};
use grca_core::{DiagnosisGraph, Emission, Engine};
use grca_eval::chaos::STRICT_CADENCE;
use grca_events::{ExtractCx, IncrementalExtractor};
use grca_net_model::{NullOracle, SpatialModel, Topology};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, Timestamp};
use std::collections::BTreeMap;
use std::path::Path;

/// `OnlineRca`'s private quarantine-journal bound.
const QUARANTINE_KEEP: usize = 10_000;

type Keys = BTreeMap<(String, i64), i64>;

/// Relevant feeds still short of `horizon` at clock `now`.
fn missing_feeds(
    registry: &FeedRegistry,
    feeds: &[&'static str],
    horizon: Timestamp,
    now: Timestamp,
) -> Vec<&'static str> {
    feeds
        .iter()
        .copied()
        .filter(|f| matches!(registry.effective_watermark(f, now), Some(w) if w < horizon))
        .collect()
}

/// The online pipeline's state, held by the benchmark so each stage can be
/// called on its own.
struct Staged<'a> {
    topo: &'a Topology,
    graph: DiagnosisGraph,
    extractor: IncrementalExtractor,
    db: Database,
    stats: IngestStats,
    registry: FeedRegistry,
    relevant_feeds: Vec<&'static str>,
    hold_back: Duration,
    wait_budget: Duration,
    amend_window: Duration,
    emitted: Keys,
    pending_amend: Keys,
    next_seq: u64,
    seen_log: Option<SeenLogRef>,
    tally: Tally,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Peak `EventStore::total()` and extractor cache size.
    instances_out: usize,
    cached_instances: usize,
    /// Evidence items over every diagnosis made.
    evidence: usize,
}

impl<'a> Staged<'a> {
    /// Same configuration as [`soak::pipeline`]; the hold-back, wait budget,
    /// amend window and gating feeds are read off a real `OnlineRca` so the
    /// cut-offs below are re-derived, never copied.
    fn new(topo: &'a Topology, storage: &StorageConfig) -> Self {
        let online = soak::pipeline(topo, storage);
        let mut registry = FeedRegistry::new();
        for feed in online.relevant_feeds() {
            registry.set_cadence(feed, STRICT_CADENCE);
        }
        Staged {
            topo,
            graph: bgp::diagnosis_graph(),
            extractor: IncrementalExtractor::new(bgp::event_definitions()),
            db: Database::with_storage(storage),
            stats: IngestStats::default(),
            registry,
            relevant_feeds: online.relevant_feeds().to_vec(),
            hold_back: online.hold_back(),
            wait_budget: online.wait_budget(),
            amend_window: online.amend_window(),
            emitted: Keys::new(),
            pending_amend: Keys::new(),
            next_seq: 1,
            seen_log: None,
            tally: Tally::default(),
        }
    }

    /// One cycle, stage by stage — the body of `OnlineRca::advance`.
    fn advance(&mut self, tr: &mut Tracer, records: &[RawRecord], now: Timestamp) -> Vec<Emission> {
        tr.span("apps.online.advance", |tr| {
            let topo = self.topo;
            tr.span("collector.ingest", |_| {
                self.db.ingest_more(topo, records, &mut self.stats)
            });
            tr.span("collector.observe", |_| self.registry.observe_db(&self.db));
            let store = tr.span("events.extract", |_| {
                let cx = ExtractCx::new(topo, &self.db, None);
                self.extractor.extract(&cx)
            });
            self.tally.instances_out = self.tally.instances_out.max(store.total());
            self.tally.cached_instances = self
                .tally
                .cached_instances
                .max(self.extractor.cached_instances());
            let spatial = tr.span("net-model.spatial_bind", |_| {
                SpatialModel::new(topo, &NullOracle)
            });
            let engine = tr.span("core.bind", |_| Engine::new(&self.graph, &store, &spatial));

            let floor = now - self.hold_back - self.amend_window;
            let mut out = Vec::new();
            tr.span("apps.online.walk", |tr| {
                for symptom in store.instances(self.graph.root) {
                    if symptom.window.end.unix() <= floor.unix() {
                        continue;
                    }
                    let horizon = symptom.window.end + self.hold_back;
                    if now < horizon {
                        continue;
                    }
                    let key = (symptom.location.display(topo), symptom.window.start.unix());
                    // Decide as `advance` does, then diagnose under a span.
                    let amend = self.emitted.contains_key(&key);
                    if amend && !self.pending_amend.contains_key(&key) {
                        continue;
                    }
                    let missing = missing_feeds(&self.registry, &self.relevant_feeds, horizon, now);
                    if amend {
                        if !missing.is_empty() {
                            continue;
                        }
                        self.pending_amend.remove(&key);
                    } else if missing.is_empty() {
                        self.emitted.insert(key, symptom.window.end.unix());
                    } else if now >= horizon + self.wait_budget {
                        self.emitted.insert(key.clone(), symptom.window.end.unix());
                        self.pending_amend.insert(key, symptom.window.end.unix());
                    } else {
                        continue;
                    }
                    let d = tr.span("core.diagnose", |_| engine.diagnose(symptom));
                    self.tally.evidence += d.evidence.len();
                    let emission = if amend {
                        Emission::full(d).amending()
                    } else if missing.is_empty() {
                        Emission::full(d)
                    } else {
                        Emission::degraded(d, missing)
                    };
                    out.push(emission.at(now).with_seq(self.next_seq));
                    self.next_seq += 1;
                }
            });
            drop(engine);

            let cutoff = floor - self.hold_back - Duration::hours(2);
            tr.span("apps.online.prune_state", |_| {
                self.emitted.retain(|_, end| *end > floor.unix());
                self.pending_amend.retain(|_, end| *end > floor.unix());
            });
            tr.span("events.prune", |_| self.extractor.prune_before(cutoff));
            tr.span("collector.retain", |_| {
                self.db.trim_quarantine(QUARANTINE_KEEP);
                self.db.retain_before(cutoff - soak::DB_RETENTION)
            });
            tr.span("events.drop_store", |_| drop(store));
            out
        })
    }

    /// The body of `checkpoint::checkpoint`, stage by stage.
    fn checkpoint(&mut self, tr: &mut Tracer, store: &DurableStore, cycle: u64) {
        tr.span("collector.durable.checkpoint", |tr| {
            let seen_log = tr
                .span("collector.durable.persist_seen", |_| {
                    store.persist_seen(&self.db, self.seen_log.as_ref())
                })
                .expect("persist seen log");
            self.seen_log = Some(seen_log.clone());
            let json = tr.span("apps.online.encode_state", |_| {
                let export = |t: &Keys| {
                    t.iter()
                        .map(|((loc, start), &end)| (loc.clone(), *start, end))
                        .collect()
                };
                let app = PipelineCheckpoint {
                    version: CHECKPOINT_VERSION,
                    cycle,
                    next_seq: self.next_seq,
                    emitted: export(&self.emitted),
                    pending_amend: export(&self.pending_amend),
                    marks: self.extractor.marks().unwrap_or_default(),
                    hold_back_secs: self.hold_back.as_secs(),
                };
                serde_json::to_string(&app).expect("encode checkpoint")
            });
            let m = tr
                .span("collector.durable.seal_capture", |_| {
                    StoreManifest::capture(
                        &mut self.db,
                        &self.stats,
                        &self.registry,
                        cycle,
                        self.next_seq,
                        Some(json),
                        seen_log,
                    )
                })
                .expect("capture manifest");
            tr.span("collector.durable.save", |_| store.save(&m))
                .expect("save manifest");
            tr.span("collector.durable.gc", |_| store.gc(&m));
        });
    }

    /// The body of `checkpoint::restore` into a fresh pipeline. Returns the
    /// checkpointed cycle, or `None` with the pipeline left fresh when the
    /// checkpoint fails `OnlineRca::restore_from`'s row-count validation
    /// (the documented cold start).
    fn restore(
        topo: &'a Topology,
        tr: &mut Tracer,
        dir: &Path,
        storage: &StorageConfig,
    ) -> (Self, Option<u64>) {
        tr.span("collector.durable.restore", |tr| {
            let mut staged = Staged::new(topo, storage);
            let m = tr
                .span("collector.durable.load_manifest", |_| {
                    DurableStore::open(dir).expect("open durable store").load()
                })
                .expect("a manifest precedes the crash");
            let app: PipelineCheckpoint =
                serde_json::from_str(m.app_state.as_deref().expect("pipeline checkpoint"))
                    .expect("decode checkpoint");
            let (db, stats, registry) = tr
                .span("collector.durable.restore_tables", |_| {
                    m.restore(dir, storage)
                })
                .expect("restore collector state");
            let counts = db.row_counts();
            if (app.marks.iter().enumerate()).any(|(i, &(n, _))| counts[i] != n as usize) {
                return (staged, None);
            }
            tr.span("apps.online.import_state", |_| {
                staged.db = db;
                staged.stats = stats;
                for (feed, w, n) in registry.export_seen() {
                    staged.registry.observe(feed, w, n);
                }
                let import = |v: &[(String, i64, i64)]| -> Keys {
                    v.iter()
                        .map(|(loc, start, end)| ((loc.clone(), *start), *end))
                        .collect()
                };
                staged.emitted = import(&app.emitted);
                staged.pending_amend = import(&app.pending_amend);
                staged.next_seq = app.next_seq;
                staged.seen_log = Some(m.seen_log.clone());
            });
            (staged, Some(app.cycle))
        })
    }
}

/// One traced pass and what it must agree with.
struct TracedPass {
    tracer: Tracer,
    emissions: Vec<Emission>,
    row_count_drift: usize,
    tally: Tally,
}

fn run_pass(input: &SoakInput, spec: &SoakSpec, dir: Option<&Path>, untraced: &Pass) -> TracedPass {
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("create durable dir");
    }
    let storage = soak::storage_config(dir);
    let store = dir.map(|d| DurableStore::open(d).expect("open durable store"));
    let clocks = &untraced.clocks;
    let crash_at = spec.crash_cycle(input.cycles.len());

    let mut tracer = Tracer::new();
    let mut emissions = Vec::new();
    let mut row_count_drift = 0;
    let tally = tracer.span("bench.pass", |tr| {
        let mut staged = Staged::new(&input.topo, &storage);
        for (cycle, &now) in clocks.iter().enumerate() {
            tr.set_cycle(cycle as u32);
            emissions.extend(staged.advance(tr, input.delivery(cycle), now));
            if let Some(store) = &store {
                if (cycle + 1).is_multiple_of(CHECKPOINT_EVERY) {
                    staged.checkpoint(tr, store, cycle as u64);
                }
            }
            if staged.db.row_counts() != untraced.row_counts[cycle] {
                row_count_drift += 1;
            }
            if crash_at == Some(cycle) {
                let dir = dir.expect("hostile workload has a durable dir");
                let tally = staged.tally;
                drop(staged);
                let (restored, resumed) = Staged::restore(&input.topo, tr, dir, &storage);
                staged = restored;
                staged.tally = tally;
                tr.span("apps.online.replay", |tr| {
                    let first = resumed.map_or(0, |c| c as usize + 1);
                    for (replay, &now) in clocks.iter().enumerate().take(cycle + 1).skip(first) {
                        emissions.extend(staged.advance(tr, input.delivery(replay), now));
                    }
                });
            }
        }
        staged.tally
    });
    TracedPass {
        tracer,
        emissions,
        row_count_drift,
        tally,
    }
}

fn layer(sum: &BTreeMap<&'static str, LayerTotals>, name: &str) -> LayerTotals {
    sum.get(name).copied().unwrap_or_default()
}

/// Per-layer metrics of one traced pass, against the untraced pass it
/// shadows.
fn pass_metrics(p: &TracedPass, untraced: &Pass, delivered: usize) -> BTreeMap<&'static str, f64> {
    let sum = p.tracer.summary();
    let spans = p.tracer.spans();
    // The stream's totals leave out everything under the replay, as the
    // untraced run leaves restore and replay out of its wall.
    let under_replay = |mut i: usize| loop {
        if spans[i].name == "apps.online.replay" {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut stream: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut ckpts = Vec::new();
    // Stage sum: the spans directly under a cycle's root or a checkpoint's
    // — everything the trace attributes to a layer.
    let mut stage_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if under_replay(i) {
            continue;
        }
        if s.parent.is_some_and(|p| {
            matches!(
                spans[p].name,
                "apps.online.advance" | "collector.durable.checkpoint"
            )
        }) {
            stage_ns += s.dur_ns();
        }
        let t = stream.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.allocs += s.allocs;
        if s.name == "collector.durable.checkpoint" {
            ckpts.push(s.dur_ns() as f64 / 1e6);
        }
    }
    let cycles = layer(&stream, "apps.online.advance").count.max(1) as f64;
    let advance = layer(&stream, "apps.online.advance");
    let ckpt = layer(&stream, "collector.durable.checkpoint");
    let untraced_ns = untraced.cycle_ns.iter().sum::<u64>() as f64;
    let traced_ns = (advance.total_ns + ckpt.total_ns) as f64;

    let mut m = BTreeMap::new();
    let ingest = layer(&stream, "collector.ingest");
    let recs = delivered.max(1) as f64;
    m.insert("collector.ingest_ns_per_rec", ingest.total_ns as f64 / recs);
    m.insert(
        "collector.ingest_allocs_per_rec",
        ingest.allocs as f64 / recs,
    );
    m.insert(
        "collector.retain_ms_per_cycle",
        layer(&stream, "collector.retain").total_ms() / cycles,
    );
    let extract = layer(&stream, "events.extract");
    m.insert("events.extract_ms_per_cycle", extract.total_ms() / cycles);
    m.insert(
        "events.extract_allocs_per_cycle",
        extract.allocs as f64 / cycles,
    );
    m.insert("events.instances_out", p.tally.instances_out as f64);
    m.insert("events.cached_instances", p.tally.cached_instances as f64);
    m.insert(
        "events.prune_ms_per_cycle",
        layer(&stream, "events.prune").total_ms() / cycles,
    );
    m.insert(
        "net-model.spatial_bind_us",
        layer(&stream, "net-model.spatial_bind").per_call_us(),
    );
    m.insert("core.bind_us", layer(&stream, "core.bind").per_call_us());
    let diag = layer(&stream, "core.diagnose");
    m.insert("core.diagnose_us", diag.per_call_us());
    m.insert("core.diagnosed", diag.count as f64);
    m.insert(
        "core.evidence_per_diag",
        p.tally.evidence as f64 / layer(&sum, "core.diagnose").count.max(1) as f64,
    );
    m.insert(
        "apps.online.self_ms_per_cycle",
        (untraced_ns - stage_ns as f64) / 1e6 / cycles,
    );
    m.insert("apps.online.allocs_per_rec", advance.allocs as f64 / recs);
    m.insert("trace.coverage", stage_ns as f64 / untraced_ns);
    m.insert("trace.overhead_frac", traced_ns / untraced_ns - 1.0);

    m.insert("collector.durable.ckpt_ms_p50", median(&ckpts));
    m.insert("collector.durable.ckpt_bytes", untraced.ckpt_bytes as f64);
    m.insert(
        "collector.durable.restore_ms",
        layer(&sum, "collector.durable.restore").total_ms(),
    );
    m.insert(
        "collector.durable.replay_ms",
        layer(&sum, "apps.online.replay").total_ms(),
    );
    m
}

/// Traced passes for `budget` seconds; the median of each per-layer metric
/// across them, the first pass's spans written to disk, and the staged
/// driver's agreement with the untraced run tallied as checked outputs.
pub fn run(
    name: &str,
    input: &SoakInput,
    spec: &SoakSpec,
    dir: Option<&Path>,
    untraced: &Pass,
    budget: f64,
) -> Outcome {
    let passes = crate::repeat_for(budget, || run_pass(input, spec, dir, untraced));
    let mut out = Outcome::default();
    for p in &passes {
        out.attempted += (untraced.row_counts.len() + untraced.emissions.len()) as u64;
        let stream_drift = crate::differing(&p.emissions, &untraced.emissions);
        if p.row_count_drift + stream_drift > 0 {
            out.failed += (p.row_count_drift + stream_drift) as u64;
            out.notes.push(format!(
                "staged driver drifted from OnlineRca::advance: {} cycles with other row counts, \
                 {stream_drift} emissions differ",
                p.row_count_drift
            ));
        }
    }
    out.metrics = crate::median_of_each(
        passes
            .iter()
            .map(|p| pass_metrics(p, untraced, input.delivered()))
            .collect(),
    );

    eprintln!("{name}: {} traced passes, the first reported", passes.len());
    passes[0].tracer.report(name);
    out
}
