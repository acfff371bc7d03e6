//! Real-time root cause analysis (the paper's future-work item 3).
//!
//! The batch pipeline diagnoses a closed historical window. [`OnlineRca`]
//! turns the same configuration into a streaming tool: raw records arrive
//! in per-cycle micro-batches from live feeds, and a diagnosis is emitted
//! for each symptom once its *evidence horizon* has passed — the symptom's
//! window end plus `hold_back`: the largest temporal slack any rule in the
//! graph can bridge (e.g. the reboot banner landing minutes after the
//! flaps it explains) plus extraction's materialization latency (a flap
//! diagnostic exists only once its up transition arrives; an episode's end
//! settles only after a healthy gap).
//!
//! Real feeds stall and die, so the horizon alone is not enough: a
//! [`FeedRegistry`] tracks every relevant feed's delivery watermark, and a
//! symptom is diagnosed only once every feed its rules could draw
//! evidence from has either advanced past the horizon or is live enough
//! that its silence is vouched for. A feed that stays behind past a
//! bounded `wait_budget` stops blocking: the symptom is emitted in
//! **degraded mode** ([`grca_core::EmissionMode::Degraded`]), naming the
//! missing feeds and carrying a confidence downgrade. If the missing feeds catch
//! up within `amend_window`, the symptom is re-diagnosed on the full
//! evidence and a superseding amendment is emitted (`amends = true`,
//! same key) — so under eventual delivery the folded stream converges to
//! the batch verdicts, and under permanent feed loss every affected
//! verdict is explicitly flagged rather than silently wrong.
//!
//! State is bounded for arbitrarily long runs: symptoms older than the
//! *skip floor* (`now - hold_back - amend_window`) are never diagnosed or
//! amended again, so the emitted-key table, the pending-amendment table
//! and the quarantine journal are all pruned against that same floor each
//! cycle. The extractor holds only its sealed-run memo, which shrinks with
//! the database it reads.

use grca_collector::{Database, FeedRegistry, IngestStats, StorageConfig};
use grca_core::{DiagnosisGraph, Emission, Engine};
use grca_events::{EventDefinition, ExtractCx, IncrementalExtractor};
use grca_net_model::{RouteOracle, SpatialModel, Topology};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, Result, Symbol, Timestamp};
use std::collections::BTreeMap;

/// Quarantined records kept for operator drill-down; older entries are
/// dropped each cycle (counts in [`IngestStats`] are never pruned).
const QUARANTINE_KEEP: usize = 10_000;

/// A streaming RCA application instance.
pub struct OnlineRca<'a> {
    topo: &'a Topology,
    /// Incremental extraction state: every definition re-reads only the
    /// unsealed tail (sealed history's contribution is memoized).
    extractor: IncrementalExtractor,
    graph: DiagnosisGraph,
    /// Accumulated normalized data.
    db: Database,
    stats: IngestStats,
    /// Per-feed cadence expectations and delivery watermarks.
    registry: FeedRegistry,
    /// Feeds the graph's event definitions read — the set whose
    /// watermarks gate emission.
    relevant_feeds: Vec<&'static str>,
    /// How long to wait past a symptom before diagnosing it, so that all
    /// evidence any rule could join has arrived.
    hold_back: Duration,
    /// How long past the horizon a symptom waits for lagging feeds before
    /// emitting degraded.
    wait_budget: Duration,
    /// How long after the horizon a degraded verdict can still be amended
    /// (and, equally, how long emitted keys are remembered).
    amend_window: Duration,
    /// Symptoms already emitted: key → window-end unix (for pruning).
    emitted: BTreeMap<(String, i64), i64>,
    /// Degraded emissions awaiting recovery: key → window-end unix.
    pending_amend: BTreeMap<(String, i64), i64>,
    /// Next emission sequence number (streams start at 1). Restored from
    /// checkpoints so a deterministic replay re-emits with identical
    /// numbers — the exactly-once handle consumers dedup on.
    next_seq: u64,
    /// If set, rows older than the skip floor minus this margin are
    /// dropped from the database each cycle (see
    /// [`OnlineRca::with_db_retention`]). `None` keeps everything — the
    /// batch-identical default.
    db_retention: Option<Duration>,
    /// Quarantine journal entries retained for drill-down; the journal is
    /// trimmed to this each cycle so a poisoned feed cannot grow it
    /// without bound ([`IngestStats`] counters are never pruned).
    quarantine_keep: usize,
    /// The dedup-log prefix the last persisted checkpoint vouched for;
    /// the next checkpoint appends only the journal delta past it (see
    /// [`grca_collector::DurableStore::persist_seen`]). `None` until the
    /// first checkpoint or restore.
    seen_log: Option<grca_collector::SeenLogRef>,
}

impl<'a> OnlineRca<'a> {
    /// Build from an application's configuration. The hold-back is derived
    /// from the graph: the largest rule slack, plus extraction's
    /// *materialization latency* — a flap diagnostic only exists once its
    /// up transition arrives (up to [`grca_events::MAX_FLAP_GAP`] after
    /// the down), and a threshold/anomaly episode's end is only settled
    /// once a healthy gap ([`grca_events::MERGE_GAP`]) has passed — plus a
    /// safety margin. With watermarks past `end + hold_back`, every
    /// instance any rule could join is fully materialized and no later
    /// record can change the verdict, so streaming labels equal batch.
    pub fn new(
        topo: &'a Topology,
        defs: Vec<EventDefinition>,
        graph: DiagnosisGraph,
    ) -> Result<Self> {
        graph.validate()?;
        let max_slack = graph
            .rules
            .iter()
            .map(|r| r.temporal.slack().as_secs())
            .max()
            .unwrap_or(0);
        let settle = grca_events::MAX_FLAP_GAP
            .as_secs()
            .max(grca_events::MERGE_GAP.as_secs());
        let hold_back = Duration::secs(max_slack + settle + 120);
        // Feeds any event named in the graph could draw evidence from.
        let mut names: Vec<Symbol> = vec![graph.root];
        for r in &graph.rules {
            names.push(r.symptom);
            names.push(r.diagnostic);
        }
        let feeds: std::collections::BTreeSet<&'static str> = defs
            .iter()
            .filter(|d| names.contains(&Symbol::new(d.name.as_str())))
            .map(|d| d.feed())
            .collect();
        Ok(OnlineRca {
            topo,
            extractor: IncrementalExtractor::new(defs),
            graph,
            db: Database::default(),
            stats: IngestStats::default(),
            registry: FeedRegistry::new(),
            relevant_feeds: feeds.into_iter().collect(),
            hold_back,
            wait_budget: Duration::secs(hold_back.as_secs() * 2),
            amend_window: Duration::secs(hold_back.as_secs() * 6 + Duration::hours(8).as_secs()),
            emitted: BTreeMap::new(),
            pending_amend: BTreeMap::new(),
            next_seq: 1,
            db_retention: None,
            quarantine_keep: QUARANTINE_KEEP,
            seen_log: None,
        })
    }

    /// Give the accumulated database tables that seal as `cfg` says
    /// (sealed immutable segments, compact encoding, LRU decode cache).
    /// Must be called before the first ingest — it replaces the empty
    /// database.
    pub fn with_storage(mut self, cfg: &StorageConfig) -> Self {
        debug_assert!(self.db.row_counts().iter().all(|&n| n == 0));
        self.db = Database::with_storage(cfg);
        self
    }

    /// Enable database retention: each cycle, rows older than the skip
    /// floor minus the evidence margin minus `margin` are dropped. Rows
    /// that old can no longer contribute to any future diagnosis or
    /// amendment (the skip floor settles those symptoms forever), so
    /// verdicts are unchanged; what is lost is only drill-down into
    /// ancient history. Off by default — batch-identical retention of
    /// everything.
    pub fn with_db_retention(mut self, margin: Duration) -> Self {
        self.db_retention = Some(margin);
        self
    }

    /// Override the amendment window (also the retention horizon for
    /// emitted-key state — larger windows keep more state).
    pub fn with_amend_window(mut self, amend_window: Duration) -> Self {
        self.amend_window = amend_window;
        self
    }

    /// Tighten (or loosen) one feed's cadence expectation — how much
    /// silence is plausible before the feed stops vouching for its gaps.
    pub fn with_feed_cadence(mut self, feed: &'static str, cadence: Duration) -> Self {
        self.registry.set_cadence(feed, cadence);
        self
    }

    /// Override how many quarantine journal entries are retained (the
    /// bound a sustained-corruption feed is trimmed to each cycle).
    pub fn with_quarantine_keep(mut self, keep: usize) -> Self {
        self.quarantine_keep = keep;
        self
    }

    pub fn hold_back(&self) -> Duration {
        self.hold_back
    }

    pub fn wait_budget(&self) -> Duration {
        self.wait_budget
    }

    pub fn amend_window(&self) -> Duration {
        self.amend_window
    }

    /// The accumulated database (for drill-down alongside live results).
    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Per-feed health (cadence, watermark, state ladder).
    pub fn registry(&self) -> &FeedRegistry {
        &self.registry
    }

    /// The feeds whose watermarks gate emission for this graph.
    pub fn relevant_feeds(&self) -> &[&'static str] {
        &self.relevant_feeds
    }

    /// Always 0: extraction has no delta path. The method stays because
    /// `bench_pipeline` reports it as `events.delta_pass_ratio`; it goes
    /// when the benchmark drops the metric.
    pub fn delta_passes(&self) -> usize {
        0
    }

    /// Bounded-state observability: entries currently held across the
    /// emitted-key table, the pending-amendment table and the quarantine
    /// journal. Long chaos runs assert this plateaus.
    pub fn state_size(&self) -> usize {
        self.emitted.len() + self.pending_amend.len() + self.db.quarantine.len()
    }

    /// Relevant feeds still short of `horizon` at clock `now`. A live
    /// feed's silence is vouched for (it never gates once the clock
    /// reaches the horizon); a stalled/dead feed counts only what it
    /// actually delivered. A feed never seen at all is treated as not
    /// provisioned rather than missing — without per-source heartbeats
    /// the two are indistinguishable, so a feed killed before its first
    /// delivery will not gate (documented limitation; the chaos corpus
    /// kills feeds mid-run).
    fn missing_feeds(&self, horizon: Timestamp, now: Timestamp) -> Vec<&'static str> {
        self.relevant_feeds
            .iter()
            .copied()
            .filter(|f| match self.registry.effective_watermark(f, now) {
                Some(w) => w < horizon,
                None => false,
            })
            .collect()
    }

    /// Ingest a batch without diagnosing. Studies whose extraction reads
    /// routing state rebuilt from the database (CDN, PIM) ingest first,
    /// rebuild routing from [`OnlineRca::database`], then call
    /// [`OnlineRca::advance`] with no records — so the routing snapshot
    /// used for extraction and spatial joins includes the cycle's own
    /// deliveries, matching what a batch run over the same data would see.
    pub fn ingest(&mut self, records: &[RawRecord]) {
        self.db.ingest_more(self.topo, records, &mut self.stats);
        self.registry.observe_db(&self.db);
    }

    /// The application's diagnosis graph (the serving publisher reads
    /// this to resolve tenant overlays at publish time).
    pub fn graph(&self) -> &DiagnosisGraph {
        &self.graph
    }

    /// Feed a batch of raw records and advance the clock to `now`.
    ///
    /// Returns the cycle's emissions: full diagnoses for symptoms whose
    /// relevant feeds all passed the evidence horizon, degraded diagnoses
    /// for symptoms whose wait budget expired with feeds still behind,
    /// and amendments for previously degraded symptoms whose missing
    /// feeds have since recovered.
    ///
    /// `oracle` supplies routing state for spatial joins; pass a freshly
    /// rebuilt [`crate::build_routing`] state (or `NullOracle` for
    /// configuration-only graphs like the BGP application's).
    pub fn advance(
        &mut self,
        records: &[RawRecord],
        now: Timestamp,
        oracle: &dyn RouteOracle,
        routing_for_extraction: Option<&grca_routing::RoutingState>,
    ) -> Vec<Emission> {
        self.db.ingest_more(self.topo, records, &mut self.stats);
        self.registry.observe_db(&self.db);
        // Extraction is a pure function of the database, so streaming
        // stays consistent with batch mode; the incremental extractor
        // re-reads only the unsealed tail.
        let cx = ExtractCx::new(self.topo, &self.db, routing_for_extraction);
        let store = self.extractor.extract(&cx);
        let spatial = SpatialModel::new(self.topo, oracle);
        let engine = Engine::new(&self.graph, &store, &spatial);

        // Below this, symptoms are never diagnosed or amended again; the
        // same predicate prunes every piece of per-symptom state, so
        // pruning can never re-open an emission.
        let floor = now - self.hold_back - self.amend_window;

        let mut out = Vec::new();
        for symptom in store.instances(self.graph.root) {
            if symptom.window.end.unix() <= floor.unix() {
                continue; // beyond the skip floor: settled forever
            }
            let horizon = symptom.window.end + self.hold_back;
            if now < horizon {
                continue; // evidence horizon not reached yet
            }
            let key = (
                symptom.location.display(self.topo),
                symptom.window.start.unix(),
            );
            if self.emitted.contains_key(&key) {
                // Already out — re-diagnose once if it went out degraded
                // and every missing feed has since caught up.
                if self.pending_amend.contains_key(&key)
                    && self.missing_feeds(horizon, now).is_empty()
                {
                    self.pending_amend.remove(&key);
                    let e = Emission::full(engine.diagnose(symptom))
                        .amending()
                        .at(now)
                        .with_seq(self.next_seq);
                    self.next_seq += 1;
                    out.push(e);
                }
                continue;
            }
            let missing = self.missing_feeds(horizon, now);
            if missing.is_empty() {
                self.emitted.insert(key, symptom.window.end.unix());
                let e = Emission::full(engine.diagnose(symptom))
                    .at(now)
                    .with_seq(self.next_seq);
                self.next_seq += 1;
                out.push(e);
            } else if now >= horizon + self.wait_budget {
                self.emitted.insert(key.clone(), symptom.window.end.unix());
                self.pending_amend.insert(key, symptom.window.end.unix());
                let e = Emission::degraded(engine.diagnose(symptom), missing)
                    .at(now)
                    .with_seq(self.next_seq);
                self.next_seq += 1;
                out.push(e);
            }
            // else: feeds behind but budget remains — hold for a later
            // cycle (the symptom stays un-emitted).
        }

        // Prune every state table against the shared floor.
        let floor_unix = floor.unix();
        self.emitted.retain(|_, end| *end > floor_unix);
        self.pending_amend.retain(|_, end| *end > floor_unix);
        self.db.trim_quarantine(self.quarantine_keep);
        if let Some(margin) = self.db_retention {
            // Retention keeps an extra margin below the floor: diagnostic
            // instances slightly older than a still-open symptom can be
            // evidence for it (rule slack ≤ hold_back, plus symptom windows
            // spanning up to the 2 h flap-pairing gap), and a caller-chosen
            // drill-down margin below that. Nothing at or past the
            // retention floor can influence a verdict that is still open.
            self.db
                .retain_before(floor - self.hold_back - Duration::hours(2) - margin);
        }
        out
    }

    /// Next emission sequence number (the exactly-once cursor).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Capture the full checkpoint manifest at the end of `cycle`: append
    /// the dedup-fingerprint journal delta to `store`'s seen log, seal
    /// the collector's tail segments (the durability barrier), export the
    /// segment manifest, stats, quarantine, and feed watermarks, and
    /// embed this pipeline's per-symptom state
    /// ([`crate::checkpoint::PipelineCheckpoint`]) as the opaque
    /// `app_state`. The caller persists it via
    /// [`grca_collector::DurableStore::save`] (see
    /// [`crate::checkpoint::checkpoint`]). Requires durable segmented
    /// storage ([`StorageConfig::durable`] with a spill dir).
    pub fn checkpoint_manifest(
        &mut self,
        store: &grca_collector::DurableStore,
        cycle: u64,
    ) -> std::result::Result<grca_collector::StoreManifest, String> {
        let seen_log = store
            .persist_seen(&self.db, self.seen_log.as_ref())
            .map_err(|e| format!("persist seen log: {e}"))?;
        self.seen_log = Some(seen_log.clone());
        let export = |t: &BTreeMap<(String, i64), i64>| {
            t.iter()
                .map(|((loc, start), &end)| (loc.clone(), *start, end))
                .collect()
        };
        let app = crate::checkpoint::PipelineCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            cycle,
            next_seq: self.next_seq,
            emitted: export(&self.emitted),
            pending_amend: export(&self.pending_amend),
            marks: Vec::new(),
            hold_back_secs: self.hold_back.as_secs(),
        };
        let json = serde_json::to_string(&app).map_err(|e| format!("encode checkpoint: {e}"))?;
        grca_collector::StoreManifest::capture(
            &mut self.db,
            &self.stats,
            &self.registry,
            cycle,
            self.next_seq,
            Some(json),
            seen_log,
        )
    }

    /// Restore this pipeline from a checkpoint manifest. `self` must be
    /// freshly built with the same topology, definitions, graph, and
    /// tuning as the instance that wrote the checkpoint, and must not
    /// have ingested anything yet. On success the database, stats, feed
    /// watermarks, emission tables, and sequence cursor are back at the
    /// checkpoint barrier and the method returns the checkpointed cycle;
    /// the driver then replays every later cycle's micro-batches. All
    /// validation happens *before* any state is replaced, so an `Err`
    /// leaves `self` untouched (safe to fall back to a cold start).
    pub fn restore_from(
        &mut self,
        m: &grca_collector::StoreManifest,
        dir: &std::path::Path,
        cfg: &StorageConfig,
    ) -> std::result::Result<u64, String> {
        debug_assert!(self.db.row_counts().iter().all(|&n| n == 0));
        let json = m
            .app_state
            .as_deref()
            .ok_or("manifest carries no pipeline checkpoint")?;
        let app: crate::checkpoint::PipelineCheckpoint =
            serde_json::from_str(json).map_err(|e| format!("decode checkpoint: {e}"))?;
        if app.version != crate::checkpoint::CHECKPOINT_VERSION {
            return Err(format!("unknown checkpoint version {}", app.version));
        }
        if app.hold_back_secs != self.hold_back.as_secs() {
            return Err(format!(
                "checkpoint hold-back {}s != configured {}s: replay would diverge",
                app.hold_back_secs,
                self.hold_back.as_secs()
            ));
        }
        if app.next_seq != m.next_seq {
            return Err("checkpoint/manifest sequence cursors disagree".to_string());
        }
        let (db, stats, registry) = m.restore(dir, cfg)?;
        self.db = db;
        self.stats = stats;
        // Replay watermarks through the existing registry so cadence
        // overrides applied at build time survive the restore.
        for (feed, w, n) in registry.export_seen() {
            self.registry.observe(feed, w, n);
        }
        let import = |v: &[(String, i64, i64)]| {
            v.iter()
                .map(|(loc, start, end)| ((loc.clone(), *start), *end))
                .collect::<BTreeMap<_, _>>()
        };
        self.emitted = import(&app.emitted);
        self.pending_amend = import(&app.pending_amend);
        self.next_seq = app.next_seq;
        // Future checkpoints append past the restored log prefix.
        self.seen_log = Some(m.seen_log.clone());
        Ok(app.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp;
    use grca_core::{Diagnosis, EmissionMode};
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_net_model::NullOracle;
    use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};

    /// Drain the tail of a stream: advance the clock in sub-allowance
    /// steps so quiet-but-live feeds keep vouching for their silence
    /// while the last horizons close.
    fn drain(
        online: &mut OnlineRca,
        from: Timestamp,
        until: Timestamp,
        streamed: &mut Vec<Emission>,
    ) {
        let mut t = from;
        while t < until {
            t += Duration::mins(10);
            streamed.extend(online.advance(&[], t, &NullOracle, None));
        }
    }

    #[test]
    fn streaming_matches_batch() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(3, 12, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);

        // Batch reference.
        let (db, _) = Database::ingest(&topo, &out.records);
        let batch = bgp::run(&topo, &db).unwrap();

        // Stream the same records in 2-hour arrival batches: each cycle
        // delivers the records emitted before its clock instant, as live
        // feeds would. The drain tail is quiet for hold_back + 30 min
        // (~2.6 h) — longer than syslog's default staleness allowance — so
        // widen the cadence to keep the silence vouched for: a live
        // production feed would keep delivering records instead.
        let mut online = OnlineRca::new(&topo, bgp::event_definitions(), bgp::diagnosis_graph())
            .unwrap()
            .with_feed_cadence("syslog", Duration::hours(1));
        let mut streamed: Vec<Emission> = Vec::new();
        let mut now = cfg.start;
        let mut idx = 0;
        while now < cfg.end() {
            now += Duration::hours(2);
            let mut hi = idx;
            while hi < out.records.len()
                && grca_simnet::scenario::approx_utc(&topo, &out.records[hi]) < now
            {
                hi += 1;
            }
            streamed.extend(online.advance(&out.records[idx..hi], now, &NullOracle, None));
            idx = hi;
        }
        // Final flush: no new data, but the clock keeps polling past the
        // end so the last horizons close while the feeds are still live.
        let end = cfg.end() + online.hold_back() + Duration::mins(30);
        drain(&mut online, now, end, &mut streamed);

        // Healthy feeds: everything emits exactly once, full, unamended.
        assert!(
            streamed
                .iter()
                .all(|e| e.mode == EmissionMode::Full && !e.amends),
            "clean streaming must never degrade"
        );
        // Every emission carries the stream clock it was emitted at, and
        // never one before its symptom's evidence horizon closed.
        for e in &streamed {
            assert!(e.emitted_at > grca_types::Timestamp::MIN, "unstamped");
            assert!(e.emitted_at >= e.diagnosis.symptom.window.end + online.hold_back());
        }
        assert_eq!(streamed.len(), batch.diagnoses.len());
        // Same labels per symptom key.
        let key = |d: &Diagnosis| (d.symptom.location.display(&topo), d.symptom.window.start);
        let mut a: Vec<_> = streamed
            .iter()
            .map(|e| (key(&e.diagnosis), e.diagnosis.label()))
            .collect();
        let mut b: Vec<_> = batch
            .diagnoses
            .iter()
            .map(|d| (key(d), d.label()))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// Sealing storage with retention enabled must emit the same verdict
    /// stream as a database that never seals and keeps everything: retention
    /// only drops rows past the settled floor, never live evidence.
    #[test]
    fn segmented_storage_with_retention_streams_identically() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(3, 12, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);

        let stream = |mut online: OnlineRca| -> Vec<(String, i64, String)> {
            let mut streamed: Vec<Emission> = Vec::new();
            let mut now = cfg.start;
            let mut idx = 0;
            while now < cfg.end() {
                now += Duration::hours(2);
                let mut hi = idx;
                while hi < out.records.len()
                    && grca_simnet::scenario::approx_utc(&topo, &out.records[hi]) < now
                {
                    hi += 1;
                }
                streamed.extend(online.advance(&out.records[idx..hi], now, &NullOracle, None));
                idx = hi;
            }
            let end = cfg.end() + online.hold_back() + Duration::mins(30);
            drain(&mut online, now, end, &mut streamed);
            let mut keys: Vec<_> = streamed
                .iter()
                .map(|e| {
                    (
                        e.diagnosis.symptom.location.display(&topo),
                        e.diagnosis.symptom.window.start.unix(),
                        e.diagnosis.label().to_string(),
                    )
                })
                .collect();
            keys.sort();
            keys
        };

        let mk = || {
            OnlineRca::new(&topo, bgp::event_definitions(), bgp::diagnosis_graph())
                .unwrap()
                .with_feed_cadence("syslog", Duration::hours(1))
        };
        let flat = stream(mk());
        let seg_cfg = grca_collector::StorageConfig {
            segment_rows: 256,
            cache_segments: 2,
            ..Default::default()
        };
        let seg = stream(
            mk().with_storage(&seg_cfg)
                .with_db_retention(Duration::hours(1)),
        );
        assert_eq!(flat, seg);
        assert!(!flat.is_empty(), "scenario produced no emissions");
    }

    #[test]
    fn no_duplicates_across_batches() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 9, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let mut online =
            OnlineRca::new(&topo, bgp::event_definitions(), bgp::diagnosis_graph()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let end = cfg.end() + Duration::hours(2);
        // Feed everything, then advance the clock repeatedly. Data is
        // complete from the first cycle (watermarks sit at the scenario
        // end), so every emission must be full and unique.
        let mut first = true;
        let mut t = cfg.start;
        while t < end {
            let recs = if first { out.records.as_slice() } else { &[] };
            first = false;
            for e in online.advance(recs, t, &NullOracle, None) {
                assert_eq!(e.mode, EmissionMode::Full);
                assert!(!e.amends);
                let d = &e.diagnosis;
                let k = (d.symptom.location.display(&topo), d.symptom.window.start);
                assert!(seen.insert(k), "duplicate emission");
            }
            t += Duration::hours(1);
        }
    }

    #[test]
    fn hold_back_covers_late_evidence() {
        // The reboot banner lands minutes after the flaps; the derived
        // hold-back must cover the graph's largest temporal slack.
        let topo = generate(&TopoGenConfig::small());
        let online =
            OnlineRca::new(&topo, bgp::event_definitions(), bgp::diagnosis_graph()).unwrap();
        let max_slack = bgp::diagnosis_graph()
            .rules
            .iter()
            .map(|r| r.temporal.slack().as_secs())
            .max()
            .unwrap();
        assert!(online.hold_back().as_secs() >= max_slack);
        // The defaults bound the wait and keep a generous amend window.
        assert_eq!(
            online.wait_budget().as_secs(),
            online.hold_back().as_secs() * 2
        );
        assert!(online.amend_window() > online.wait_budget());
    }

    #[test]
    fn relevant_feeds_derived_from_graph() {
        let topo = generate(&TopoGenConfig::small());
        let online =
            OnlineRca::new(&topo, bgp::event_definitions(), bgp::diagnosis_graph()).unwrap();
        // The BGP study reads syslog (flaps, reboots, resets) and snmp
        // (CPU thresholds) at minimum.
        assert!(online.relevant_feeds().contains(&"syslog"));
        assert!(online.relevant_feeds().contains(&"snmp"));
    }
}
