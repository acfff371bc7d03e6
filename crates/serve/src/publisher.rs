//! [`Publisher`]: the ingest-side epoch builder.
//!
//! Owns the collector database, a memoized incremental extractor over
//! the *union* of every tenant's event definitions (extraction
//! happens once per epoch, shared by all tenants), and the tenants,
//! resolved once at construction. Each cycle: [`Publisher::ingest`] raw
//! records, then [`Publisher::publish_if_changed`] — rebuild routing,
//! extract, freeze, and hand the assembled [`ServingSnapshot`] to the
//! serving cell. There is no warm step: the route caches start empty
//! each epoch and a served miss memoizes like a batch one. All of that
//! happens off to the side of the query path; readers only ever see the
//! one atomic swap at the end.

use crate::snapshot::{ServingSnapshot, Tenant, TenantSpec};
use grca_apps::build_routing;
use grca_collector::{Database, IngestStats, StorageConfig};
use grca_events::{EventDefinition, ExtractCx, IncrementalExtractor};
use grca_net_model::Topology;
use grca_telemetry::records::RawRecord;
use grca_types::Result;
use std::sync::Arc;

/// Ingest-side builder of serving epochs.
pub struct Publisher {
    topo: Arc<Topology>,
    db: Database,
    stats: IngestStats,
    extractor: IncrementalExtractor,
    /// The tenants, resolved once by [`Publisher::new`]; each epoch
    /// takes a clone (a few `Arc` bumps). A spec that fails to resolve
    /// fails every publish with the same error.
    tenants: Result<Vec<Tenant>>,
    /// Next epoch number to assign.
    next_epoch: u64,
    /// Collector fingerprint of the last published epoch, for no-op
    /// publish elision.
    published_ingest_epoch: Option<u64>,
}

impl Publisher {
    /// `defs` must cover every tenant's event definitions. They form
    /// one shared registry extracted once per epoch into the shared
    /// store; definitions tenants share (Knowledge Library reuse)
    /// collapse by name to the first occurrence, so concatenating the
    /// per-app definition lists is the expected calling convention.
    pub fn new(topo: Arc<Topology>, defs: Vec<EventDefinition>, specs: Vec<TenantSpec>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let defs: Vec<EventDefinition> = defs
            .into_iter()
            .filter(|d| seen.insert(d.name.clone()))
            .collect();
        Publisher {
            topo,
            db: Database::default(),
            stats: IngestStats::default(),
            extractor: IncrementalExtractor::new(defs),
            tenants: specs.into_iter().map(Tenant::resolve).collect(),
            next_epoch: 0,
            published_ingest_epoch: None,
        }
    }

    /// Give the collector database tables that seal, spill and cache as
    /// `cfg` says.
    pub fn with_storage(mut self, cfg: &StorageConfig) -> Self {
        self.db = Database::with_storage(cfg);
        self
    }

    /// Adopt a recovered collector state (database plus accounting, as
    /// restored from a durable checkpoint manifest) — the restart path:
    /// the publisher's next epoch is built over the recovered history
    /// exactly as if it had ingested it itself. Replaces the empty
    /// database, so call it before the first [`Publisher::ingest`].
    pub fn with_recovered(mut self, db: Database, stats: IngestStats) -> Self {
        self.db = db;
        self.stats = stats;
        self
    }

    /// Ingest a micro-batch of raw records (normalization + dedup, same
    /// path as the online consumer).
    pub fn ingest(&mut self, records: &[RawRecord]) {
        self.db.ingest_more(&self.topo, records, &mut self.stats);
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Build the next epoch: reconstruct routing, extract (re-reading only
    /// the unsealed tail), freeze, assemble with the tenants resolved at construction. No
    /// diagnosis runs here; the snapshot's route caches fill on demand.
    pub fn publish(&mut self) -> Result<Arc<ServingSnapshot>> {
        let tenants = self.tenants.clone()?;
        let ingest_epoch = self.db.ingest_epoch();
        let live = build_routing(&self.topo, &self.db);
        let store = {
            let cx = ExtractCx::new(&self.topo, &self.db, Some(&live));
            self.extractor.extract(&cx)
        };
        let snap = Arc::new(ServingSnapshot::from_parts(
            self.next_epoch,
            ingest_epoch,
            self.topo.clone(),
            live.freeze(),
            store,
            tenants,
        ));
        self.next_epoch += 1;
        self.published_ingest_epoch = Some(ingest_epoch);
        Ok(snap)
    }

    /// [`Publisher::publish`], elided when ingest saw no state change
    /// since the last publish (the collector fingerprint is O(tables)).
    pub fn publish_if_changed(&mut self) -> Result<Option<Arc<ServingSnapshot>>> {
        if self.published_ingest_epoch == Some(self.db.ingest_epoch()) {
            return Ok(None);
        }
        self.publish().map(Some)
    }
}
