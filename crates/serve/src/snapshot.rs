//! [`ServingSnapshot`]: one epoch's immutable world state — per-tenant
//! rule libraries (overlays already resolved), frozen routing, and the
//! extracted event store — everything a diagnosis needs, shared behind an
//! `Arc`. The only interior mutability is the routing state's memo: a
//! route query takes one cache-shard read lock on a hit and memoizes on a
//! miss, the same sharded cache batch diagnosis shares across threads.
//!
//! Tenancy follows the paper's platform framing (§III): each SQM
//! application (BGP flap, CDN, PIM MVPN, e2e loss) is *configuration*
//! over the shared engine, so a tenant here is a named diagnosis graph.
//! Overlays — tenant-specific extra rules on top of a base library —
//! are resolved and validated once per [`crate::Publisher`], never per
//! epoch or on the query path; a query only ever indexes into prebuilt
//! state.

use grca_core::{Diagnosis, DiagnosisGraph, DiagnosisRule, Engine, RuleIndex};
use grca_events::{EventInstance, EventStore};
use grca_net_model::{SpatialModel, Topology};
use grca_routing::FrozenRoutingState;
use grca_types::Result;
use std::sync::Arc;

/// A tenant's configuration, as handed to the [`crate::Publisher`]: a
/// base diagnosis graph plus overlay rules, resolved once when the
/// publisher is built.
pub struct TenantSpec {
    pub name: String,
    pub graph: DiagnosisGraph,
    /// Extra rules layered onto `graph` when the tenant is resolved.
    pub overlay: Vec<DiagnosisRule>,
    /// Fault injection: when set, every engine bind for this tenant
    /// panics with this message — stands in for a rule library whose
    /// evaluation code blows up on live data. The panic-isolation tests
    /// use it to prove a poisoned tenant fails its own requests with an
    /// explicit error verdict without taking down the worker pool.
    /// Always `None` in production configurations.
    pub poison: Option<String>,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, graph: DiagnosisGraph) -> Self {
        TenantSpec {
            name: name.into(),
            graph,
            overlay: Vec::new(),
            poison: None,
        }
    }

    /// Layer tenant-specific rules on top of the base graph. Applied —
    /// and validated — once by [`Tenant::resolve`], not per epoch or
    /// per query.
    pub fn with_overlay(mut self, rules: Vec<DiagnosisRule>) -> Self {
        self.overlay = rules;
        self
    }

    /// Inject a diagnose-time panic for this tenant (see the field doc).
    pub fn with_poison(mut self, msg: impl Into<String>) -> Self {
        self.poison = Some(msg.into());
        self
    }
}

/// A tenant resolved into its serving form: overlay merged, graph
/// validated, rule index prebuilt. Graph and index sit behind `Arc`s, so
/// every epoch shares one resolution.
#[derive(Clone)]
pub struct Tenant {
    pub name: String,
    pub graph: Arc<DiagnosisGraph>,
    pub index: Arc<RuleIndex>,
    /// Carried over from [`TenantSpec::poison`] — fault injection only.
    pub poison: Option<String>,
}

impl Tenant {
    /// Merge the overlay into the base graph, validate the result, and
    /// prebuild the rule index — the one resolution step.
    pub fn resolve(spec: TenantSpec) -> Result<Self> {
        let mut graph = spec.graph;
        graph.extend_rules(spec.overlay);
        graph.validate()?;
        let index = RuleIndex::build(&graph);
        Ok(Tenant {
            name: spec.name,
            graph: Arc::new(graph),
            index: Arc::new(index),
            poison: spec.poison,
        })
    }
}

/// One epoch of immutable serving state. Readers obtain it as an
/// `Arc<ServingSnapshot>` from [`crate::EpochCell::load`] (or pinned in
/// a [`crate::Session`]) and query it concurrently; the next epoch is
/// built off to the side and atomically published.
pub struct ServingSnapshot {
    /// Publisher-assigned generation, strictly increasing per publish.
    pub epoch: u64,
    /// Collector-side fingerprint of the ingested state this snapshot
    /// was extracted from ([`grca_collector::Database::ingest_epoch`]):
    /// lets the publisher skip republishing when ingest saw no change.
    pub ingest_epoch: u64,
    pub topo: Arc<Topology>,
    pub routing: FrozenRoutingState,
    pub store: EventStore,
    tenants: Vec<Tenant>,
}

impl ServingSnapshot {
    /// Assemble the epoch from already-resolved tenants ([`Tenant::resolve`];
    /// the [`crate::Publisher`] resolves its tenants once and hands each
    /// epoch a clone).
    pub fn from_parts(
        epoch: u64,
        ingest_epoch: u64,
        topo: Arc<Topology>,
        routing: FrozenRoutingState,
        store: EventStore,
        tenants: Vec<Tenant>,
    ) -> Self {
        ServingSnapshot {
            epoch,
            ingest_epoch,
            topo,
            routing,
            store,
            tenants,
        }
    }

    /// Tenant id for `name` (ids are stable within one snapshot: the
    /// build-order position).
    pub fn tenant_id(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Run `f` with an engine bound to `tenant` over this snapshot.
    ///
    /// The engine borrows the snapshot's routing oracle and prebuilt rule
    /// index, so constructing it is a handful of pointer copies — the
    /// serving worker builds one per request. The closure shape exists
    /// because the engine borrows stack-local spatial state.
    pub fn with_engine<R>(&self, tenant: usize, f: impl FnOnce(&Engine) -> R) -> R {
        let t = &self.tenants[tenant];
        if let Some(msg) = &t.poison {
            panic!("poisoned rule library for tenant {:?}: {msg}", t.name);
        }
        let oracle = self.routing.oracle(&self.topo);
        let spatial = SpatialModel::new(&self.topo, &oracle);
        let engine = Engine::with_index(&t.graph, &self.store, &spatial, &t.index);
        f(&engine)
    }

    /// Diagnose one symptom for `tenant` against this epoch.
    pub fn diagnose(&self, tenant: usize, symptom: &EventInstance) -> Diagnosis {
        self.with_engine(tenant, |e| e.diagnose(symptom))
    }

    /// Batch-diagnose every instance of `tenant`'s root symptom — the
    /// reference the differential tests compare served verdicts against.
    pub fn diagnose_all(&self, tenant: usize) -> Vec<Diagnosis> {
        self.with_engine(tenant, |e| e.diagnose_all())
    }

    /// Root-symptom instances for `tenant` in this epoch (what a client
    /// would query about).
    pub fn symptoms(&self, tenant: usize) -> &[EventInstance] {
        self.store.instances(self.tenants[tenant].graph.root)
    }
}
