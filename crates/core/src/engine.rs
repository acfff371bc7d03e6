//! The Generic RCA Engine: spatio-temporal correlation over a diagnosis
//! graph, plus rule-based (priority) reasoning (§II-C, §II-D.1).
//!
//! For each symptom instance the engine walks the diagnosis graph from the
//! root: every rule's diagnostic instances are fetched from the event
//! store, filtered by the temporal rule (expanded-window overlap) and the
//! spatial rule (join-level conversion through the spatial model), and
//! matched evidence recursively becomes the symptom side of deeper rules.
//! The leaf evidence with the maximum edge priority is called as the root
//! cause; ties produce joint root causes.
//!
//! Hot-path design: event names are interned [`Symbol`]s, the traversal
//! frontier borrows instances from the store (nothing is cloned until it
//! becomes evidence), rules are pre-indexed by symptom name, and spatial
//! joins are memoized per diagnosis keyed on the routing epoch.

use crate::graph::{DiagnosisGraph, DiagnosisRule};
use grca_events::{EventInstance, EventStore};
use grca_net_model::{JoinLevel, Location, SpatialModel};
use grca_types::{batch_size, map_indexed, FxBuild, Symbol, Timestamp};
use std::collections::{HashMap, HashSet};

/// Label used when no diagnostic evidence joined a symptom.
pub const UNKNOWN: &str = "unknown";

/// One matched piece of evidence in a diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// Index of the matched rule in the graph.
    pub rule: usize,
    /// The diagnostic event name (the candidate cause).
    pub event: Symbol,
    /// The matched diagnostic instance.
    pub instance: EventInstance,
    /// Edge priority of the rule that matched it.
    pub priority: u32,
    /// Depth below the symptom (1 = direct rule from the root).
    pub depth: usize,
    /// Index into the evidence vector of the parent (None = root).
    pub parent: Option<usize>,
}

/// The outcome of diagnosing one symptom instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    pub symptom: EventInstance,
    /// All matched evidence, in discovery (BFS) order.
    pub evidence: Vec<Evidence>,
    /// Indices of the winning evidence (max priority; >1 on ties).
    pub root_causes: Vec<usize>,
}

impl Diagnosis {
    /// The root-cause label: winning diagnostic event name(s), joined with
    /// `"+"` for joint causes, or [`UNKNOWN`] with no evidence.
    pub fn label(&self) -> String {
        if self.root_causes.is_empty() {
            return UNKNOWN.to_string();
        }
        let mut names: Vec<&str> = self
            .root_causes
            .iter()
            .map(|&i| self.evidence[i].event.as_str())
            .collect();
        names.sort();
        names.dedup();
        names.join("+")
    }

    /// Whether any evidence of the given event name was matched
    /// (at any depth) — the feature extractor for Bayesian reasoning.
    pub fn has_evidence(&self, event: &str) -> bool {
        let event = Symbol::new(event);
        self.evidence.iter().any(|e| e.event == event)
    }

    /// The canonical join key of the diagnosed symptom's location —
    /// matches the `key` field of the simulator's truth records, so
    /// evaluation harnesses can join diagnoses back to ground truth by
    /// `(symptom kind, location key, time window)`.
    pub fn location_key(&self, topo: &grca_net_model::Topology) -> String {
        self.symptom.location.display(topo)
    }

    /// A compact verdict summary: `(root-cause label, symptom window)`.
    /// Two diagnosis runs are *verdict-identical* when their verdict
    /// sequences are equal — the invariant the evaluation harness asserts
    /// between the sequential and parallel engine paths.
    pub fn verdict(&self) -> (String, grca_types::TimeWindow) {
        (self.label(), self.symptom.window)
    }

    /// The chain of evidence from a winning cause back to the symptom.
    pub fn chain(&self, cause_idx: usize) -> Vec<&Evidence> {
        let mut out = Vec::new();
        let mut cur = Some(cause_idx);
        while let Some(i) = cur {
            out.push(&self.evidence[i]);
            cur = self.evidence[i].parent;
        }
        out.reverse();
        out
    }
}

/// Pre-built symptom → rule-indices map for a diagnosis graph.
///
/// Building it is the only work [`Engine::new`] does — the store and the
/// spatial model are borrowed. A caller that binds many short-lived
/// engines to the same (immutable) rule library — the serving layer
/// constructs an engine per request batch — builds the index once per
/// library (at snapshot-publish time) and shares it via
/// [`Engine::with_index`], which makes the bind pointer copies only.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    by_symptom: HashMap<Symbol, Vec<usize>>,
}

impl RuleIndex {
    /// Index `graph`'s rules by symptom-side event, in graph order.
    pub fn build(graph: &DiagnosisGraph) -> Self {
        let mut by_symptom: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (ri, rule) in graph.rules.iter().enumerate() {
            by_symptom.entry(rule.symptom).or_default().push(ri);
        }
        RuleIndex { by_symptom }
    }

    fn rules_for(&self, name: Symbol) -> Option<&Vec<usize>> {
        self.by_symptom.get(&name)
    }
}

/// The engine: a diagnosis graph bound to an event store and spatial model.
pub struct Engine<'a> {
    pub graph: &'a DiagnosisGraph,
    pub store: &'a EventStore,
    pub spatial: &'a SpatialModel<'a>,
    /// Maximum graph depth explored (cycles are rejected at validation,
    /// this bounds pathological configurations).
    pub max_depth: usize,
    /// Rule indices grouped by symptom-side event, in graph order — the
    /// per-step replacement for scanning every rule. Owned when built by
    /// [`Engine::new`], borrowed when shared via [`Engine::with_index`].
    index: std::borrow::Cow<'a, RuleIndex>,
}

/// Spatial-join memo for one diagnosis: within a routing epoch the join
/// answer is a pure function of the level and the two locations, so
/// repeated evaluations (shared sub-causes, several candidates at one
/// location) become table hits instead of path computations.
type JoinMemo = HashMap<(JoinLevel, Location, Location, u64), bool, FxBuild>;

impl<'a> Engine<'a> {
    pub fn new(
        graph: &'a DiagnosisGraph,
        store: &'a EventStore,
        spatial: &'a SpatialModel<'a>,
    ) -> Self {
        Engine {
            graph,
            store,
            spatial,
            max_depth: 8,
            index: std::borrow::Cow::Owned(RuleIndex::build(graph)),
        }
    }

    /// Like [`Engine::new`], but sharing a pre-built [`RuleIndex`]
    /// instead of re-indexing the graph. `index` must have been built
    /// from this `graph` (same rule order) — the serving snapshot keeps
    /// the pair together per tenant.
    pub fn with_index(
        graph: &'a DiagnosisGraph,
        store: &'a EventStore,
        spatial: &'a SpatialModel<'a>,
        index: &'a RuleIndex,
    ) -> Self {
        Engine {
            graph,
            store,
            spatial,
            max_depth: 8,
            index: std::borrow::Cow::Borrowed(index),
        }
    }

    /// Diagnose every instance of the root symptom event in the store.
    pub fn diagnose_all(&self) -> Vec<Diagnosis> {
        self.store
            .instances(self.graph.root)
            .iter()
            .map(|s| self.diagnose(s))
            .collect()
    }

    /// [`Engine::diagnose_all`], fanned out over `threads` workers by
    /// [`map_indexed`]: the output is identical to the sequential run, in
    /// the same order.
    pub fn diagnose_all_parallel(&self, threads: usize) -> Vec<Diagnosis> {
        let symptoms = self.store.instances(self.graph.root);
        let batch = batch_size(symptoms.len(), threads);
        map_indexed(symptoms.len(), threads, batch, |i| {
            self.diagnose(&symptoms[i])
        })
    }

    fn joined_memo(
        &self,
        memo: &mut JoinMemo,
        rule: &DiagnosisRule,
        sym: &Location,
        diag: &Location,
        at: Timestamp,
    ) -> bool {
        let key = (rule.spatial.join_level, *sym, *diag, self.spatial.epoch(at));
        if let Some(&joined) = memo.get(&key) {
            return joined;
        }
        let joined = rule.spatial.joined(self.spatial, sym, diag, at);
        memo.insert(key, joined);
        joined
    }

    /// Diagnose one symptom instance.
    pub fn diagnose(&self, symptom: &EventInstance) -> Diagnosis {
        // Evidence is found in a per-thread scratch vector and copied out
        // at its exact size: a verdict is built once and kept by whoever
        // consumes it (an emission log, a served epoch), so it should hold
        // no growth slack, and the copy is cheaper than growing a fresh
        // vector by `push` (capacity 4 at the first, for two or three
        // entries) and shrinking it afterwards.
        thread_local! {
            static FOUND: std::cell::RefCell<Vec<Evidence>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        FOUND.with_borrow_mut(|found| {
            found.clear(); // a panic mid-diagnosis may have left entries
            self.diagnose_into(symptom, found)
        })
    }

    fn diagnose_into(&self, symptom: &EventInstance, evidence: &mut Vec<Evidence>) -> Diagnosis {
        // Dedup key: (rule, diag window, diag location) — the same
        // instance can be reachable through several parents.
        let mut seen: HashSet<(usize, i64, i64, Location), FxBuild> = HashSet::default();
        let mut joins: JoinMemo = JoinMemo::default();
        // Traversal frontier: (event name, instance, parent evidence,
        // depth). Instances are borrowed from the store (or the symptom);
        // nothing is cloned until it becomes evidence.
        let mut frontier: Vec<(Symbol, &EventInstance, Option<usize>, usize)> =
            vec![(symptom.name, symptom, None, 0)];
        while let Some((name, inst, parent, depth)) = frontier.pop() {
            if depth >= self.max_depth {
                continue;
            }
            let Some(rules) = self.index.rules_for(name) else {
                continue;
            };
            for &ri in rules {
                let rule = &self.graph.rules[ri];
                let slack = rule.temporal.slack() + grca_types::Duration::secs(1);
                for cand in self.store.candidates(rule.diagnostic, inst.window, slack) {
                    if !rule.temporal.joined(inst.window, cand.window) {
                        continue;
                    }
                    // Routing-dependent conversions are time-varying: for
                    // reroute-style causes (cost-out) the relevant path is
                    // the one *before* the event, for restoration-style
                    // causes (cost-in) the one *after*. Evaluate the join
                    // at the expanded window's start (pre-event epoch) and
                    // at the raw window's end (post-event epoch).
                    let pre = rule.temporal.symptom.expand(inst.window).start;
                    let post = inst.window.end;
                    let joined_pre =
                        self.joined_memo(&mut joins, rule, &inst.location, &cand.location, pre);
                    let joined_post = !joined_pre
                        && post != pre
                        && self.joined_memo(&mut joins, rule, &inst.location, &cand.location, post);
                    if !joined_pre && !joined_post {
                        continue;
                    }
                    let key = (ri, cand.window.start.0, cand.window.end.0, cand.location);
                    if !seen.insert(key) {
                        continue;
                    }
                    let idx = evidence.len();
                    evidence.push(Evidence {
                        rule: ri,
                        event: rule.diagnostic,
                        instance: cand.clone(),
                        priority: rule.priority,
                        depth: depth + 1,
                        parent,
                    });
                    frontier.push((rule.diagnostic, cand, Some(idx), depth + 1));
                }
            }
        }
        // Winner(s): maximum priority. Counted first, so this vector is
        // sized exactly too.
        let max_prio = evidence.iter().map(|e| e.priority).max();
        let winners = || {
            evidence
                .iter()
                .enumerate()
                .filter(|(_, e)| Some(e.priority) == max_prio)
                .map(|(i, _)| i)
        };
        let mut root_causes = Vec::with_capacity(winners().count());
        root_causes.extend(winners());
        let mut exact = Vec::with_capacity(evidence.len());
        exact.append(evidence);
        Diagnosis {
            symptom: symptom.clone(),
            evidence: exact,
            root_causes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiagnosisRule;
    use crate::join::{ExpandOption, Expansion, TemporalRule};
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_net_model::{JoinLevel, Location, NullOracle, SpatialModel, Topology};
    use grca_types::{TimeWindow, Timestamp};

    /// Graph: flap <-(100)- cpu ; flap <-(180)- iface-flap ;
    /// iface-flap <-(200)- sonet.
    fn graph() -> DiagnosisGraph {
        let mut g = DiagnosisGraph::new("test", "flap");
        g.add_rule(DiagnosisRule::new(
            "flap",
            "cpu",
            TemporalRule::hold_timer(180),
            JoinLevel::Router,
            100,
        ));
        g.add_rule(DiagnosisRule::new(
            "flap",
            "iface-flap",
            TemporalRule::new(
                Expansion::new(ExpandOption::StartStart, 180, 5),
                Expansion::new(ExpandOption::StartEnd, 5, 5),
            ),
            JoinLevel::Interface,
            180,
        ));
        g.add_rule(DiagnosisRule::new(
            "iface-flap",
            "sonet",
            TemporalRule::symmetric(10),
            JoinLevel::PhysicalLink,
            200,
        ));
        g.validate().unwrap();
        g
    }

    fn setup() -> (Topology, DiagnosisGraph) {
        (generate(&TopoGenConfig::small()), graph())
    }

    fn w(s: i64, e: i64) -> TimeWindow {
        TimeWindow::new(Timestamp(s), Timestamp(e))
    }

    fn store_with(topo: &Topology, instances: Vec<EventInstance>) -> EventStore {
        let _ = topo;
        let mut st = EventStore::new();
        st.add(instances);
        st
    }

    #[test]
    fn deeper_cause_wins_by_priority() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        let iface_flap =
            EventInstance::new("iface-flap", w(950, 960), Location::Interface(sess.iface));
        let cpu = EventInstance::new("cpu", w(995, 995), Location::Router(sess.pe));
        let store = store_with(&topo, vec![flap.clone(), iface_flap, cpu]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let d = engine.diagnose(&flap);
        // Both joined, interface flap (priority 180) wins over CPU (100).
        assert!(d.has_evidence("cpu"));
        assert!(d.has_evidence("iface-flap"));
        assert_eq!(d.label(), "iface-flap");
        // A verdict holds exactly what it found.
        assert_eq!(d.evidence.capacity(), d.evidence.len());
        assert_eq!(d.root_causes.capacity(), d.root_causes.len());
    }

    #[test]
    fn transitive_evidence_reaches_layer1() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let circuit = topo.interface(sess.iface).access_circuit.unwrap();
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        let iface_flap =
            EventInstance::new("iface-flap", w(950, 960), Location::Interface(sess.iface));
        let sonet = EventInstance::new("sonet", w(948, 948), Location::PhysicalLink(circuit));
        let store = store_with(&topo, vec![flap.clone(), iface_flap, sonet]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let d = engine.diagnose(&flap);
        // The SONET restoration (priority 200, reached through the
        // interface flap) is the root cause.
        assert_eq!(d.label(), "sonet");
        let chain = d.chain(d.root_causes[0]);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].event, "iface-flap");
        assert_eq!(chain[1].event, "sonet");
        assert_eq!(chain[1].depth, 2);
    }

    #[test]
    fn spatially_unrelated_evidence_ignored() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let other = &topo.sessions[9]; // different PE in the small topo
        assert_ne!(sess.pe, other.pe);
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        let wrong_iface =
            EventInstance::new("iface-flap", w(950, 960), Location::Interface(other.iface));
        let wrong_cpu = EventInstance::new("cpu", w(995, 995), Location::Router(other.pe));
        let store = store_with(&topo, vec![flap.clone(), wrong_iface, wrong_cpu]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let d = engine.diagnose(&flap);
        assert!(d.evidence.is_empty());
        assert_eq!(d.label(), UNKNOWN);
    }

    #[test]
    fn temporally_unrelated_evidence_ignored() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let flap = EventInstance::new(
            "flap",
            w(10_000, 10_100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        // An interface flap an hour earlier.
        let stale =
            EventInstance::new("iface-flap", w(6000, 6010), Location::Interface(sess.iface));
        let store = store_with(&topo, vec![flap.clone(), stale]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        assert_eq!(engine.diagnose(&flap).label(), UNKNOWN);
    }

    #[test]
    fn tie_produces_joint_causes() {
        let (topo, _) = setup();
        let mut g = DiagnosisGraph::new("t", "flap");
        g.add_rule(DiagnosisRule::new(
            "flap",
            "a",
            TemporalRule::symmetric(30),
            JoinLevel::Router,
            50,
        ));
        g.add_rule(DiagnosisRule::new(
            "flap",
            "b",
            TemporalRule::symmetric(30),
            JoinLevel::Router,
            50,
        ));
        let sess = &topo.sessions[0];
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        let ea = EventInstance::new("a", w(990, 990), Location::Router(sess.pe));
        let eb = EventInstance::new("b", w(1010, 1010), Location::Router(sess.pe));
        let store = store_with(&topo, vec![flap.clone(), ea, eb]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let d = engine.diagnose(&flap);
        assert_eq!(d.root_causes.len(), 2);
        assert_eq!(d.label(), "a+b");
    }

    #[test]
    fn shared_deep_evidence_is_deduplicated() {
        // One SONET restoration under an interface flap reachable from two
        // paths must appear once in the evidence list.
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let circuit = topo.interface(sess.iface).access_circuit.unwrap();
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        // Two interface flaps both joined to the same sonet instance.
        let if1 = EventInstance::new("iface-flap", w(950, 960), Location::Interface(sess.iface));
        let if2 = EventInstance::new("iface-flap", w(965, 972), Location::Interface(sess.iface));
        let sonet = EventInstance::new("sonet", w(955, 955), Location::PhysicalLink(circuit));
        let store = store_with(&topo, vec![flap.clone(), if1, if2, sonet]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let d = engine.diagnose(&flap);
        let sonet_count = d.evidence.iter().filter(|e| e.event == "sonet").count();
        assert_eq!(sonet_count, 1, "{:?}", d.evidence);
        assert_eq!(d.label(), "sonet");
    }

    #[test]
    fn max_depth_bounds_exploration() {
        // A long chain a <- b <- c <- ... must stop at max_depth.
        let topo = generate(&TopoGenConfig::small());
        let mut g = DiagnosisGraph::new("deep", "e0");
        let mut instances = vec![EventInstance::new(
            "e0",
            w(0, 10),
            Location::Router(grca_net_model::RouterId::new(0)),
        )];
        for i in 0..12 {
            g.add_rule(DiagnosisRule::new(
                format!("e{i}"),
                format!("e{}", i + 1),
                TemporalRule::symmetric(60),
                JoinLevel::Router,
                10 + i as u32,
            ));
            instances.push(EventInstance::new(
                format!("e{}", i + 1),
                w(0, 10),
                Location::Router(grca_net_model::RouterId::new(0)),
            ));
        }
        g.validate().unwrap();
        let sym = instances[0].clone();
        let mut store = EventStore::new();
        store.add(instances);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let mut engine = Engine::new(&g, &store, &sm);
        engine.max_depth = 4;
        let d = engine.diagnose(&sym);
        assert!(d.evidence.iter().all(|e| e.depth <= 4));
        assert_eq!(d.evidence.iter().map(|e| e.depth).max(), Some(4));
    }

    #[test]
    fn parallel_diagnosis_equals_sequential() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let mut instances = Vec::new();
        for s in 0..40 {
            instances.push(EventInstance::new(
                "flap",
                w(s * 1000, s * 1000 + 60),
                Location::RouterNeighborIp {
                    router: sess.pe,
                    neighbor: sess.neighbor_ip,
                },
            ));
            if s % 3 == 0 {
                instances.push(EventInstance::new(
                    "iface-flap",
                    w(s * 1000 - 50, s * 1000 - 40),
                    Location::Interface(sess.iface),
                ));
            }
        }
        let store = store_with(&topo, instances);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        let seq = engine.diagnose_all();
        let par = engine.diagnose_all_parallel(4);
        assert_eq!(seq, par);
    }

    #[test]
    fn work_stealing_batches_cover_every_worker() {
        // Regression: batch sizing must never starve a worker — for every
        // load in 1..=64 symptoms and 1..=8 threads there are at least as
        // many batches to claim as (effective) workers spawned.
        for len in 1usize..=64 {
            for threads in 1usize..=8 {
                let workers = threads.min(len);
                let batch = batch_size(len, workers);
                assert!(batch >= 1);
                let batches = len.div_ceil(batch);
                assert!(
                    batches >= workers,
                    "len={len} threads={threads}: {batches} batches for {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_handles_more_threads_than_symptoms() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let flap = EventInstance::new(
            "flap",
            w(1000, 1100),
            Location::RouterNeighborIp {
                router: sess.pe,
                neighbor: sess.neighbor_ip,
            },
        );
        let store = store_with(&topo, vec![flap]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        assert_eq!(engine.diagnose_all_parallel(8), engine.diagnose_all());
        assert!(engine.diagnose_all_parallel(0).len() == 1);
    }

    #[test]
    fn diagnose_all_covers_every_symptom() {
        let (topo, g) = setup();
        let sess = &topo.sessions[0];
        let mk_flap = |s: i64| {
            EventInstance::new(
                "flap",
                w(s, s + 60),
                Location::RouterNeighborIp {
                    router: sess.pe,
                    neighbor: sess.neighbor_ip,
                },
            )
        };
        let store = store_with(&topo, vec![mk_flap(1000), mk_flap(5000), mk_flap(9000)]);
        let sm = SpatialModel::new(&topo, &NullOracle);
        let engine = Engine::new(&g, &store, &sm);
        assert_eq!(engine.diagnose_all().len(), 3);
    }
}
