//! The retrieval processes: turn collector tables into event instances.
//!
//! Each [`Retrieval`] variant is interpreted here. Everything operates on
//! *proactively collected* data only (§I): state transitions are paired
//! from syslog, thresholds are evaluated over SNMP samples, routing-derived
//! events come from monitor feeds (with the BGP decision process emulated
//! per §II-B), and performance events come from baseline-relative anomaly
//! detection over probe series.

use crate::def::{AnomalySense, EventDefinition, PimScope, Retrieval, StateSel};
use crate::instance::{EventInstance, EventStore};
use grca_collector::Database;
use grca_net_model::{Ipv4, LinkId, Location, RouterId, RouterRole, Topology};
use grca_routing::RoutingState;
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Duration, TimeWindow, Timestamp};
use std::collections::BTreeMap;

/// Maximum gap between a down and its matching up to count as one flap.
///
/// Public because it bounds extraction's *materialization latency*: a flap
/// instance only exists once its up transition arrives, up to this long
/// after the down. The online path's hold-back must cover it — evidence
/// emitted before then can silently change a verdict afterwards.
pub const MAX_FLAP_GAP: Duration = Duration::hours(2);
/// Gap merging consecutive anomalous samples into one event: one 5-minute
/// sampling interval plus timestamp slack, so only strictly adjacent bins
/// merge (a healthy bin in between splits the episode). Public for the
/// same reason as [`MAX_FLAP_GAP`]: an episode's end is settled only once
/// data this far past it has arrived.
pub const MERGE_GAP: Duration = Duration::secs(330);
/// Nominal duration of an OSPF reconvergence episode.
pub(crate) const RECONV_DUR: Duration = Duration::secs(10);

/// Everything extraction needs.
pub struct ExtractCx<'a> {
    pub topo: &'a Topology,
    pub db: &'a Database,
    /// Routing state reconstructed from the collected monitor feeds —
    /// required for `BgpEgressChange`, unused otherwise.
    pub routing: Option<&'a RoutingState<'a>>,
}

impl<'a> ExtractCx<'a> {
    pub fn new(
        topo: &'a Topology,
        db: &'a Database,
        routing: Option<&'a RoutingState<'a>>,
    ) -> Self {
        ExtractCx { topo, db, routing }
    }
}

/// Extract all instances for a set of definitions into a store, one
/// independent table scan per definition.
///
/// This is the reference path: [`crate::singlepass::extract_all`] produces
/// the same store in one pass per table and is what production callers
/// use; the differential tests pin the two against each other.
pub fn extract_all_baseline(defs: &[EventDefinition], cx: &ExtractCx) -> EventStore {
    let mut store = EventStore::new();
    for def in defs {
        store.add(extract(def, cx));
    }
    store
}

/// Extract the instances of one event definition.
pub fn extract(def: &EventDefinition, cx: &ExtractCx) -> Vec<EventInstance> {
    match &def.retrieval {
        Retrieval::InterfaceState(sel) => iface_state(def, cx, *sel, false),
        Retrieval::LineProtoState(sel) => iface_state(def, cx, *sel, true),
        Retrieval::RouterReboot => simple_syslog(def, cx, |ev| matches!(ev, SyslogEvent::Restart)),
        Retrieval::CpuSpike { min_pct } => {
            let min = *min_pct;
            cx.db
                .syslog
                .all()
                .iter()
                .filter_map(|row| match &row.event {
                    Some(SyslogEvent::CpuHog { pct }) if *pct >= min => Some(
                        EventInstance::new(
                            &def.name,
                            TimeWindow::at(row.utc),
                            Location::Router(row.router),
                        )
                        .with_info(format!("{pct}%")),
                    ),
                    _ => None,
                })
                .collect()
        }
        Retrieval::EbgpFlap => ebgp_flaps(def, cx),
        Retrieval::EbgpHoldTimerExpired => syslog_neighbor(def, cx, |ev| match ev {
            SyslogEvent::BgpHoldTimerExpired { neighbor } => Some(*neighbor),
            _ => None,
        }),
        Retrieval::CustomerResetSession => syslog_neighbor(def, cx, |ev| match ev {
            SyslogEvent::BgpPeerReset { neighbor } => Some(*neighbor),
            _ => None,
        }),
        Retrieval::PimAdjacencyChange(scope) => pim_changes(def, cx, *scope),
        Retrieval::SnmpThreshold { metric, min } => snmp_threshold(def, cx, *metric, *min),
        Retrieval::L1Restoration(kind) => cx
            .db
            .l1
            .all()
            .iter()
            .filter(|row| row.kind == *kind)
            .map(|row| {
                EventInstance::new(
                    &def.name,
                    TimeWindow::at(row.utc),
                    Location::PhysicalLink(row.circuit),
                )
                .with_info(
                    grca_types::Symbol::from(&cx.topo.phys_link(row.circuit).circuit).as_arc(),
                )
            })
            .collect(),
        Retrieval::OspfReconvergence => cx
            .db
            .ospf
            .all()
            .iter()
            .map(|row| {
                EventInstance::new(
                    &def.name,
                    TimeWindow::new(row.utc, row.utc + RECONV_DUR),
                    Location::LogicalLink(row.link),
                )
                .with_info(match row.weight {
                    Some(w) => format!("weight -> {w}"),
                    None => "withdrawn".to_string(),
                })
            })
            .collect(),
        Retrieval::LinkCostOutDown => link_cost_transitions(def, cx, false),
        Retrieval::LinkCostInUp => link_cost_transitions(def, cx, true),
        Retrieval::RouterCostInOut => router_cost_events(def, cx),
        Retrieval::CommandCostOut => command_events(def, cx, true),
        Retrieval::CommandCostIn => command_events(def, cx, false),
        Retrieval::PimConfigCommand => cx
            .db
            .tacacs
            .all()
            .iter()
            .filter(|row| row.command.contains("mvpn customer"))
            .map(|row| {
                EventInstance::new(
                    &def.name,
                    TimeWindow::at(row.utc),
                    Location::Router(row.router),
                )
                .with_info(row.command.as_str())
            })
            .collect(),
        Retrieval::BgpEgressChange { ingresses } => egress_changes(def, cx, ingresses),
        Retrieval::PerfAnomaly { metric, sense } => perf_anomalies(def, cx, *metric, *sense),
        Retrieval::CdnRttIncrease { rtt_factor } => {
            cdn_anomalies(def, cx, (Some(*rtt_factor), None))
        }
        Retrieval::CdnThroughputDrop { tput_factor } => {
            cdn_anomalies(def, cx, (None, Some(*tput_factor)))
        }
        Retrieval::CdnServerIssue { min_load } => {
            let mut by_node: BTreeMap<u32, Vec<Timestamp>> = BTreeMap::new();
            for row in cx.db.server.all().iter() {
                if row.load >= *min_load {
                    by_node.entry(row.node.0).or_default().push(row.utc);
                }
            }
            let mut out = Vec::new();
            for (node, times) in by_node {
                server_node_events(def, cx, node, times, &mut out);
            }
            out
        }
        Retrieval::SyslogMnemonic { mnemonic } => cx
            .db
            .syslog
            .all()
            .iter()
            .filter(|row| row.mnemonic() == mnemonic)
            .map(|row| {
                EventInstance::new(
                    &def.name,
                    TimeWindow::at(row.utc),
                    Location::Router(row.router),
                )
                .with_info(row.raw.as_str())
            })
            .collect(),
        Retrieval::WorkflowActivity { activity } => cx
            .db
            .workflow
            .all()
            .iter()
            .filter(|row| &row.activity == activity)
            .filter_map(|row| {
                // Resolve the entity: a router, or a CDN node's attachment.
                let loc = row.router.map(Location::Router).or_else(|| {
                    let node = cx.topo.cdn_node_by_name(&row.entity)?;
                    Some(Location::Router(cx.topo.cdn_node(node).attach_router))
                })?;
                Some(
                    EventInstance::new(&def.name, TimeWindow::at(row.utc), loc)
                        .with_info(grca_types::Symbol::from(&row.activity).as_arc()),
                )
            })
            .collect(),
    }
}

// ------------------------------------------------------------------ helpers

/// Pair (time, is_up) transitions per key into down / up / flap instances,
/// key by key in key order.
///
/// Keys are `Copy` — they are entity ids or small id tuples — so emitting
/// a window copies a few bytes instead of cloning per interval.
pub(crate) fn pair_transitions<K: Ord + Copy>(
    mut events: Vec<(Timestamp, K, bool)>,
    sel: StateSel,
) -> Vec<(K, TimeWindow)> {
    sort_transitions(&mut events);
    let mut out = Vec::new();
    for seq in events.chunk_by_mut(|a, b| a.1 == b.1) {
        pair_key(seq, sel, |k, w| out.push((k, w)));
    }
    out
}

/// Sort transitions by (key, instant, up), the order pairing reads them in.
pub(crate) fn sort_transitions<K: Ord + Copy>(events: &mut [(Timestamp, K, bool)]) {
    // Elements equal under this key are identical, so unstable is exact.
    events.sort_unstable_by_key(|&(t, k, up)| (k, t, up));
}

/// Pair one key's transitions into down / up / flap windows (shared by
/// both extractors). Merged parts may hand a key's transitions over out of
/// (instant, up) order — rows at one instant can straddle a seal in
/// tiebreak order — so they are sorted first, but only then.
pub(crate) fn pair_key<K: Copy>(
    seq: &mut [(Timestamp, K, bool)],
    sel: StateSel,
    mut emit: impl FnMut(K, TimeWindow),
) {
    if !seq.is_sorted_by_key(|&(t, _, up)| (t, up)) {
        seq.sort_unstable_by_key(|&(t, _, up)| (t, up));
    }
    match sel {
        StateSel::Down | StateSel::Up => {
            let up = sel == StateSel::Up;
            for &(t, k, _) in seq.iter().filter(|e| e.2 == up) {
                emit(k, TimeWindow::at(t));
            }
        }
        StateSel::Flap => {
            // Each down is matched to the first up at or after it: the
            // downs since the previous up all pair with this one (a down
            // sorts before an up at its own instant). Overlapping outages
            // (two downs before an up — e.g. two independent faults
            // hitting one session) still yield one flap per down, matching
            // how each underlying incident is counted.
            let mut from = 0;
            for (i, &(u, k, up)) in seq.iter().enumerate() {
                if up {
                    for &(t, ..) in seq[from..i].iter().filter(|d| u - d.0 <= MAX_FLAP_GAP) {
                        emit(k, TimeWindow::new(t, u));
                    }
                    from = i + 1;
                }
            }
        }
    }
}

/// Interface or line-protocol state events.
fn iface_state(
    def: &EventDefinition,
    cx: &ExtractCx,
    sel: StateSel,
    proto: bool,
) -> Vec<EventInstance> {
    let mut transitions = Vec::new();
    for row in cx.db.syslog.all().iter() {
        let (iface, up) = match (&row.event, proto) {
            (Some(SyslogEvent::LinkUpDown { iface, up }), false) => (iface, *up),
            (Some(SyslogEvent::LineProtoUpDown { iface, up }), true) => (iface, *up),
            _ => continue,
        };
        if let Some(i) = cx.topo.iface_by_name(row.router, iface) {
            transitions.push((row.utc, i, up));
        }
    }
    pair_transitions(transitions, sel)
        .into_iter()
        .map(|(i, w)| EventInstance::new(&def.name, w, Location::Interface(i)))
        .collect()
}

/// Point events from a syslog predicate, located at the router.
fn simple_syslog(
    def: &EventDefinition,
    cx: &ExtractCx,
    pred: impl Fn(&SyslogEvent) -> bool,
) -> Vec<EventInstance> {
    cx.db
        .syslog
        .all()
        .iter()
        .filter(|row| row.event.as_ref().is_some_and(&pred))
        .map(|row| {
            EventInstance::new(
                &def.name,
                TimeWindow::at(row.utc),
                Location::Router(row.router),
            )
        })
        .collect()
}

/// Point events from a syslog extractor yielding a neighbor IP.
fn syslog_neighbor(
    def: &EventDefinition,
    cx: &ExtractCx,
    get: impl Fn(&SyslogEvent) -> Option<Ipv4>,
) -> Vec<EventInstance> {
    cx.db
        .syslog
        .all()
        .iter()
        .filter_map(|row| {
            let neighbor = row.event.as_ref().and_then(&get)?;
            Some(EventInstance::new(
                &def.name,
                TimeWindow::at(row.utc),
                Location::RouterNeighborIp {
                    router: row.router,
                    neighbor,
                },
            ))
        })
        .collect()
}

/// eBGP session flaps: ADJCHANGE down paired with the next up.
fn ebgp_flaps(def: &EventDefinition, cx: &ExtractCx) -> Vec<EventInstance> {
    let mut transitions = Vec::new();
    for row in cx.db.syslog.all().iter() {
        if let Some(SyslogEvent::BgpAdjChange { neighbor, up }) = &row.event {
            transitions.push((row.utc, (row.router, *neighbor), *up));
        }
    }
    pair_transitions(transitions, StateSel::Flap)
        .into_iter()
        .map(|((router, neighbor), w)| {
            EventInstance::new(
                &def.name,
                w,
                Location::RouterNeighborIp { router, neighbor },
            )
        })
        .collect()
}

/// PIM adjacency changes, filtered by neighbor kind.
fn pim_changes(def: &EventDefinition, cx: &ExtractCx, scope: PimScope) -> Vec<EventInstance> {
    let mut transitions = Vec::new();
    for row in cx.db.syslog.all().iter() {
        if let Some(SyslogEvent::PimNbrChange { neighbor, up, .. }) = &row.event {
            let is_uplink = cx
                .topo
                .router_by_loopback(*neighbor)
                .is_some_and(|r| cx.topo.router(r).role == RouterRole::Core);
            let keep = match scope {
                PimScope::Uplink => is_uplink,
                PimScope::PePeOrCe => !is_uplink,
            };
            if keep {
                transitions.push((row.utc, (row.router, *neighbor), *up));
            }
        }
    }
    pair_transitions(transitions, StateSel::Flap)
        .into_iter()
        .map(|((router, neighbor), w)| {
            EventInstance::new(
                &def.name,
                w,
                Location::RouterNeighborIp { router, neighbor },
            )
        })
        .collect()
}

/// SNMP threshold events, merging consecutive qualifying 5-minute samples.
fn snmp_threshold(
    def: &EventDefinition,
    cx: &ExtractCx,
    metric: grca_telemetry::records::SnmpMetric,
    min: f64,
) -> Vec<EventInstance> {
    let mut by_entity: BTreeMap<(RouterId, Option<u32>), Vec<Timestamp>> = BTreeMap::new();
    for row in cx.db.snmp.all().iter() {
        if row.metric == metric && row.value >= min {
            by_entity
                .entry((row.router, row.iface.map(|i| i.0)))
                .or_default()
                .push(row.utc);
        }
    }
    let mut out = Vec::new();
    for ((router, iface), times) in by_entity {
        snmp_entity_events(def, router, iface, times, &mut out);
    }
    out
}

/// Emit one SNMP entity's threshold episodes (shared by the per-def and
/// single-pass extractors; `times` must be the entity's qualifying sample
/// instants in time order).
pub(crate) fn snmp_entity_events(
    def: &EventDefinition,
    router: RouterId,
    iface: Option<u32>,
    times: impl IntoIterator<Item = Timestamp>,
    out: &mut Vec<EventInstance>,
) {
    let loc = match iface {
        Some(i) => Location::Interface(grca_net_model::InterfaceId::new(i)),
        None => Location::Router(router),
    };
    bin_episodes(def, loc, times, out);
}

/// Emit the episodes of time-ordered 5-minute sample instants at `loc`:
/// adjacent bins merge, and an episode ends where its last bin does.
fn bin_episodes(
    def: &EventDefinition,
    loc: Location,
    times: impl IntoIterator<Item = Timestamp>,
    out: &mut Vec<EventInstance>,
) {
    for w in merge_times(times, MERGE_GAP) {
        // A 5-minute sample covers [t, t+300).
        let window = TimeWindow::new(w.start, w.end + Duration::mins(5));
        out.push(EventInstance::new(&def.name, window, loc));
    }
}

/// Emit one CDN node's server-load episodes (shared by both extractors).
pub(crate) fn server_node_events(
    def: &EventDefinition,
    cx: &ExtractCx,
    node: u32,
    times: impl IntoIterator<Item = Timestamp>,
    out: &mut Vec<EventInstance>,
) {
    let node = grca_net_model::CdnNodeId::new(node);
    let attach = cx.topo.cdn_node(node).attach_router;
    for w in merge_times(times, MERGE_GAP) {
        out.push(
            EventInstance::new(&def.name, w, Location::Router(attach))
                .with_info(grca_types::Symbol::from(&cx.topo.cdn_node(node).name).as_arc()),
        );
    }
}

/// Merge sorted instants within `gap` into windows. Every caller passes
/// instants in row order, which is time order.
pub(crate) fn merge_times<I: IntoIterator<Item = Timestamp>>(
    times: I,
    gap: Duration,
) -> Vec<TimeWindow> {
    let mut out: Vec<TimeWindow> = Vec::new();
    for t in times {
        debug_assert!(out.last().is_none_or(|w| w.end <= t), "out of time order");
        match out.last_mut() {
            Some(w) if t - w.end <= gap => w.end = t,
            _ => out.push(TimeWindow::at(t)),
        }
    }
    out
}

/// Link cost-out (Some→None) / cost-in (None→Some) transitions.
fn link_cost_transitions(
    def: &EventDefinition,
    cx: &ExtractCx,
    cost_in: bool,
) -> Vec<EventInstance> {
    let mut last: BTreeMap<LinkId, bool> = BTreeMap::new(); // true = alive
    let mut out = Vec::new();
    for row in cx.db.ospf.all().iter() {
        let alive_now = row.weight.is_some();
        let was_alive = *last.get(&row.link).unwrap_or(&true);
        let is_cost_out = was_alive && !alive_now;
        let is_cost_in = !was_alive && alive_now;
        if (cost_in && is_cost_in) || (!cost_in && is_cost_out) {
            out.push(EventInstance::new(
                &def.name,
                TimeWindow::at(row.utc),
                Location::LogicalLink(row.link),
            ));
        }
        last.insert(row.link, alive_now);
    }
    out
}

/// Router-wide cost in/out: most of a router's links withdrawn (or
/// restored) within a short window.
fn router_cost_events(def: &EventDefinition, cx: &ExtractCx) -> Vec<EventInstance> {
    // Per router: (time, link, withdrawn?) for its links' transitions.
    let mut per_router: BTreeMap<RouterId, Vec<(Timestamp, LinkId, bool)>> = BTreeMap::new();
    let mut last: BTreeMap<LinkId, bool> = BTreeMap::new();
    for row in cx.db.ospf.all().iter() {
        let alive_now = row.weight.is_some();
        let was_alive = *last.get(&row.link).unwrap_or(&true);
        last.insert(row.link, alive_now);
        if alive_now == was_alive {
            continue;
        }
        let (a, b) = cx.topo.link_routers(row.link);
        for r in [a, b] {
            per_router
                .entry(r)
                .or_default()
                .push((row.utc, row.link, !alive_now));
        }
    }
    router_cost_finish(def, cx, per_router)
}

/// Turn per-router link-transition sequences into router-wide cost in/out
/// events (shared by the per-def and single-pass extractors).
pub(crate) fn router_cost_finish(
    def: &EventDefinition,
    cx: &ExtractCx,
    per_router: BTreeMap<RouterId, Vec<(Timestamp, LinkId, bool)>>,
) -> Vec<EventInstance> {
    const WINDOW: Duration = Duration::secs(120);
    let mut out = Vec::new();
    for (router, mut evs) in per_router {
        let degree = cx.topo.links_at_router(router).len();
        if degree < 2 {
            continue;
        }
        let need = (((degree as f64) * 0.7).ceil() as usize).max(2);
        evs.sort();
        for withdrawn in [true, false] {
            let times: Vec<(Timestamp, LinkId)> = evs
                .iter()
                .filter(|(_, _, w)| *w == withdrawn)
                .map(|(t, l, _)| (*t, *l))
                .collect();
            // Sliding window: count distinct links within WINDOW.
            let mut i = 0;
            while i < times.len() {
                let start = times[i].0;
                let mut links: Vec<LinkId> = Vec::new();
                let mut j = i;
                while j < times.len() && times[j].0 - start <= WINDOW {
                    if !links.contains(&times[j].1) {
                        links.push(times[j].1);
                    }
                    j += 1;
                }
                if links.len() >= need {
                    out.push(
                        EventInstance::new(
                            &def.name,
                            TimeWindow::new(start, times[j - 1].0 + RECONV_DUR),
                            Location::Router(router),
                        )
                        .with_info(if withdrawn {
                            "cost out"
                        } else {
                            "cost in"
                        }),
                    );
                    i = j;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

/// TACACS cost-out / cost-in command events.
fn command_events(def: &EventDefinition, cx: &ExtractCx, out_dir: bool) -> Vec<EventInstance> {
    cx.db
        .tacacs
        .all()
        .iter()
        .filter_map(|row| {
            let c = &row.command;
            let is_out = c.contains("cost 65535")
                || (c.contains("max-metric") && !c.contains("no max-metric"));
            let is_in = (c.contains("ip ospf cost ") && !c.contains("65535"))
                || c.contains("no max-metric");
            if (out_dir && !is_out) || (!out_dir && !is_in) {
                return None;
            }
            // Interface-scoped command → interface location; else router.
            let loc = c
                .split_whitespace()
                .skip_while(|w| *w != "interface")
                .nth(1)
                .and_then(|name| cx.topo.iface_by_name(row.router, name))
                .map(Location::Interface)
                .unwrap_or(Location::Router(row.router));
            Some(EventInstance::new(&def.name, TimeWindow::at(row.utc), loc).with_info(c.as_str()))
        })
        .collect()
}

/// Emulated best-egress changes per (ingress, prefix) at BGP update times.
fn egress_changes(
    def: &EventDefinition,
    cx: &ExtractCx,
    ingresses: &[RouterId],
) -> Vec<EventInstance> {
    let Some(routing) = cx.routing else {
        return Vec::new();
    };
    // Deduplicate reflector copies of the same update.
    let mut seen = std::collections::BTreeSet::new();
    let mut update_times: BTreeMap<grca_net_model::Prefix, Vec<Timestamp>> = BTreeMap::new();
    for row in cx.db.bgp.all().iter() {
        if seen.insert((row.utc, row.prefix, row.egress, row.attrs)) {
            update_times.entry(row.prefix).or_default().push(row.utc);
        }
    }
    egress_finish(def, cx, routing, ingresses, update_times)
}

/// Replay deduplicated update instants against the emulated decision
/// process and emit best-egress changes (shared by both extractors).
pub(crate) fn egress_finish(
    def: &EventDefinition,
    cx: &ExtractCx,
    routing: &grca_routing::RoutingState,
    ingresses: &[RouterId],
    update_times: BTreeMap<grca_net_model::Prefix, Vec<Timestamp>>,
) -> Vec<EventInstance> {
    let mut out = Vec::new();
    for (prefix, times) in update_times {
        for t in times {
            for &ingress in ingresses {
                use grca_net_model::RouteOracle;
                let before = routing.egress_for(ingress, prefix, t - Duration::secs(1));
                let after = routing.egress_for(ingress, prefix, t);
                if before != after {
                    out.push(
                        EventInstance::new(
                            &def.name,
                            TimeWindow::at(t),
                            Location::IngressDestination {
                                ingress,
                                dst: prefix,
                            },
                        )
                        .with_info(format!(
                            "{} -> {}",
                            before
                                .map(|r| cx.topo.router(r).name.clone())
                                .unwrap_or_else(|| "none".into()),
                            after
                                .map(|r| cx.topo.router(r).name.clone())
                                .unwrap_or_else(|| "none".into()),
                        )),
                    );
                }
            }
        }
    }
    out
}

/// Trailing-median baseline tracker: the baseline for each sample is the
/// median of up to the previous `window` samples, never the future — so
/// batch and real-time extraction agree, and an anomaly cannot inflate its
/// own baseline (no lookahead bias).
///
/// The window is held twice: in arrival order, to know what leaves, and
/// sorted, so the median is an index read. [`clear`](Self::clear) keeps
/// both buffers, so one tracker serves every series of a finish.
pub(crate) struct TrailingBaseline {
    window: usize,
    min_history: usize,
    history: std::collections::VecDeque<f64>,
    sorted: Vec<f64>,
}

impl TrailingBaseline {
    pub(crate) fn new(window: usize, min_history: usize) -> Self {
        TrailingBaseline {
            window,
            min_history,
            history: std::collections::VecDeque::new(),
            sorted: Vec::new(),
        }
    }

    /// Forget the series, keep the buffers.
    pub(crate) fn clear(&mut self) {
        self.history.clear();
        self.sorted.clear();
    }

    /// The baseline before observing `value`, then absorb it.
    /// Returns `None` until enough history exists to judge. Values are
    /// never NaN: the collector quarantines non-finite measurements.
    pub(crate) fn observe(&mut self, value: f64) -> Option<f64> {
        debug_assert!(!value.is_nan(), "a NaN cannot be ordered");
        let base = if self.history.len() >= self.min_history {
            self.sorted.get(self.sorted.len() / 2).copied()
        } else {
            None
        };
        let at = self.sorted.partition_point(|&x| x < value);
        self.sorted.insert(at, value);
        self.history.push_back(value);
        if self.history.len() > self.window {
            let old = self.history.pop_front().expect("window is not empty");
            let at = self.sorted.partition_point(|&x| x < old);
            self.sorted.remove(at);
        }
        base
    }
}

/// The probe and CDN baseline: the median of the previous 50 samples,
/// judged once 4 exist.
impl Default for TrailingBaseline {
    fn default() -> Self {
        Self::new(50, 4)
    }
}

/// End-to-end probe anomalies relative to the per-pair median baseline.
fn perf_anomalies(
    def: &EventDefinition,
    cx: &ExtractCx,
    metric: grca_telemetry::records::PerfMetric,
    sense: AnomalySense,
) -> Vec<EventInstance> {
    let mut series: BTreeMap<(RouterId, RouterId), Vec<(Timestamp, f64)>> = BTreeMap::new();
    for row in cx.db.perf.all().iter() {
        if row.metric == metric {
            series
                .entry((row.ingress, row.egress))
                .or_default()
                .push((row.utc, row.value));
        }
    }
    let (mut out, mut baseline) = (Vec::new(), TrailingBaseline::default());
    for (pair, pts) in series {
        perf_pair_events(def, pair, pts, sense, &mut baseline, &mut out);
    }
    out
}

/// Emit one probe pair's anomaly episodes against its trailing-median
/// baseline, `pts` in time order (shared by both extractors).
pub(crate) fn perf_pair_events(
    def: &EventDefinition,
    (ingress, egress): (RouterId, RouterId),
    pts: impl IntoIterator<Item = (Timestamp, f64)>,
    sense: AnomalySense,
    baseline: &mut TrailingBaseline,
    out: &mut Vec<EventInstance>,
) {
    baseline.clear();
    let anomalous = pts.into_iter().filter_map(|(t, v)| {
        let med = baseline.observe(v)?;
        let hit = match sense {
            AnomalySense::Increase => v > 2.0 * med + 0.2,
            AnomalySense::Drop => v < 0.5 * med,
        };
        hit.then_some(t)
    });
    let loc = Location::IngressEgress { ingress, egress };
    bin_episodes(def, loc, anomalous, out);
}

/// CDN RTT / throughput anomalies relative to the per-pair median.
fn cdn_anomalies(
    def: &EventDefinition,
    cx: &ExtractCx,
    factors: (Option<f64>, Option<f64>),
) -> Vec<EventInstance> {
    // (instant, rtt, throughput) samples per (node, client) pair.
    type PairSamples = Vec<(Timestamp, f64, f64)>;
    let mut series: BTreeMap<(u32, u32), PairSamples> = BTreeMap::new();
    for row in cx.db.cdn.all().iter() {
        series.entry((row.node.0, row.client.0)).or_default().push((
            row.utc,
            row.rtt_ms,
            row.throughput_mbps,
        ));
    }
    let (mut out, mut baseline) = (Vec::new(), TrailingBaseline::default());
    for (pair, pts) in series {
        cdn_pair_events(def, pair, pts, factors, &mut baseline, &mut out);
    }
    out
}

/// Emit one (CDN node, client site) pair's RTT or throughput anomaly
/// episodes against the trailing median of the one its definition reads,
/// `pts` in time order (shared by both extractors).
pub(crate) fn cdn_pair_events(
    def: &EventDefinition,
    (node, client): (u32, u32),
    pts: impl IntoIterator<Item = (Timestamp, f64, f64)>,
    (rtt_factor, tput_factor): (Option<f64>, Option<f64>),
    baseline: &mut TrailingBaseline,
    out: &mut Vec<EventInstance>,
) {
    baseline.clear();
    let anomalous = pts.into_iter().filter_map(|(t, rtt, tput)| {
        let hit = match (rtt_factor, tput_factor) {
            (Some(f), _) => rtt > f * baseline.observe(rtt)?,
            (None, Some(f)) => tput < baseline.observe(tput)? / f,
            (None, None) => false,
        };
        hit.then_some(t)
    });
    let loc = Location::ServerClient {
        node: grca_net_model::CdnNodeId::new(node),
        client: grca_net_model::ClientSiteId::new(client),
    };
    bin_episodes(def, loc, anomalous, out);
}
