//! Single-pass multi-definition extraction.
//!
//! The baseline extractor ([`crate::extract::extract_all_baseline`]) scans
//! each collector table once *per definition* — a library of forty
//! definitions reads the syslog table a dozen times. Production extraction
//! instead registers every definition up front, buckets them by the table
//! they read, and makes **one pass per table**, dispatching each row to all
//! of its matchers. The per-definition accumulators feed the exact same
//! finish helpers as the baseline (`pair_transitions`, `merge_times`,
//! `snmp_entity_events`, …), so the output is instance-for-instance
//! identical — the differential tests in `tests/extraction.rs` pin the two
//! paths against each other over the golden evaluation corpus.
//!
//! The pass also takes a `Cut`: `Full` reads whole tables, `After`
//! restricts each table to the rows strictly after a per-table watermark
//! via the collector's binary-searched time index. Stateless definitions
//! (point events with no cross-row state, see [`is_stateless`]) extract
//! correctly over such a delta slice; the incremental extractor in
//! [`crate::delta`] builds on that.

use crate::def::{AnomalySense, EventDefinition, PimScope, Retrieval, StateSel};
use crate::extract::{
    cdn_pair_events, egress_finish, pair_transitions, perf_pair_events, router_cost_finish,
    server_node_events, snmp_entity_events, ExtractCx, RECONV_DUR,
};
use crate::instance::{EventInstance, EventStore};
use grca_collector::{RowSet, StoredRow, Table};
use grca_net_model::{InterfaceId, Ipv4, LinkId, Location, Prefix, RouterId, RouterRole};
use grca_telemetry::records::{PerfMetric, SnmpMetric};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Symbol, TimeWindow, Timestamp};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Which slice of each table a pass reads.
///
/// The watermark array is indexed in [`grca_collector::Database::row_counts`]
/// order: syslog, snmp, l1, ospf, bgp, tacacs, workflow, perf, cdn, server.
/// `None` for a table means "no prior rows" — read it whole.
#[derive(Clone, Copy)]
pub(crate) enum Cut<'a> {
    /// Every row of every table.
    Full,
    /// Only rows strictly after each table's watermark.
    After(&'a [Option<Timestamp>; 10]),
}

pub(crate) const T_SYSLOG: usize = 0;
pub(crate) const T_SNMP: usize = 1;
pub(crate) const T_L1: usize = 2;
pub(crate) const T_OSPF: usize = 3;
pub(crate) const T_BGP: usize = 4;
pub(crate) const T_TACACS: usize = 5;
pub(crate) const T_WORKFLOW: usize = 6;
pub(crate) const T_PERF: usize = 7;
pub(crate) const T_CDN: usize = 8;
pub(crate) const T_SERVER: usize = 9;

/// The rows of `t` selected by `cut` (binary-searched, not scanned).
fn sliced<'a, R: StoredRow>(t: &'a Table<R>, cut: Cut, ix: usize) -> RowSet<'a, R> {
    match cut {
        Cut::Full => t.all(),
        Cut::After(marks) => match marks[ix] {
            Some(w) => t.after(w),
            None => t.all(),
        },
    }
}

/// Extract all instances for a set of definitions into a store, scanning
/// each collector table once no matter how many definitions read it.
///
/// Produces a store equal to [`crate::extract::extract_all_baseline`] —
/// same instances, same per-name order.
pub fn extract_all(defs: &[EventDefinition], cx: &ExtractCx) -> EventStore {
    let refs: Vec<&EventDefinition> = defs.iter().collect();
    let mut store = EventStore::new();
    for out in run(&refs, cx, Cut::Full) {
        store.add(out);
    }
    store
}

/// True when the definition emits independent point events with no
/// cross-row state — no down/up pairing, no threshold-episode merging, no
/// trailing baseline, no cost-state tracking, no update deduplication.
/// Stateless definitions extract correctly over a rows-after-watermark
/// delta slice; stateful ones must re-read the whole table.
pub fn is_stateless(def: &EventDefinition) -> bool {
    matches!(
        def.retrieval,
        Retrieval::RouterReboot
            | Retrieval::CpuSpike { .. }
            | Retrieval::EbgpHoldTimerExpired
            | Retrieval::CustomerResetSession
            | Retrieval::L1Restoration(_)
            | Retrieval::OspfReconvergence
            | Retrieval::PimConfigCommand
            | Retrieval::CommandCostOut
            | Retrieval::CommandCostIn
            | Retrieval::SyslogMnemonic { .. }
            | Retrieval::WorkflowActivity { .. }
    )
}

/// One accumulator per syslog-reading definition (mnemonic definitions
/// dispatch through a hash map instead — see `run`).
enum SyslogAcc {
    /// Interface or line-protocol state transitions, paired at finish.
    Iface {
        sel: StateSel,
        proto: bool,
        tr: Vec<(Timestamp, InterfaceId, bool)>,
    },
    Reboot,
    Cpu {
        min: u32,
    },
    EbgpFlap {
        tr: Vec<(Timestamp, (RouterId, Ipv4), bool)>,
    },
    HoldTimer,
    Reset,
    Pim {
        scope: PimScope,
        tr: Vec<(Timestamp, (RouterId, Ipv4), bool)>,
    },
}

/// Per-entity timestamp series keyed by (router, optional ifindex).
type SnmpSeries = BTreeMap<(RouterId, Option<u32>), Vec<Timestamp>>;
/// Deduplicated update timestamps per prefix.
type PrefixTimes = BTreeMap<Prefix, Vec<Timestamp>>;
/// (rtt, throughput) samples per (CDN node, client-set) pair.
type CdnSeries = BTreeMap<(u32, u32), Vec<(Timestamp, f64, f64)>>;
/// High-load sample timestamps per CDN node.
type NodeTimes = BTreeMap<u32, Vec<Timestamp>>;

/// Interpret every definition over each table in one pass. Output is
/// indexed like `defs`; each entry equals `extract(defs[i], cx)` exactly
/// (over the cut slice).
pub(crate) fn run(defs: &[&EventDefinition], cx: &ExtractCx, cut: Cut) -> Vec<Vec<EventInstance>> {
    let mut outs: Vec<Vec<EventInstance>> = vec![Vec::new(); defs.len()];

    // ------------------------------------------------------------ syslog
    // (slot, def, accumulator) for every definition reading syslog.
    // Mnemonic definitions are keyed by their message type instead: the
    // screening configuration registers one definition per syslog mnemonic
    // (the paper's §IV-B had 2533), and a linear matcher sweep per row
    // would put extraction right back at O(definitions × rows). A hash
    // lookup on the row's mnemonic finds the interested definitions in
    // O(1) regardless of how many are registered.
    let mut syslog: Vec<(usize, &EventDefinition, SyslogAcc)> = Vec::new();
    let mut mnemonics: HashMap<&str, Vec<(usize, &EventDefinition)>> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::SyslogMnemonic { mnemonic } = &def.retrieval {
            mnemonics
                .entry(mnemonic.as_str())
                .or_default()
                .push((i, *def));
            continue;
        }
        let acc = match &def.retrieval {
            Retrieval::InterfaceState(sel) => SyslogAcc::Iface {
                sel: *sel,
                proto: false,
                tr: Vec::new(),
            },
            Retrieval::LineProtoState(sel) => SyslogAcc::Iface {
                sel: *sel,
                proto: true,
                tr: Vec::new(),
            },
            Retrieval::RouterReboot => SyslogAcc::Reboot,
            Retrieval::CpuSpike { min_pct } => SyslogAcc::Cpu { min: *min_pct },
            Retrieval::EbgpFlap => SyslogAcc::EbgpFlap { tr: Vec::new() },
            Retrieval::EbgpHoldTimerExpired => SyslogAcc::HoldTimer,
            Retrieval::CustomerResetSession => SyslogAcc::Reset,
            Retrieval::PimAdjacencyChange(scope) => SyslogAcc::Pim {
                scope: *scope,
                tr: Vec::new(),
            },
            _ => continue,
        };
        syslog.push((i, *def, acc));
    }
    if !syslog.is_empty() || !mnemonics.is_empty() {
        for row in sliced(&cx.db.syslog, cut, T_SYSLOG).iter() {
            // Mnemonic matchers see every line, parsed or not; one hash
            // lookup replaces a sweep over every registered message type.
            if !mnemonics.is_empty() {
                if let Some(hits) = mnemonics.get(row.mnemonic()) {
                    for (slot, def) in hits {
                        outs[*slot].push(
                            EventInstance::new(
                                &def.name,
                                TimeWindow::at(row.utc),
                                Location::Router(row.router),
                            )
                            .with_info(row.raw.as_str()),
                        );
                    }
                }
            }
            // Interface resolution is shared across matchers of one row.
            let mut resolved: Option<Option<InterfaceId>> = None;
            for (slot, def, acc) in syslog.iter_mut() {
                match acc {
                    SyslogAcc::Iface { proto, tr, .. } => {
                        let iface = match (&row.event, *proto) {
                            (Some(SyslogEvent::LinkUpDown { iface, up }), false) => (iface, *up),
                            (Some(SyslogEvent::LineProtoUpDown { iface, up }), true) => {
                                (iface, *up)
                            }
                            _ => continue,
                        };
                        let (name, up) = iface;
                        let id = *resolved
                            .get_or_insert_with(|| cx.topo.iface_by_name(row.router, name));
                        if let Some(id) = id {
                            tr.push((row.utc, id, up));
                        }
                    }
                    SyslogAcc::Reboot => {
                        if matches!(row.event, Some(SyslogEvent::Restart)) {
                            outs[*slot].push(EventInstance::new(
                                &def.name,
                                TimeWindow::at(row.utc),
                                Location::Router(row.router),
                            ));
                        }
                    }
                    SyslogAcc::Cpu { min } => {
                        if let Some(SyslogEvent::CpuHog { pct }) = &row.event {
                            if pct >= min {
                                outs[*slot].push(
                                    EventInstance::new(
                                        &def.name,
                                        TimeWindow::at(row.utc),
                                        Location::Router(row.router),
                                    )
                                    .with_info(format!("{pct}%")),
                                );
                            }
                        }
                    }
                    SyslogAcc::EbgpFlap { tr } => {
                        if let Some(SyslogEvent::BgpAdjChange { neighbor, up }) = &row.event {
                            tr.push((row.utc, (row.router, *neighbor), *up));
                        }
                    }
                    SyslogAcc::HoldTimer => {
                        if let Some(SyslogEvent::BgpHoldTimerExpired { neighbor }) = &row.event {
                            outs[*slot].push(EventInstance::new(
                                &def.name,
                                TimeWindow::at(row.utc),
                                Location::RouterNeighborIp {
                                    router: row.router,
                                    neighbor: *neighbor,
                                },
                            ));
                        }
                    }
                    SyslogAcc::Reset => {
                        if let Some(SyslogEvent::BgpPeerReset { neighbor }) = &row.event {
                            outs[*slot].push(EventInstance::new(
                                &def.name,
                                TimeWindow::at(row.utc),
                                Location::RouterNeighborIp {
                                    router: row.router,
                                    neighbor: *neighbor,
                                },
                            ));
                        }
                    }
                    SyslogAcc::Pim { scope, tr } => {
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
                                tr.push((row.utc, (row.router, *neighbor), *up));
                            }
                        }
                    }
                }
            }
        }
        for (slot, def, acc) in syslog {
            match acc {
                SyslogAcc::Iface { sel, tr, .. } => {
                    outs[slot].extend(
                        pair_transitions(tr, sel)
                            .into_iter()
                            .map(|(i, w)| EventInstance::new(&def.name, w, Location::Interface(i))),
                    );
                }
                SyslogAcc::EbgpFlap { tr } | SyslogAcc::Pim { tr, .. } => {
                    outs[slot].extend(pair_transitions(tr, StateSel::Flap).into_iter().map(
                        |((router, neighbor), w)| {
                            EventInstance::new(
                                &def.name,
                                w,
                                Location::RouterNeighborIp { router, neighbor },
                            )
                        },
                    ));
                }
                _ => {} // point events already emitted in row order
            }
        }
    }

    // -------------------------------------------------------------- snmp
    let mut snmp: Vec<(usize, &EventDefinition, SnmpMetric, f64, SnmpSeries)> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::SnmpThreshold { metric, min } = &def.retrieval {
            snmp.push((i, *def, *metric, *min, BTreeMap::new()));
        }
    }
    if !snmp.is_empty() {
        for row in sliced(&cx.db.snmp, cut, T_SNMP).iter() {
            for (_, _, metric, min, by_entity) in snmp.iter_mut() {
                if row.metric == *metric && row.value >= *min {
                    by_entity
                        .entry((row.router, row.iface.map(|i| i.0)))
                        .or_default()
                        .push(row.utc);
                }
            }
        }
        for (slot, def, _, _, by_entity) in snmp {
            for ((router, iface), times) in by_entity {
                snmp_entity_events(def, router, iface, &times, &mut outs[slot]);
            }
        }
    }

    // ---------------------------------------------------------------- l1
    let l1: Vec<(
        usize,
        &EventDefinition,
        grca_telemetry::records::L1EventKind,
    )> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::L1Restoration(kind) => Some((i, *def, *kind)),
            _ => None,
        })
        .collect();
    if !l1.is_empty() {
        for row in sliced(&cx.db.l1, cut, T_L1).iter() {
            for (slot, def, kind) in &l1 {
                if row.kind == *kind {
                    outs[*slot].push(
                        EventInstance::new(
                            &def.name,
                            TimeWindow::at(row.utc),
                            Location::PhysicalLink(row.circuit),
                        )
                        .with_info(Symbol::from(&cx.topo.phys_link(row.circuit).circuit).as_arc()),
                    );
                }
            }
        }
    }

    // -------------------------------------------------------------- ospf
    enum OspfAcc {
        Reconv,
        LinkCost { cost_in: bool },
        RouterCost(BTreeMap<RouterId, Vec<(Timestamp, LinkId, bool)>>),
    }
    let mut ospf: Vec<(usize, &EventDefinition, OspfAcc)> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let acc = match &def.retrieval {
            Retrieval::OspfReconvergence => OspfAcc::Reconv,
            Retrieval::LinkCostOutDown => OspfAcc::LinkCost { cost_in: false },
            Retrieval::LinkCostInUp => OspfAcc::LinkCost { cost_in: true },
            Retrieval::RouterCostInOut => OspfAcc::RouterCost(BTreeMap::new()),
            _ => continue,
        };
        ospf.push((i, *def, acc));
    }
    if !ospf.is_empty() {
        // One shared alive-state trajectory: every cost matcher would
        // build the identical map, so track it once.
        let mut last: BTreeMap<LinkId, bool> = BTreeMap::new();
        for row in sliced(&cx.db.ospf, cut, T_OSPF).iter() {
            let alive_now = row.weight.is_some();
            let was_alive = *last.get(&row.link).unwrap_or(&true);
            for (slot, def, acc) in ospf.iter_mut() {
                match acc {
                    OspfAcc::Reconv => {
                        outs[*slot].push(
                            EventInstance::new(
                                &def.name,
                                TimeWindow::new(row.utc, row.utc + RECONV_DUR),
                                Location::LogicalLink(row.link),
                            )
                            .with_info(match row.weight {
                                Some(w) => format!("weight -> {w}"),
                                None => "withdrawn".to_string(),
                            }),
                        );
                    }
                    OspfAcc::LinkCost { cost_in } => {
                        let is_cost_out = was_alive && !alive_now;
                        let is_cost_in = !was_alive && alive_now;
                        if (*cost_in && is_cost_in) || (!*cost_in && is_cost_out) {
                            outs[*slot].push(EventInstance::new(
                                &def.name,
                                TimeWindow::at(row.utc),
                                Location::LogicalLink(row.link),
                            ));
                        }
                    }
                    OspfAcc::RouterCost(per_router) => {
                        if alive_now != was_alive {
                            let (a, b) = cx.topo.link_routers(row.link);
                            for r in [a, b] {
                                per_router
                                    .entry(r)
                                    .or_default()
                                    .push((row.utc, row.link, !alive_now));
                            }
                        }
                    }
                }
            }
            last.insert(row.link, alive_now);
        }
        for (slot, def, acc) in ospf {
            if let OspfAcc::RouterCost(per_router) = acc {
                outs[slot] = router_cost_finish(def, cx, per_router);
            }
        }
    }

    // --------------------------------------------------------------- bgp
    type UpdateKey = (Timestamp, Prefix, RouterId, Option<(u32, u32)>);
    struct BgpAcc<'a> {
        slot: usize,
        def: &'a EventDefinition,
        ingresses: &'a [RouterId],
        seen: BTreeSet<UpdateKey>,
        update_times: PrefixTimes,
    }
    let mut bgp: Vec<BgpAcc<'_>> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::BgpEgressChange { ingresses } = &def.retrieval {
            if cx.routing.is_some() {
                bgp.push(BgpAcc {
                    slot: i,
                    def,
                    ingresses: ingresses.as_slice(),
                    seen: BTreeSet::new(),
                    update_times: BTreeMap::new(),
                });
            }
        }
    }
    if !bgp.is_empty() {
        for row in sliced(&cx.db.bgp, cut, T_BGP).iter() {
            for acc in bgp.iter_mut() {
                if acc
                    .seen
                    .insert((row.utc, row.prefix, row.egress, row.attrs))
                {
                    acc.update_times
                        .entry(row.prefix)
                        .or_default()
                        .push(row.utc);
                }
            }
        }
        let routing = cx
            .routing
            .expect("bgp matchers only registered with routing");
        for acc in bgp {
            outs[acc.slot] = egress_finish(acc.def, cx, routing, acc.ingresses, acc.update_times);
        }
    }

    // ------------------------------------------------------------ tacacs
    enum TacacsAcc {
        Command { out_dir: bool },
        PimConfig,
    }
    let mut tacacs: Vec<(usize, &EventDefinition, TacacsAcc)> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let acc = match &def.retrieval {
            Retrieval::CommandCostOut => TacacsAcc::Command { out_dir: true },
            Retrieval::CommandCostIn => TacacsAcc::Command { out_dir: false },
            Retrieval::PimConfigCommand => TacacsAcc::PimConfig,
            _ => continue,
        };
        tacacs.push((i, *def, acc));
    }
    if !tacacs.is_empty() {
        for row in sliced(&cx.db.tacacs, cut, T_TACACS).iter() {
            let c = &row.command;
            for (slot, def, acc) in &tacacs {
                match acc {
                    TacacsAcc::PimConfig => {
                        if c.contains("mvpn customer") {
                            outs[*slot].push(
                                EventInstance::new(
                                    &def.name,
                                    TimeWindow::at(row.utc),
                                    Location::Router(row.router),
                                )
                                .with_info(c.as_str()),
                            );
                        }
                    }
                    TacacsAcc::Command { out_dir } => {
                        let is_out = c.contains("cost 65535")
                            || (c.contains("max-metric") && !c.contains("no max-metric"));
                        let is_in = (c.contains("ip ospf cost ") && !c.contains("65535"))
                            || c.contains("no max-metric");
                        if (*out_dir && !is_out) || (!*out_dir && !is_in) {
                            continue;
                        }
                        let loc = c
                            .split_whitespace()
                            .skip_while(|w| *w != "interface")
                            .nth(1)
                            .and_then(|name| cx.topo.iface_by_name(row.router, name))
                            .map(Location::Interface)
                            .unwrap_or(Location::Router(row.router));
                        outs[*slot].push(
                            EventInstance::new(&def.name, TimeWindow::at(row.utc), loc)
                                .with_info(c.as_str()),
                        );
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------- workflow
    // Keyed by activity for the same reason as the syslog mnemonics: the
    // screening configuration registers one definition per activity type
    // (the paper had 831), so per-row dispatch must not scale with the
    // registry size.
    let mut wf: HashMap<&str, Vec<(usize, &EventDefinition)>> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::WorkflowActivity { activity } = &def.retrieval {
            wf.entry(activity.as_str()).or_default().push((i, *def));
        }
    }
    if !wf.is_empty() {
        for row in sliced(&cx.db.workflow, cut, T_WORKFLOW).iter() {
            let Some(hits) = wf.get(row.activity.as_str()) else {
                continue;
            };
            for (slot, def) in hits {
                let loc = row.router.map(Location::Router).or_else(|| {
                    let node = cx.topo.cdn_node_by_name(&row.entity)?;
                    Some(Location::Router(cx.topo.cdn_node(node).attach_router))
                });
                if let Some(loc) = loc {
                    outs[*slot].push(
                        EventInstance::new(&def.name, TimeWindow::at(row.utc), loc)
                            .with_info(Symbol::from(&row.activity).as_arc()),
                    );
                }
            }
        }
    }

    // -------------------------------------------------------------- perf
    type PairSeries = BTreeMap<(RouterId, RouterId), Vec<(Timestamp, f64)>>;
    let mut perf: Vec<(
        usize,
        &EventDefinition,
        PerfMetric,
        AnomalySense,
        PairSeries,
    )> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::PerfAnomaly { metric, sense } = &def.retrieval {
            perf.push((i, *def, *metric, *sense, BTreeMap::new()));
        }
    }
    if !perf.is_empty() {
        for row in sliced(&cx.db.perf, cut, T_PERF).iter() {
            for (_, _, metric, _, series) in perf.iter_mut() {
                if row.metric == *metric {
                    series
                        .entry((row.ingress, row.egress))
                        .or_default()
                        .push((row.utc, row.value));
                }
            }
        }
        for (slot, def, _, sense, series) in perf {
            for ((ingress, egress), pts) in series {
                perf_pair_events(def, ingress, egress, pts, sense, &mut outs[slot]);
            }
        }
    }

    // --------------------------------------------------------------- cdn
    let cdn: Vec<(usize, &EventDefinition, Option<f64>, Option<f64>)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::CdnRttIncrease { rtt_factor } => Some((i, *def, Some(*rtt_factor), None)),
            Retrieval::CdnThroughputDrop { tput_factor } => {
                Some((i, *def, None, Some(*tput_factor)))
            }
            _ => None,
        })
        .collect();
    if !cdn.is_empty() {
        // Every CDN matcher consumes the full unfiltered series, so build
        // it once and share.
        let mut series: CdnSeries = BTreeMap::new();
        for row in sliced(&cx.db.cdn, cut, T_CDN).iter() {
            series.entry((row.node.0, row.client.0)).or_default().push((
                row.utc,
                row.rtt_ms,
                row.throughput_mbps,
            ));
        }
        for (slot, def, rtt_factor, tput_factor) in cdn {
            for (&(node, client), pts) in &series {
                cdn_pair_events(
                    def,
                    node,
                    client,
                    pts,
                    rtt_factor,
                    tput_factor,
                    &mut outs[slot],
                );
            }
        }
    }

    // ------------------------------------------------------------ server
    let mut server: Vec<(usize, &EventDefinition, f64, NodeTimes)> = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::CdnServerIssue { min_load } = &def.retrieval {
            server.push((i, *def, *min_load, BTreeMap::new()));
        }
    }
    if !server.is_empty() {
        for row in sliced(&cx.db.server, cut, T_SERVER).iter() {
            for (_, _, min_load, by_node) in server.iter_mut() {
                if row.load >= *min_load {
                    by_node.entry(row.node.0).or_default().push(row.utc);
                }
            }
        }
        for (slot, def, _, by_node) in server {
            for (node, times) in by_node {
                server_node_events(def, cx, node, &times, &mut outs[slot]);
            }
        }
    }

    outs
}
