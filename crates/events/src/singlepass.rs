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
//! Each table block is two steps. **Collect** turns rows into that block's
//! *part*: point instances in row order and, for the definitions that pair,
//! merge or baseline across rows, the few columns they will need, in flat
//! vectors. **Finish** takes the parts in row order through the finish
//! helpers. A part is a pure function of the rows it was collected from
//! (and the topology) — no collect loop carries state from one row to the
//! next — so collecting a table in pieces and finishing over the pieces in
//! order equals collecting it whole.
//!
//! The probe, CDN, SNMP, server and transition finishes group by entity.
//! Each collect sorts its vectors by that entity (samples stably, keeping
//! row order, which is time order), so a memoized sealed part is sorted
//! once and a pass sorts only its tail; the finish merges the parts' runs
//! (`merge_runs`). One trailing median, a sorted window cleared between
//! pairs, judges every pair of a finish.
//!
//! A pass without a `Memo` collects each table whole. A pass with one
//! reads each table as its sealed runs plus its tail ([`Table::runs`]):
//! sealed runs are immutable, so a run's part is collected the first time
//! the run is met and kept under the run's id in the memo; only the tail
//! is collected every time. With nothing sealed (or nothing memoized yet)
//! the two are the same pass. The incremental extractor in
//! [`crate::delta`] owns the memo.

use crate::def::{AnomalySense, EventDefinition, PimScope, Retrieval, StateSel};
use crate::extract::{
    cdn_pair_events, egress_finish, pair_key, perf_pair_events, router_cost_finish,
    server_node_events, snmp_entity_events, sort_transitions, ExtractCx, TrailingBaseline,
    RECONV_DUR,
};
use crate::instance::{EventInstance, EventStore};
use grca_collector::{
    BgpRow, CdnRow, L1Row, OspfRow, PerfRow, RowSet, ServerRow, SnmpRow, StoredRow, SyslogRow,
    Table, TacacsRow, WorkflowRow,
};
use grca_net_model::{InterfaceId, Ipv4, LinkId, Location, Prefix, RouterId, RouterRole};
use grca_telemetry::records::{PerfMetric, SnmpMetric};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Symbol, TimeWindow, Timestamp};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// One table's memoized parts: `(run id, part)` in run order.
type Sealed<P> = Vec<(u64, P)>;

/// One table's parts for one pass, in row order: the sealed runs' (none
/// unless the pass is memoized) and the one collected fresh from the rows
/// that follow them.
struct Parts<'m, P> {
    sealed: &'m [(u64, P)],
    fresh: P,
}

impl<'m, P> Parts<'m, P> {
    fn sealed(&self) -> impl Iterator<Item = &'m P> + Clone + use<'m, P> {
        self.sealed.iter().map(|(_, part)| part)
    }

    fn iter(&self) -> impl Iterator<Item = &P> + Clone {
        self.sealed().chain([&self.fresh])
    }
}

/// Walk the parts' vectors, each sorted by `key`, as one stable sort of
/// their concatenation: for each key in key order, `each` gets the key's
/// first element and every part's run of it (maybe empty), in part order.
/// `cursors` holds each part's last run as offsets: one vector serves all.
pub(crate) fn merge_runs<'a, T: 'a, K: Ord>(
    cursors: &mut Vec<(usize, usize)>,
    parts: impl Iterator<Item = &'a [T]> + Clone,
    key: impl Fn(&T) -> K,
    mut each: impl FnMut(&'a T, &mut dyn Iterator<Item = &'a [T]>),
) {
    cursors.clear();
    cursors.extend(parts.clone().map(|_| (0, 0)));
    // A few dozen parts: a linear scan finds the least next key.
    let least = |cursors: &[(usize, usize)]| {
        let heads = parts.clone().zip(cursors);
        let heads = heads.filter_map(|(v, &(_, end))| v.get(end));
        heads.min_by_key(|x| key(x))
    };
    while let Some(head) = least(cursors) {
        for (v, cur) in parts.clone().zip(cursors.iter_mut()) {
            let run = v[cur.1..].iter().take_while(|x| key(x) == key(head));
            *cur = (cur.1, cur.1 + run.count());
        }
        let runs = parts.clone().zip(cursors.iter());
        each(head, &mut runs.map(|(v, &(from, to))| &v[from..to]));
    }
}

/// Sort stably by `key`: a radix sort, one counting pass per byte in
/// which the keys differ, least significant first.
pub(crate) fn sort_by_u64<T: Copy>(v: &mut [T], key: impl Fn(&T) -> u64) {
    let first = v.first().map_or(0, &key);
    let differ = v.iter().fold(0, |acc, x| acc | (key(x) ^ first));
    let mut from = Vec::new();
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let digit = |x: &T| (key(x) >> shift) as usize & 0xff;
        let mut at = [0; 256];
        v.iter().for_each(|x| at[digit(x)] += 1);
        let mut sum = 0;
        for a in &mut at {
            (*a, sum) = (sum, sum + *a);
        }
        from.clear();
        from.extend_from_slice(v);
        for x in &from {
            let d = digit(x);
            (v[at[d]], at[d]) = (*x, at[d] + 1);
        }
    }
}

/// Pair one matcher's transitions across the parts, each sorted by (key,
/// instant, up), as `pair_transitions` pairs their concatenation; `seq`
/// holds one key's transitions at a time.
pub(crate) fn pair_parts<'a, K: Ord + Copy + 'a>(
    (cursors, seq): (&mut Vec<(usize, usize)>, &mut Transitions<K>),
    parts: impl Iterator<Item = &'a [(Timestamp, K, bool)]> + Clone,
    sel: StateSel,
    mut emit: impl FnMut(K, TimeWindow),
) {
    let key = |&(_, k, _): &(Timestamp, K, bool)| k;
    merge_runs(cursors, parts, key, |_, runs| {
        seq.clear();
        runs.for_each(|run| seq.extend_from_slice(run));
        pair_key(seq, sel, &mut emit);
    });
}

/// Collect `t` for one pass. Without a memo that is one part, the whole
/// table. With one, the table is walked as its sealed runs and its tail:
/// a sealed run is collected only if the memo does not hold its id, the
/// tail always, and every entry whose id the walk did not meet is dropped
/// — retention dropped that run, or a reseal rewrote it under new ids.
fn gather<'m, R: StoredRow, P>(
    t: &Table<R>,
    memo: Option<&'m mut Sealed<P>>,
    collect: impl Fn(&RowSet<'_, R>) -> P,
) -> Parts<'m, P> {
    let Some(memo) = memo else {
        return Parts {
            sealed: &[],
            fresh: collect(&t.all()),
        };
    };
    let (sealed, tail) = t.runs();
    let mut held: HashMap<u64, P> = std::mem::take(memo).into_iter().collect();
    memo.extend(sealed.iter().map(|run| {
        let part = held
            .remove(&run.id())
            .unwrap_or_else(|| collect(&run.rows()));
        (run.id(), part)
    }));
    Parts {
        sealed: memo,
        fresh: collect(&tail),
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
    for out in run(&refs, cx, None) {
        store.add(out);
    }
    store
}

/// What a syslog-reading definition does with a row (mnemonic definitions
/// dispatch through a hash map instead — see `run`).
enum SyslogKind {
    /// Interface or line-protocol state transitions, paired at finish.
    Iface {
        sel: StateSel,
        proto: bool,
    },
    Reboot,
    Cpu {
        min: u32,
    },
    EbgpFlap,
    HoldTimer,
    Reset,
    Pim(PimScope),
}

/// Deduplicated update timestamps per prefix.
type PrefixTimes = BTreeMap<Prefix, Vec<Timestamp>>;

/// Point instances in row order, each tagged with its definition's slot.
type Points = Vec<(usize, EventInstance)>;

/// `(instant, key, up)` transitions.
type Transitions<K> = Vec<(Timestamp, K, bool)>;

/// What a run of syslog rows contributes. The transition lists are
/// parallel to the matcher list (empty for point matchers), each sorted by
/// (key, instant, up).
struct SyslogPart {
    points: Points,
    iface: Vec<Transitions<InterfaceId>>,
    session: Vec<Transitions<(RouterId, Ipv4)>>,
}

/// What a run of OSPF rows contributes: reconvergence instances, and —
/// when a cost definition reads them — every row's `(instant, link, alive)`.
/// Whether a row *changes* a link's state depends on the rows before it, so
/// that is decided at finish, over all parts in order.
#[derive(Default)]
struct OspfPart {
    points: Points,
    rows: Vec<(Timestamp, LinkId, bool)>,
}

/// One BGP update as the reflector-copy dedup sees it.
type UpdateKey = (Timestamp, Prefix, RouterId, Option<(u32, u32)>);
/// A qualifying SNMP sample: (router, ifindex, instant).
type SnmpHit = (RouterId, Option<u32>, Timestamp);
/// A probe sample: (ingress, egress, instant, value).
type PerfPoint = (RouterId, RouterId, Timestamp, f64);
/// A CDN sample: (node, client site, instant, rtt, throughput).
type CdnPoint = (u32, u32, Timestamp, f64, f64);
/// A high-load server sample: (node, instant).
type ServerHit = (u32, Timestamp);

/// What each sealed run contributes to each definition, per table, under
/// the run's id ([`grca_collector::SealedRun::id`]). Ids are process-wide
/// and name immutable rows, so an entry stays right for as long as its id
/// is met — in this database, a clone of it, or one restored from it — and
/// is dropped the first time it is not. Parts are shaped by the definition
/// list and resolved against the topology, so a memo belongs to one
/// definition list and one topology: the extractor that owns it.
///
/// Per contributing row a part holds 16–32 bytes of projected columns (no
/// row, no string, no per-entity index); per point instance, the instance.
#[derive(Default)]
pub(crate) struct Memo {
    syslog: Sealed<SyslogPart>,
    snmp: Sealed<Vec<Vec<SnmpHit>>>,
    l1: Sealed<Points>,
    ospf: Sealed<OspfPart>,
    bgp: Sealed<Vec<UpdateKey>>,
    tacacs: Sealed<Points>,
    workflow: Sealed<Points>,
    perf: Sealed<Vec<Vec<PerfPoint>>>,
    cdn: Sealed<Vec<CdnPoint>>,
    server: Sealed<Vec<Vec<ServerHit>>>,
}

impl Memo {
    /// Entries held, and the heap bytes of their vectors (instances' info
    /// text, shared by `Arc`, not counted).
    pub(crate) fn size(&self) -> (usize, usize) {
        fn flat<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        fn nested<T>(v: &Vec<Vec<T>>) -> usize {
            flat(v) + v.iter().map(flat).sum::<usize>()
        }
        fn table<P>(t: &Sealed<P>, part: impl Fn(&P) -> usize) -> (usize, usize) {
            (
                t.len(),
                flat(t) + t.iter().map(|(_, p)| part(p)).sum::<usize>(),
            )
        }
        let tables = [
            table(&self.syslog, |p| {
                flat(&p.points) + nested(&p.iface) + nested(&p.session)
            }),
            table(&self.snmp, nested),
            table(&self.l1, flat),
            table(&self.ospf, |p| flat(&p.points) + flat(&p.rows)),
            table(&self.bgp, flat),
            table(&self.tacacs, flat),
            table(&self.workflow, flat),
            table(&self.perf, nested),
            table(&self.cdn, flat),
            table(&self.server, nested),
        ];
        tables
            .iter()
            .fold((0, 0), |(n, b), (tn, tb)| (n + tn, b + tb))
    }
}

/// Append the point instances to their slots: the sealed parts' by clone,
/// the fresh part's by move.
fn emit_points<'p>(
    sealed: impl Iterator<Item = &'p Points>,
    fresh: Points,
    outs: &mut [Vec<EventInstance>],
) {
    for (slot, inst) in sealed.flatten() {
        outs[*slot].push(inst.clone());
    }
    for (slot, inst) in fresh {
        outs[slot].push(inst);
    }
}

/// `"{pct}%"`, shared: CPU percentages are a small vocabulary, and the
/// spikes in a table's tail are collected again every incremental pass,
/// so each costs a refcount rather than a formatted string.
fn pct_info(pct: u32) -> Arc<str> {
    static TEXT: OnceLock<Vec<Arc<str>>> = OnceLock::new();
    let text = TEXT.get_or_init(|| (0..=100).map(|p| format!("{p}%").into()).collect());
    match text.get(pct as usize) {
        Some(t) => Arc::clone(t),
        None => format!("{pct}%").into(),
    }
}

/// Interpret every definition over each table in one pass, sealed runs
/// through `memo` when given. Output is indexed like `defs`; each entry
/// equals `extract(defs[i], cx)` exactly. See the module docs for the
/// collect / finish shape every table block has.
pub(crate) fn run(
    defs: &[&EventDefinition],
    cx: &ExtractCx,
    mut memo: Option<&mut Memo>,
) -> Vec<Vec<EventInstance>> {
    let mut outs: Vec<Vec<EventInstance>> = vec![Vec::new(); defs.len()];
    let mut cursors = Vec::new();
    let point = |slot: usize, at: Timestamp, loc: Location| {
        EventInstance::new(&defs[slot].name, TimeWindow::at(at), loc)
    };

    // ------------------------------------------------------------ syslog
    // (slot, kind) for every definition reading syslog. Mnemonic
    // definitions are keyed by their message type instead: the screening
    // configuration registers one definition per syslog mnemonic (the
    // paper's §IV-B had 2533), and a linear matcher sweep per row would
    // put extraction right back at O(definitions × rows). A hash lookup on
    // the row's mnemonic finds the interested definitions in O(1)
    // regardless of how many are registered.
    let mut syslog: Vec<(usize, SyslogKind)> = Vec::new();
    let mut mnemonics: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        let kind = match &def.retrieval {
            Retrieval::SyslogMnemonic { mnemonic } => {
                mnemonics.entry(mnemonic.as_str()).or_default().push(i);
                continue;
            }
            Retrieval::InterfaceState(sel) => SyslogKind::Iface {
                sel: *sel,
                proto: false,
            },
            Retrieval::LineProtoState(sel) => SyslogKind::Iface {
                sel: *sel,
                proto: true,
            },
            Retrieval::RouterReboot => SyslogKind::Reboot,
            Retrieval::CpuSpike { min_pct } => SyslogKind::Cpu { min: *min_pct },
            Retrieval::EbgpFlap => SyslogKind::EbgpFlap,
            Retrieval::EbgpHoldTimerExpired => SyslogKind::HoldTimer,
            Retrieval::CustomerResetSession => SyslogKind::Reset,
            Retrieval::PimAdjacencyChange(scope) => SyslogKind::Pim(*scope),
            _ => continue,
        };
        syslog.push((i, kind));
    }
    if !syslog.is_empty() || !mnemonics.is_empty() {
        let collect = |rows: &RowSet<SyslogRow>| {
            let mut part = SyslogPart {
                points: Vec::new(),
                iface: vec![Vec::new(); syslog.len()],
                session: vec![Vec::new(); syslog.len()],
            };
            for row in rows.iter() {
                // Mnemonic matchers see every line, parsed or not; one hash
                // lookup replaces a sweep over every registered message type.
                if !mnemonics.is_empty() {
                    if let Some(hits) = mnemonics.get(row.mnemonic()) {
                        for &slot in hits {
                            part.points.push((
                                slot,
                                point(slot, row.utc, Location::Router(row.router))
                                    .with_info(row.raw.as_str()),
                            ));
                        }
                    }
                }
                // Interface resolution is shared across matchers of one row.
                let mut resolved: Option<Option<InterfaceId>> = None;
                for (k, &(slot, ref kind)) in syslog.iter().enumerate() {
                    match kind {
                        SyslogKind::Iface { proto, .. } => {
                            let iface = match (&row.event, *proto) {
                                (Some(SyslogEvent::LinkUpDown { iface, up }), false) => {
                                    (iface, *up)
                                }
                                (Some(SyslogEvent::LineProtoUpDown { iface, up }), true) => {
                                    (iface, *up)
                                }
                                _ => continue,
                            };
                            let (name, up) = iface;
                            let id = *resolved
                                .get_or_insert_with(|| cx.topo.iface_by_name(row.router, name));
                            if let Some(id) = id {
                                part.iface[k].push((row.utc, id, up));
                            }
                        }
                        SyslogKind::Reboot => {
                            if matches!(row.event, Some(SyslogEvent::Restart)) {
                                let loc = Location::Router(row.router);
                                part.points.push((slot, point(slot, row.utc, loc)));
                            }
                        }
                        SyslogKind::Cpu { min } => {
                            if let Some(SyslogEvent::CpuHog { pct }) = &row.event {
                                if pct >= min {
                                    let loc = Location::Router(row.router);
                                    part.points.push((
                                        slot,
                                        point(slot, row.utc, loc).with_info(pct_info(*pct)),
                                    ));
                                }
                            }
                        }
                        SyslogKind::EbgpFlap => {
                            if let Some(SyslogEvent::BgpAdjChange { neighbor, up }) = &row.event {
                                part.session[k].push((row.utc, (row.router, *neighbor), *up));
                            }
                        }
                        SyslogKind::HoldTimer | SyslogKind::Reset => {
                            let neighbor = match (&row.event, kind) {
                                (
                                    Some(SyslogEvent::BgpHoldTimerExpired { neighbor }),
                                    SyslogKind::HoldTimer,
                                )
                                | (
                                    Some(SyslogEvent::BgpPeerReset { neighbor }),
                                    SyslogKind::Reset,
                                ) => *neighbor,
                                _ => continue,
                            };
                            let loc = Location::RouterNeighborIp {
                                router: row.router,
                                neighbor,
                            };
                            part.points.push((slot, point(slot, row.utc, loc)));
                        }
                        SyslogKind::Pim(scope) => {
                            if let Some(SyslogEvent::PimNbrChange { neighbor, up, .. }) = &row.event
                            {
                                let is_uplink = cx
                                    .topo
                                    .router_by_loopback(*neighbor)
                                    .is_some_and(|r| cx.topo.router(r).role == RouterRole::Core);
                                let keep = match scope {
                                    PimScope::Uplink => is_uplink,
                                    PimScope::PePeOrCe => !is_uplink,
                                };
                                if keep {
                                    part.session[k].push((row.utc, (row.router, *neighbor), *up));
                                }
                            }
                        }
                    }
                }
            }
            part.iface.iter_mut().for_each(|tr| sort_transitions(tr));
            part.session.iter_mut().for_each(|tr| sort_transitions(tr));
            part
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.syslog);
        let parts = gather(&cx.db.syslog, memo, collect);
        let (mut iface_seq, mut session_seq) = (Vec::new(), Vec::new());
        for (k, (slot, kind)) in syslog.iter().enumerate() {
            let (def, out) = (defs[*slot], &mut outs[*slot]);
            match kind {
                SyslogKind::Iface { sel, .. } => {
                    let parts = parts.iter().map(|p| &p.iface[k][..]);
                    pair_parts((&mut cursors, &mut iface_seq), parts, *sel, |i, w| {
                        out.push(EventInstance::new(&def.name, w, Location::Interface(i)));
                    });
                }
                SyslogKind::EbgpFlap | SyslogKind::Pim(_) => {
                    let parts = parts.iter().map(|p| &p.session[k][..]);
                    let seq = (&mut cursors, &mut session_seq);
                    pair_parts(seq, parts, StateSel::Flap, |(router, neighbor), w| {
                        let loc = Location::RouterNeighborIp { router, neighbor };
                        out.push(EventInstance::new(&def.name, w, loc));
                    });
                }
                _ => {} // point events, emitted below
            }
        }
        let sealed = parts.sealed().map(|p| &p.points);
        emit_points(sealed, parts.fresh.points, &mut outs);
    }

    // -------------------------------------------------------------- snmp
    let snmp: Vec<(usize, (SnmpMetric, f64))> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::SnmpThreshold { metric, min } => Some((i, (*metric, *min))),
            _ => None,
        })
        .collect();
    if !snmp.is_empty() {
        // Entities in (router, ifindex) order, no ifindex first.
        let entity =
            |&(r, i, _): &SnmpHit| u64::from(r.0) << 33 | i.map_or(0, |i| u64::from(i) + 1);
        // Per matcher: its qualifying samples, stably by entity.
        let collect = |rows: &RowSet<SnmpRow>| {
            let mut hits: Vec<Vec<SnmpHit>> = vec![Vec::new(); snmp.len()];
            for row in rows.iter() {
                for (k, (_, (metric, min))) in snmp.iter().enumerate() {
                    if row.metric == *metric && row.value >= *min {
                        hits[k].push((row.router, row.iface.map(|i| i.0), row.utc));
                    }
                }
            }
            hits.iter_mut().for_each(|h| sort_by_u64(h, entity));
            hits
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.snmp);
        let parts = gather(&cx.db.snmp, memo, collect);
        for (k, (slot, _)) in snmp.iter().enumerate() {
            let parts = parts.iter().map(|p| &p[k][..]);
            merge_runs(&mut cursors, parts, entity, |&(router, iface, _), runs| {
                let times = runs.flatten().map(|&(.., utc)| utc);
                snmp_entity_events(defs[*slot], router, iface, times, &mut outs[*slot]);
            });
        }
    }

    // ---------------------------------------------------------------- l1
    let l1: Vec<(usize, grca_telemetry::records::L1EventKind)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::L1Restoration(kind) => Some((i, *kind)),
            _ => None,
        })
        .collect();
    if !l1.is_empty() {
        let collect = |rows: &RowSet<L1Row>| {
            let mut points: Points = Vec::new();
            for row in rows.iter() {
                for &(slot, kind) in &l1 {
                    if row.kind == kind {
                        let circuit = &cx.topo.phys_link(row.circuit).circuit;
                        points.push((
                            slot,
                            point(slot, row.utc, Location::PhysicalLink(row.circuit))
                                .with_info(Symbol::from(circuit).as_arc()),
                        ));
                    }
                }
            }
            points
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.l1);
        let parts = gather(&cx.db.l1, memo, collect);
        emit_points(parts.sealed(), parts.fresh, &mut outs);
    }

    // -------------------------------------------------------------- ospf
    enum OspfKind {
        Reconv,
        LinkCost { cost_in: bool },
        RouterCost,
    }
    let ospf: Vec<(usize, OspfKind)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| {
            let kind = match &def.retrieval {
                Retrieval::OspfReconvergence => OspfKind::Reconv,
                Retrieval::LinkCostOutDown => OspfKind::LinkCost { cost_in: false },
                Retrieval::LinkCostInUp => OspfKind::LinkCost { cost_in: true },
                Retrieval::RouterCostInOut => OspfKind::RouterCost,
                _ => return None,
            };
            Some((i, kind))
        })
        .collect();
    if !ospf.is_empty() {
        let reconv: Vec<usize> = ospf
            .iter()
            .filter(|(_, kind)| matches!(kind, OspfKind::Reconv))
            .map(|&(slot, _)| slot)
            .collect();
        let reads_cost = reconv.len() < ospf.len();
        let collect = |rows: &RowSet<OspfRow>| {
            let mut part = OspfPart::default();
            for row in rows.iter() {
                for &slot in &reconv {
                    let inst = EventInstance::new(
                        &defs[slot].name,
                        TimeWindow::new(row.utc, row.utc + RECONV_DUR),
                        Location::LogicalLink(row.link),
                    )
                    .with_info(match row.weight {
                        Some(w) => format!("weight -> {w}"),
                        None => "withdrawn".to_string(),
                    });
                    part.points.push((slot, inst));
                }
                if reads_cost {
                    part.rows.push((row.utc, row.link, row.weight.is_some()));
                }
            }
            part
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.ospf);
        let parts = gather(&cx.db.ospf, memo, collect);
        if reads_cost {
            // One shared alive-state trajectory: every cost matcher would
            // build the identical map, so replay it once and keep the rows
            // that flip a link — `(instant, link, alive now)`.
            let mut last: BTreeMap<LinkId, bool> = BTreeMap::new();
            let mut flips: Vec<(Timestamp, LinkId, bool)> = Vec::new();
            for &(utc, link, alive_now) in parts.iter().flat_map(|p| &p.rows) {
                if last.insert(link, alive_now).unwrap_or(true) != alive_now {
                    flips.push((utc, link, alive_now));
                }
            }
            for (slot, kind) in &ospf {
                match kind {
                    OspfKind::Reconv => {}
                    OspfKind::LinkCost { cost_in } => {
                        // Cost-in is a link coming alive, cost-out one going.
                        outs[*slot].extend(
                            flips
                                .iter()
                                .filter(|(_, _, alive_now)| alive_now == cost_in)
                                .map(|&(utc, link, _)| {
                                    point(*slot, utc, Location::LogicalLink(link))
                                }),
                        );
                    }
                    OspfKind::RouterCost => {
                        let mut per_router: BTreeMap<RouterId, Vec<(Timestamp, LinkId, bool)>> =
                            BTreeMap::new();
                        for &(utc, link, alive_now) in &flips {
                            let (a, b) = cx.topo.link_routers(link);
                            for r in [a, b] {
                                per_router
                                    .entry(r)
                                    .or_default()
                                    .push((utc, link, !alive_now));
                            }
                        }
                        outs[*slot] = router_cost_finish(defs[*slot], cx, per_router);
                    }
                }
            }
        }
        let sealed = parts.sealed().map(|p| &p.points);
        emit_points(sealed, parts.fresh.points, &mut outs);
    }

    // --------------------------------------------------------------- bgp
    let bgp: Vec<(usize, &[RouterId])> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::BgpEgressChange { ingresses } => Some((i, ingresses.as_slice())),
            _ => None,
        })
        .collect();
    if let (false, Some(routing)) = (bgp.is_empty(), cx.routing) {
        // Every matcher reads the same projection; which rows are
        // reflector copies of an update already seen depends on the rows
        // before them, so the dedup runs at finish.
        let collect = |rows: &RowSet<BgpRow>| -> Vec<UpdateKey> {
            rows.iter()
                .map(|row| (row.utc, row.prefix, row.egress, row.attrs))
                .collect()
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.bgp);
        let parts = gather(&cx.db.bgp, memo, collect);
        let mut seen: BTreeSet<UpdateKey> = BTreeSet::new();
        let mut update_times: PrefixTimes = BTreeMap::new();
        for &key in parts.iter().flatten() {
            if seen.insert(key) {
                update_times.entry(key.1).or_default().push(key.0);
            }
        }
        for (slot, ingresses) in bgp {
            outs[slot] = egress_finish(defs[slot], cx, routing, ingresses, update_times.clone());
        }
    }

    // ------------------------------------------------------------ tacacs
    enum TacacsKind {
        Command { out_dir: bool },
        PimConfig,
    }
    let tacacs: Vec<(usize, TacacsKind)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| {
            let kind = match &def.retrieval {
                Retrieval::CommandCostOut => TacacsKind::Command { out_dir: true },
                Retrieval::CommandCostIn => TacacsKind::Command { out_dir: false },
                Retrieval::PimConfigCommand => TacacsKind::PimConfig,
                _ => return None,
            };
            Some((i, kind))
        })
        .collect();
    if !tacacs.is_empty() {
        let collect = |rows: &RowSet<TacacsRow>| {
            let mut points: Points = Vec::new();
            for row in rows.iter() {
                let c = &row.command;
                for &(slot, ref kind) in &tacacs {
                    let loc = match kind {
                        TacacsKind::PimConfig => {
                            if !c.contains("mvpn customer") {
                                continue;
                            }
                            Location::Router(row.router)
                        }
                        TacacsKind::Command { out_dir } => {
                            let is_out = c.contains("cost 65535")
                                || (c.contains("max-metric") && !c.contains("no max-metric"));
                            let is_in = (c.contains("ip ospf cost ") && !c.contains("65535"))
                                || c.contains("no max-metric");
                            if (*out_dir && !is_out) || (!*out_dir && !is_in) {
                                continue;
                            }
                            c.split_whitespace()
                                .skip_while(|w| *w != "interface")
                                .nth(1)
                                .and_then(|name| cx.topo.iface_by_name(row.router, name))
                                .map(Location::Interface)
                                .unwrap_or(Location::Router(row.router))
                        }
                    };
                    points.push((slot, point(slot, row.utc, loc).with_info(c.as_str())));
                }
            }
            points
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.tacacs);
        let parts = gather(&cx.db.tacacs, memo, collect);
        emit_points(parts.sealed(), parts.fresh, &mut outs);
    }

    // ---------------------------------------------------------- workflow
    // Keyed by activity for the same reason as the syslog mnemonics: the
    // screening configuration registers one definition per activity type
    // (the paper had 831), so per-row dispatch must not scale with the
    // registry size.
    let mut wf: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        if let Retrieval::WorkflowActivity { activity } = &def.retrieval {
            wf.entry(activity.as_str()).or_default().push(i);
        }
    }
    if !wf.is_empty() {
        let collect = |rows: &RowSet<WorkflowRow>| {
            let mut points: Points = Vec::new();
            for row in rows.iter() {
                let Some(hits) = wf.get(row.activity.as_str()) else {
                    continue;
                };
                for &slot in hits {
                    let loc = row.router.map(Location::Router).or_else(|| {
                        let node = cx.topo.cdn_node_by_name(&row.entity)?;
                        Some(Location::Router(cx.topo.cdn_node(node).attach_router))
                    });
                    if let Some(loc) = loc {
                        points.push((
                            slot,
                            point(slot, row.utc, loc)
                                .with_info(Symbol::from(&row.activity).as_arc()),
                        ));
                    }
                }
            }
            points
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.workflow);
        let parts = gather(&cx.db.workflow, memo, collect);
        emit_points(parts.sealed(), parts.fresh, &mut outs);
    }

    // -------------------------------------------------------------- perf
    let perf: Vec<(usize, (PerfMetric, AnomalySense))> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::PerfAnomaly { metric, sense } => Some((i, (*metric, *sense))),
            _ => None,
        })
        .collect();
    if !perf.is_empty() {
        let pair =
            |&(ingress, egress, ..): &PerfPoint| u64::from(ingress.0) << 32 | u64::from(egress.0);
        // Per matcher: its metric's samples, stably by pair.
        let collect = |rows: &RowSet<PerfRow>| {
            let mut series: Vec<Vec<PerfPoint>> = vec![Vec::new(); perf.len()];
            for row in rows.iter() {
                for (k, (_, (metric, _))) in perf.iter().enumerate() {
                    if row.metric == *metric {
                        series[k].push((row.ingress, row.egress, row.utc, row.value));
                    }
                }
            }
            series.iter_mut().for_each(|s| sort_by_u64(s, pair));
            series
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.perf);
        let parts = gather(&cx.db.perf, memo, collect);
        let mut baseline = TrailingBaseline::default();
        for (k, &(slot, kind)) in perf.iter().enumerate() {
            let (def, out) = (defs[slot], &mut outs[slot]);
            let parts = parts.iter().map(|p| &p[k][..]);
            merge_runs(&mut cursors, parts, pair, |&(ingress, egress, ..), runs| {
                let series = runs.flatten().map(|&(.., utc, value)| (utc, value));
                perf_pair_events(def, (ingress, egress), series, kind, &mut baseline, out);
            });
        }
    }

    // --------------------------------------------------------------- cdn
    let cdn: Vec<(usize, Option<f64>, Option<f64>)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::CdnRttIncrease { rtt_factor } => Some((i, Some(*rtt_factor), None)),
            Retrieval::CdnThroughputDrop { tput_factor } => Some((i, None, Some(*tput_factor))),
            _ => None,
        })
        .collect();
    if !cdn.is_empty() {
        // Every CDN matcher consumes the full unfiltered series, so
        // project it once, stably by pair, and share.
        let pair = |&(node, client, ..): &CdnPoint| u64::from(node) << 32 | u64::from(client);
        let collect = |rows: &RowSet<CdnRow>| -> Vec<CdnPoint> {
            let mut pts: Vec<CdnPoint> = rows
                .iter()
                .map(|row| {
                    (
                        row.node.0,
                        row.client.0,
                        row.utc,
                        row.rtt_ms,
                        row.throughput_mbps,
                    )
                })
                .collect();
            sort_by_u64(&mut pts, pair);
            pts
        };
        let memo = memo.as_deref_mut().map(|m| &mut m.cdn);
        let parts = gather(&cx.db.cdn, memo, collect);
        let mut baseline = TrailingBaseline::default();
        for (slot, rtt_factor, tput_factor) in cdn {
            let factors = (rtt_factor, tput_factor);
            let (def, out) = (defs[slot], &mut outs[slot]);
            let parts = parts.iter().map(|p| &p[..]);
            merge_runs(&mut cursors, parts, pair, |&(node, client, ..), runs| {
                let series = runs.flatten().map(|&(.., utc, rtt, tput)| (utc, rtt, tput));
                cdn_pair_events(def, (node, client), series, factors, &mut baseline, out);
            });
        }
    }

    // ------------------------------------------------------------ server
    let server: Vec<(usize, f64)> = defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match &def.retrieval {
            Retrieval::CdnServerIssue { min_load } => Some((i, *min_load)),
            _ => None,
        })
        .collect();
    if !server.is_empty() {
        let node = |&(node, _): &ServerHit| u64::from(node);
        // Per matcher: its high-load samples, stably by node.
        let collect = |rows: &RowSet<ServerRow>| {
            let mut hits: Vec<Vec<ServerHit>> = vec![Vec::new(); server.len()];
            for row in rows.iter() {
                for (k, (_, min_load)) in server.iter().enumerate() {
                    if row.load >= *min_load {
                        hits[k].push((row.node.0, row.utc));
                    }
                }
            }
            hits.iter_mut().for_each(|h| sort_by_u64(h, node));
            hits
        };
        let memo = memo.map(|m| &mut m.server);
        let parts = gather(&cx.db.server, memo, collect);
        for (k, (slot, _)) in server.iter().enumerate() {
            let parts = parts.iter().map(|p| &p[k][..]);
            merge_runs(&mut cursors, parts, node, |&(node, _), runs| {
                let times = runs.flatten().map(|&(_, utc)| utc);
                server_node_events(defs[*slot], cx, node, times, &mut outs[*slot]);
            });
        }
    }

    outs
}
