//! The Data Collector: ingest raw records from every feed, normalize them
//! (time zones → UTC, per-source naming → canonical entity ids), and store
//! them in typed, time-sorted tables (§II-A).
//!
//! Normalization failures do not abort ingestion — real feeds contain
//! records referencing decommissioned gear or malformed lines; these are
//! counted in [`IngestStats`] and skipped, which is the operationally
//! honest behaviour.
//!
//! Normalization of one record is a pure function of `(topology, record)`:
//! every name→id lookup asks the [`Topology`]'s own indexes, which answer
//! in O(1) without allocating, so nothing here keeps a map of its own.

use crate::rows::*;
use crate::storage::{SpillFile, StorageConfig, StorageStats, Table};
use grca_net_model::{CdnNodeId, RouterId, Topology};
use grca_telemetry::records::RawRecord;
use grca_telemetry::syslog::{parse_syslog_message, split_line};
use grca_types::{TimeZone, Timestamp};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Ingestion statistics. Every input record is accounted for exactly once:
/// `accepted + quarantined + deduplicated == records offered` — nothing is
/// silently dropped anywhere in the pipeline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Per-feed counts, here and below in [`FEEDS`] order.
    pub accepted: [usize; 10],
    /// Records rejected by normalization (unknown entity, malformed line,
    /// implausible value). The record itself lands in
    /// [`Database::quarantine`] with a structured reason.
    pub quarantined: [usize; 10],
    /// Exact re-deliveries of an already-ingested record (transport
    /// retries, chaos duplication), skipped by the content-hash dedup.
    pub deduplicated: [usize; 10],
    /// Records whose normalized instant falls before the database's
    /// retention floor ([`Database::retain_before`]): already-aged-out
    /// history re-delivered by a slow transport. Counted, never stored.
    pub expired: [usize; 10],
    /// Syslog rows whose body did not match the known message catalog
    /// (kept as raw rows — they still feed exploration and screening).
    pub syslog_unparsed: usize,
}

impl IngestStats {
    pub fn total_accepted(&self) -> usize {
        self.accepted.iter().sum()
    }
    pub fn total_quarantined(&self) -> usize {
        self.quarantined.iter().sum()
    }
    pub fn total_deduplicated(&self) -> usize {
        self.deduplicated.iter().sum()
    }
    pub fn total_expired(&self) -> usize {
        self.expired.iter().sum()
    }
    /// [`IngestStats::total_quarantined`] under its name from when rejected
    /// records were dropped rather than quarantined; the benchmark harness
    /// still calls it.
    pub fn total_dropped(&self) -> usize {
        self.total_quarantined()
    }
    /// Records offered to ingestion, reconstructed from the accounting
    /// invariant.
    pub fn total_input(&self) -> usize {
        self.total_accepted()
            + self.total_quarantined()
            + self.total_deduplicated()
            + self.total_expired()
    }

    /// One line per feed that was offered anything, in feed-name order,
    /// for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for i in feeds_by_name() {
            let (n, q) = (self.accepted[i], self.quarantined[i]);
            let (d, e) = (self.deduplicated[i], self.expired[i]);
            if n + q + d + e > 0 {
                let feed = FEEDS[i];
                out.push_str(&format!(
                    "{feed:>10}: {n} accepted, {q} quarantined, {d} deduplicated, {e} expired\n"
                ));
            }
        }
        out
    }
}

/// Why a record was quarantined instead of ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A name/address that does not resolve against the topology
    /// (decommissioned gear, divergent naming, corrupted identifier).
    UnknownEntity { kind: &'static str, name: String },
    /// The raw line/record could not be decoded at all.
    Malformed { error: String },
    /// Decoded, but the value cannot be real (NaN/infinite measurements).
    Implausible { what: &'static str, detail: String },
}

/// One quarantined input record: kept (never silently dropped) so feed
/// problems stay diagnosable from inside the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    pub feed: &'static str,
    pub reason: QuarantineReason,
}

/// One normalized row, tagged with its destination table.
#[derive(Debug, Clone)]
enum NormRow {
    Syslog(SyslogRow),
    Snmp(SnmpRow),
    L1(L1Row),
    Ospf(OspfRow),
    Bgp(BgpRow),
    Tacacs(TacacsRow),
    Workflow(WorkflowRow),
    Perf(PerfRow),
    Cdn(CdnRow),
    Server(ServerRow),
}

impl NormRow {
    /// The row's normalized UTC instant (the table sort key).
    fn utc(&self) -> Timestamp {
        match self {
            NormRow::Syslog(r) => r.utc,
            NormRow::Snmp(r) => r.utc,
            NormRow::L1(r) => r.utc,
            NormRow::Ospf(r) => r.utc,
            NormRow::Bgp(r) => r.utc,
            NormRow::Tacacs(r) => r.utc,
            NormRow::Workflow(r) => r.utc,
            NormRow::Perf(r) => r.utc,
            NormRow::Cdn(r) => r.utc,
            NormRow::Server(r) => r.utc,
        }
    }
}

/// A record's index into [`FEEDS`] (and so into every per-feed array).
fn feed_index(rec: &RawRecord) -> usize {
    match rec {
        RawRecord::Syslog(_) => 0,
        RawRecord::Snmp(_) => 1,
        RawRecord::L1Log(_) => 2,
        RawRecord::OspfMon(_) => 3,
        RawRecord::BgpMon(_) => 4,
        RawRecord::Tacacs(_) => 5,
        RawRecord::Workflow(_) => 6,
        RawRecord::Perf(_) => 7,
        RawRecord::CdnMon(_) => 8,
        RawRecord::ServerLog(_) => 9,
    }
}

/// The last SNMP system and CDN node name one [`Database::ingest_more`]
/// call resolved: feeds deliver a device's samples in runs, so a string
/// compare answers most lookups. A name that did not resolve is not kept.
#[derive(Default)]
struct LastNames<'a> {
    snmp: Option<(&'a str, RouterId)>,
    cdn: Option<(&'a str, CdnNodeId)>,
}

/// `lookup(name)`, unless `last` already holds `name`'s answer.
fn resolve_repeat<'a, I: Copy>(
    last: &mut Option<(&'a str, I)>,
    name: &'a str,
    lookup: impl FnOnce(&str) -> Option<I>,
) -> Option<I> {
    match *last {
        Some((prev, id)) if prev == name => Some(id),
        _ => {
            let id = lookup(name)?;
            *last = Some((name, id));
            Some(id)
        }
    }
}

/// Normalize one raw record: resolve entity names against `topo`, convert
/// the source clock to UTC, and build the destination row, tiebroken by
/// `fp`. `Err` carries the structured reason the record must be
/// quarantined.
fn normalize<'a>(
    topo: &Topology,
    rec: &'a RawRecord,
    fp: u64,
    names: &mut LastNames<'a>,
    stats: &mut IngestStats,
) -> Result<NormRow, QuarantineReason> {
    fn unknown(kind: &'static str, name: &str) -> QuarantineReason {
        QuarantineReason::UnknownEntity {
            kind,
            name: name.to_string(),
        }
    }
    fn finite(what: &'static str, v: f64) -> Result<f64, QuarantineReason> {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(QuarantineReason::Implausible {
                what,
                detail: format!("{v}"),
            })
        }
    }
    let row = match rec {
        RawRecord::Syslog(line) => {
            let router = topo
                .router_by_name(&line.host)
                .ok_or_else(|| unknown("router", &line.host))?;
            let (local, body) =
                split_line(&line.line).map_err(|e| QuarantineReason::Malformed {
                    error: e.to_string(),
                })?;
            let utc = topo.router_tz(router).to_utc(local);
            let event = match parse_syslog_message(body) {
                Ok(ev) => Some(ev),
                Err(_) => {
                    stats.syslog_unparsed += 1;
                    None
                }
            };
            NormRow::Syslog(SyslogRow {
                fp,
                utc,
                router,
                event,
                raw: body.to_string(),
            })
        }
        RawRecord::Snmp(s) => {
            let router =
                resolve_repeat(&mut names.snmp, &s.system, |n| topo.router_by_snmp_name(n))
                    .ok_or_else(|| unknown("snmp system", &s.system))?;
            let utc = TimeZone::US_EASTERN.to_utc(s.local_time);
            let iface = match s.if_index {
                Some(ix) => Some(
                    topo.iface_by_ifindex(router, ix)
                        .ok_or_else(|| unknown("ifIndex", &format!("{}#{ix}", s.system)))?,
                ),
                None => None,
            };
            NormRow::Snmp(SnmpRow {
                fp,
                utc,
                router,
                metric: s.metric,
                iface,
                value: finite("snmp sample", s.value)?,
            })
        }
        RawRecord::L1Log(l) => {
            let device = topo
                .l1dev_by_name(&l.device)
                .ok_or_else(|| unknown("l1 device", &l.device))?;
            let circuit = topo
                .circuit_by_name(&l.circuit)
                .ok_or_else(|| unknown("circuit", &l.circuit))?;
            let tz = topo.pop(topo.l1_device(device).pop).tz;
            NormRow::L1(L1Row {
                fp,
                utc: tz.to_utc(l.local_time),
                device,
                kind: l.kind,
                circuit,
            })
        }
        RawRecord::OspfMon(o) => {
            let link = topo
                .link_by_slash30(o.link_addr)
                .ok_or_else(|| unknown("link /30", &o.link_addr.to_string()))?;
            NormRow::Ospf(OspfRow {
                fp,
                utc: o.utc,
                link,
                weight: o.weight,
            })
        }
        RawRecord::BgpMon(b) => {
            let egress = topo
                .router_by_name(&b.egress_router)
                .ok_or_else(|| unknown("router", &b.egress_router))?;
            NormRow::Bgp(BgpRow {
                fp,
                utc: b.utc,
                reflector: b.reflector.to_string(),
                prefix: b.prefix,
                egress,
                attrs: b.attrs,
            })
        }
        RawRecord::Tacacs(t) => {
            let router = topo
                .router_by_name(&t.router)
                .ok_or_else(|| unknown("router", &t.router))?;
            NormRow::Tacacs(TacacsRow {
                fp,
                utc: TimeZone::US_EASTERN.to_utc(t.local_time),
                router,
                user: t.user.to_string(),
                command: t.command.clone(),
            })
        }
        RawRecord::Workflow(w) => {
            if w.activity.is_empty() {
                return Err(QuarantineReason::Malformed {
                    error: "empty workflow activity".to_string(),
                });
            }
            NormRow::Workflow(WorkflowRow {
                fp,
                utc: TimeZone::US_EASTERN.to_utc(w.local_time),
                entity: w.router.to_string(),
                router: topo.router_by_name(&w.router),
                activity: w.activity.to_string(),
            })
        }
        RawRecord::Perf(p) => {
            let ingress = topo
                .router_by_name(&p.ingress_router)
                .ok_or_else(|| unknown("router", &p.ingress_router))?;
            let egress = topo
                .router_by_name(&p.egress_router)
                .ok_or_else(|| unknown("router", &p.egress_router))?;
            NormRow::Perf(PerfRow {
                fp,
                utc: p.utc,
                ingress,
                egress,
                metric: p.metric,
                value: finite("perf probe", p.value)?,
            })
        }
        RawRecord::CdnMon(c) => {
            let node = resolve_repeat(&mut names.cdn, &c.node, |n| topo.cdn_node_by_name(n))
                .ok_or_else(|| unknown("cdn node", &c.node))?;
            let client = topo
                .ext_net_for(c.client_addr)
                .ok_or_else(|| unknown("client site", &c.client_addr.to_string()))?;
            NormRow::Cdn(CdnRow {
                fp,
                utc: c.utc,
                node,
                client,
                rtt_ms: finite("cdn rtt", c.rtt_ms)?,
                throughput_mbps: finite("cdn throughput", c.throughput_mbps)?,
            })
        }
        RawRecord::ServerLog(s) => {
            let node = resolve_repeat(&mut names.cdn, &s.node, |n| topo.cdn_node_by_name(n))
                .ok_or_else(|| unknown("cdn node", &s.node))?;
            let tz = topo.pop(topo.cdn_node(node).pop).tz;
            NormRow::Server(ServerRow {
                fp,
                utc: tz.to_utc(s.local_time),
                node,
                load: finite("server load", s.load)?,
            })
        }
    };
    // Clock plausibility: a record whose normalized instant falls outside
    // [1990, 2100) is a corrupted timestamp, not a measurement. Without
    // this guard one garbled year digit would catapult the feed's
    // watermark centuries ahead and wedge online gating forever.
    let utc = row.utc();
    const PLAUSIBLE_UNIX: std::ops::Range<i64> = 631_152_000..4_102_444_800;
    if !PLAUSIBLE_UNIX.contains(&utc.unix()) {
        return Err(QuarantineReason::Implausible {
            what: "record clock",
            detail: format!("normalized instant {utc} outside 1990..2100"),
        });
    }
    Ok(row)
}

/// The fingerprint's hasher: two 64-bit lanes, keyed apart, fed the same
/// words in one pass. A lane step is a folded 64×64→128 multiply (the two
/// halves of the product xored), which moves every input bit across the
/// word; the engine's rotate-xor-multiply is cheaper still but weak on
/// short structured keys, and a collision here is a silently dropped
/// record. The keys are fixed, so a fingerprint means the same thing in
/// every process — the seen log persists them.
struct TwoLane {
    a: u64,
    b: u64,
}

fn fold_mul(x: u64, key: u64) -> u64 {
    let wide = x as u128 * key as u128;
    wide as u64 ^ (wide >> 64) as u64
}

impl TwoLane {
    const KEY_A: u64 = 0xa076_1d64_78bd_642f;
    const KEY_B: u64 = 0xe703_7ed1_a0b4_28db;

    fn new() -> Self {
        TwoLane {
            a: 0x9e37_79b9_7f4a_7c15,
            b: 0x2545_f491_4f6c_dd1d,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = fold_mul(self.a ^ w, Self::KEY_A);
        self.b = fold_mul(self.b ^ w, Self::KEY_B);
    }

    /// One closing round per lane under the other lane's key. Each half is
    /// one lane's alone, so a lane gone degenerate shows as collisions in
    /// its half (the quality test counts them per half).
    fn finish128(&self) -> u128 {
        let hi = fold_mul(self.a ^ Self::KEY_B, Self::KEY_A);
        let lo = fold_mul(self.b ^ Self::KEY_A, Self::KEY_B);
        (hi as u128) << 64 | lo as u128
    }
}

impl Hasher for TwoLane {
    fn finish(&self) -> u64 {
        let fp = self.finish128();
        (fp >> 64) as u64 ^ fp as u64
    }
    /// Length first, then little-endian words, the last zero-padded: with
    /// the length known the padding is unambiguous, and with `str`'s
    /// terminator after it adjacent strings cannot trade bytes.
    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }
    // An integer is one word (the signed writes default to these).
    fn write_u8(&mut self, i: u8) {
        self.word(i as u64);
    }
    fn write_u16(&mut self, i: u16) {
        self.word(i as u64);
    }
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// 128-bit content fingerprint of a raw record, keyed on every field —
/// the identity the transport-level dedup uses, computed in one pass of
/// `TwoLane`. Fields are fed through their `Hash` impls, so every `str`
/// carries its terminator. The value is persisted (the seen log): changing
/// what it hashes or how requires a [`crate::MANIFEST_VERSION`] bump.
pub fn record_fingerprint(rec: &RawRecord) -> u128 {
    let h = &mut TwoLane::new();
    rec.feed().hash(h);
    match rec {
        RawRecord::Syslog(l) => {
            l.host.hash(h);
            l.line.hash(h);
        }
        RawRecord::Snmp(s) => {
            s.system.hash(h);
            s.local_time.hash(h);
            (s.metric as u8).hash(h);
            s.if_index.hash(h);
            s.value.to_bits().hash(h);
        }
        RawRecord::L1Log(l) => {
            l.device.hash(h);
            l.local_time.hash(h);
            (l.kind as u8).hash(h);
            l.circuit.hash(h);
        }
        RawRecord::OspfMon(o) => {
            o.utc.hash(h);
            o.link_addr.hash(h);
            o.weight.hash(h);
        }
        RawRecord::BgpMon(b) => {
            b.utc.hash(h);
            b.reflector.hash(h);
            b.prefix.hash(h);
            b.egress_router.hash(h);
            b.attrs.hash(h);
        }
        RawRecord::Tacacs(t) => {
            t.local_time.hash(h);
            t.router.hash(h);
            t.user.hash(h);
            t.command.hash(h);
        }
        RawRecord::Workflow(w) => {
            w.local_time.hash(h);
            w.router.hash(h);
            w.activity.hash(h);
        }
        RawRecord::Perf(p) => {
            p.utc.hash(h);
            p.ingress_router.hash(h);
            p.egress_router.hash(h);
            (p.metric as u8).hash(h);
            p.value.to_bits().hash(h);
        }
        RawRecord::CdnMon(c) => {
            c.utc.hash(h);
            c.node.hash(h);
            c.client_addr.hash(h);
            c.rtt_ms.to_bits().hash(h);
            c.throughput_mbps.to_bits().hash(h);
        }
        RawRecord::ServerLog(s) => {
            s.local_time.hash(h);
            s.node.hash(h);
            s.load.to_bits().hash(h);
        }
    }
    h.finish128()
}

/// Hasher of [`Database`]'s fingerprint map. The key is already a uniform
/// 128-bit hash, so hashing it again buys nothing: fold the two halves, so
/// that the bits hashbrown picks a bucket by and the bits it tags the slot
/// with both carry all of the key's entropy. The fingerprint's keys are
/// fixed (it is persisted), so this map is as resistant to records crafted
/// to collide as the fingerprint is, no more: the feeds are the operator's
/// own network, not an open endpoint.
#[derive(Debug, Default, Clone, Copy)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    /// Total, for whatever else is ever fed in: xor in 8-byte words, which
    /// is what `write_u128` does to a fingerprint's native-endian bytes.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_ne_bytes(word);
        }
    }
    fn write_u128(&mut self, fp: u128) {
        self.0 ^= (fp >> 64) as u64 ^ fp as u64;
    }
}

type SeenMap = HashMap<u128, Timestamp, BuildHasherDefault<FoldHasher>>;

/// The collector's normalized database.
///
/// Equality compares row contents per table (indexes are derived state) —
/// this is what the delivery-order and storage determinism tests assert on.
/// The seen-log journal and its epoch are excluded: they record the
/// *insertion order* of fingerprints, which legitimately differs between
/// delivery schedules that converge to the same database (chaotic vs
/// clean ingest), and replaying either journal rebuilds the same `seen`
/// map.
#[derive(Debug, Default, Clone)]
pub struct Database {
    pub syslog: Table<SyslogRow>,
    pub snmp: Table<SnmpRow>,
    pub l1: Table<L1Row>,
    pub ospf: Table<OspfRow>,
    pub bgp: Table<BgpRow>,
    pub tacacs: Table<TacacsRow>,
    pub workflow: Table<WorkflowRow>,
    pub perf: Table<PerfRow>,
    pub cdn: Table<CdnRow>,
    pub server: Table<ServerRow>,
    /// Records normalization rejected, with structured reasons — never
    /// silently dropped (the operational visibility §II-A calls for).
    pub quarantine: Vec<Quarantined>,
    /// Fingerprint → instant of every record offered since its history
    /// was last aged out, for transport-level dedup that persists across
    /// incremental batches. Accepted and expired records carry their row
    /// instant, rejects the newest instant the database held when they
    /// were offered ([`Database::ingest_more`]), so that
    /// [`Database::retain_before`] drops every fingerprint along with the
    /// history around it. Claimed once per record offered, and written
    /// once more per first sighting, by the fingerprint's own bits
    /// ([`FoldHasher`]).
    seen: SeenMap,
    /// The fingerprints of `seen` by age: instant ÷ [`SEEN_BUCKET_SECS`] →
    /// the fingerprints recorded with an instant in that bucket. Derived from
    /// `seen`, so that [`Database::retain_before`] visits the fingerprints
    /// it drops plus one bucket, not every fingerprint held: 16 bytes a
    /// fingerprint, plus the vectors' growth slack. `None` until the first
    /// retention call builds it (and again after a journal import): a
    /// database that never ages history out — a batch ingest, a serving
    /// publisher — pays nothing for it.
    seen_by_age: Option<BTreeMap<i64, Vec<u128>>>,
    /// Insertion-order journal of every `seen` mutation since this
    /// database was built (or restored): the checkpoint path persists the
    /// *delta* since the last barrier instead of re-serializing the whole
    /// map (see [`crate::durable::SeenLogRef`]). Replaying the journal
    /// from empty rebuilds `seen` exactly. Kept only by a database whose
    /// tables spill ([`StorageConfig::spill_dir`]), the only kind a
    /// checkpoint can capture; `None` — nothing journaled — in any other.
    seen_log: Option<Vec<SeenEvent>>,
    /// Bumped whenever [`Database::retain_before`] compacts the
    /// journal; a persisted log reference from an older epoch can no
    /// longer be appended to (its prefix no longer matches) and must be
    /// rewritten in full.
    seen_epoch: u64,
    /// Rows before this instant have been aged out of the tables; late
    /// re-deliveries of pre-floor history are counted as `expired` and
    /// never re-ingested (which is what keeps the fingerprint aging of
    /// `seen` sound even when a table retains a partial segment, or its
    /// whole unsealed tail, past the floor).
    retention_floor: Option<Timestamp>,
    /// The generation the next checkpoint barrier's pack is named by,
    /// seeded past every pack in the spill directory when the database
    /// is built on it, so that no barrier overwrites a pack a manifest
    /// there names ([`Database::seal_all`]).
    next_pack: u64,
}

/// The one enumeration of the tables, in [`FEEDS`] order: evaluates the
/// body once per table, with the closure-style binding(s) naming that
/// table of each listed database (and, in the `|i, t|` forms, its index
/// into [`FEEDS`]), and collects the results into an array. Row types
/// differ per table, so this cannot be a loop over a slice. A new feed is
/// a [`Database`] field, a `NormRow` variant, a [`FEEDS`] entry and one
/// line here.
macro_rules! each_table {
    (@at $n:literal $f:ident, &$db:ident, |$t:ident| $body:expr) => {{
        let $t = &$db.$f;
        $body
    }};
    (@at $n:literal $f:ident, &mut $db:ident, |$t:ident| $body:expr) => {{
        let $t = &mut $db.$f;
        $body
    }};
    (@at $n:literal $f:ident, &$db:ident, |$i:ident, $t:ident| $body:expr) => {{
        let ($i, $t): (usize, _) = ($n, &$db.$f);
        $body
    }};
    (@at $n:literal $f:ident, &mut $db:ident, |$i:ident, $t:ident| $body:expr) => {{
        let ($i, $t): (usize, _) = ($n, &mut $db.$f);
        $body
    }};
    (@at $n:literal $f:ident, &$a:ident, &$b:ident, |$t:ident, $u:ident| $body:expr) => {{
        let ($t, $u) = (&$a.$f, &$b.$f);
        $body
    }};
    ($($spec:tt)+) => {
        [
            each_table!(@at 0 syslog, $($spec)+),
            each_table!(@at 1 snmp, $($spec)+),
            each_table!(@at 2 l1, $($spec)+),
            each_table!(@at 3 ospf, $($spec)+),
            each_table!(@at 4 bgp, $($spec)+),
            each_table!(@at 5 tacacs, $($spec)+),
            each_table!(@at 6 workflow, $($spec)+),
            each_table!(@at 7 perf, $($spec)+),
            each_table!(@at 8 cdn, $($spec)+),
            each_table!(@at 9 server, $($spec)+),
        ]
    };
}
pub(crate) use each_table;

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.row_counts() == other.row_counts()
            && each_table!(&self, &other, |a, b| a == b) == [true; 10]
            && self.quarantine == other.quarantine
            && self.seen == other.seen
            && self.retention_floor == other.retention_floor
    }
}

/// One mutation of the dedup fingerprint map, journaled in insertion
/// order. `Floor` stands for the bulk prune [`Database::retain_before`]
/// performs, so the journal stays O(inserts) rather than O(removals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeenEvent {
    /// A fingerprint was recorded with its instant (for a reject, the
    /// one [`Database::ingest_more`] gives it). Journals written before
    /// rejects aged carry `Timestamp(i64::MAX)` for theirs; they replay as
    /// written, and those entries never age out.
    Insert { fp: u128, at: Timestamp },
    /// Every fingerprint strictly older than the instant was pruned.
    Floor(Timestamp),
}

/// Width of one [`Database`] fingerprint-age bucket. A retention call
/// re-examines the one bucket its floor falls in, so narrower is cheaper
/// per call and wider is fewer buckets; five minutes is the finest cadence
/// any caller polls at.
const SEEN_BUCKET_SECS: i64 = 300;

/// List `fp`, recorded at `at`, in its age bucket.
fn list_by_age(index: &mut BTreeMap<i64, Vec<u128>>, fp: u128, at: Timestamp) {
    let bucket = at.0.div_euclid(SEEN_BUCKET_SECS);
    index.entry(bucket).or_default().push(fp);
}

/// The journal rewritten as the sorted live fingerprint set — what
/// [`Database::retain_before`] replaces it with once it carries enough
/// dead weight (and bumps the epoch, so the next checkpoint rewrites its
/// persisted log in full). `HashMap` iteration order is
/// nondeterministic; sorted, a compacted journal (and hence the persisted
/// log) is a pure function of the live set.
fn compacted_seen_log(seen: &SeenMap) -> Vec<SeenEvent> {
    let mut events: Vec<SeenEvent> = seen
        .iter()
        .map(|(&fp, &at)| SeenEvent::Insert { fp, at })
        .collect();
    events.sort_unstable_by_key(|ev| match *ev {
        SeenEvent::Insert { fp, .. } => fp,
        SeenEvent::Floor(_) => 0,
    });
    events
}

/// Records [`Database::ingest_more`] fingerprints and claims in `seen` ahead
/// of normalizing them: enough probes in flight to overlap their cache
/// misses, few enough that the block's fingerprints (4 KiB) stay on the
/// stack and its claimed map slots are still cached when normalization
/// fills them in.
const INGEST_BLOCK: usize = 256;

/// The instant a fingerprint holds in `seen` between its block's claim
/// pass and its own normalization; no call returns with one left.
const PENDING: Timestamp = Timestamp(i64::MAX);

/// Compaction slack: the journal is rewritten from the live map only
/// once it carries this many entries beyond twice the live set, keeping
/// both the journal's memory and full-rewrite frequency bounded.
const SEEN_LOG_COMPACT_SLACK: usize = 8192;

/// Feed names in [`Database::row_counts`] table order
/// ([`RawRecord::feed`]'s names).
pub const FEEDS: [&str; 10] = [
    "syslog",
    "snmp",
    "l1log",
    "ospfmon",
    "bgpmon",
    "tacacs",
    "workflow",
    "perf",
    "cdnmon",
    "serverlog",
];

/// [`FEEDS`] indexes in feed-name order: the order reports and the manifest
/// list feeds in.
pub(crate) fn feeds_by_name() -> [usize; 10] {
    let mut by_name: [usize; 10] = std::array::from_fn(|i| i);
    by_name.sort_unstable_by_key(|&i| FEEDS[i]);
    by_name
}

impl Database {
    /// An empty database whose tables seal, spill and cache as `cfg`
    /// says. The default database's tables never seal
    /// ([`Table::default`]); these are query-identical to it, and
    /// memory-bounded when the caller also applies
    /// [`Database::retain_before`]. Spilling tables also journal `seen`
    /// ([`Database::seen_log`]).
    pub fn with_storage(cfg: &StorageConfig) -> Database {
        let mut db = Database::default();
        each_table!(&mut db, |t| *t = Table::new(cfg.clone()));
        db.seen_log = cfg.spill_dir.as_ref().map(|_| Vec::new());
        if let Some(dir) = &cfg.spill_dir {
            db.next_pack = crate::durable::next_pack_generation(dir);
        }
        db
    }

    /// Ingest and normalize a batch of raw records against the topology.
    pub fn ingest(topo: &Topology, records: &[RawRecord]) -> (Database, IngestStats) {
        let mut db = Database::default();
        let mut stats = IngestStats::default();
        db.ingest_more(topo, records, &mut stats);
        (db, stats)
    }

    /// Incrementally ingest another batch (real-time mode): rows are
    /// appended and the tables re-finalized, so the database stays
    /// queryable between batches. Every record is accounted for exactly
    /// once: exact re-deliveries are skipped via the persistent
    /// fingerprint map (`deduplicated`), rejects land in the quarantine
    /// (`quarantined`), rows older than the retention floor are counted
    /// but not stored (`expired`), and the rest are appended (`accepted`).
    ///
    /// A reject has no instant of its own, so its fingerprint is recorded
    /// at the newest instant the database holds when it is offered: the
    /// newest row accepted so far, or the retention floor if that is later
    /// (the oldest possible instant if neither exists). It ages out with
    /// the history around it, so a source that keeps sending rejects does
    /// not grow `seen` and the journal without bound — and a reject
    /// re-delivered after its window has aged out is quarantined and
    /// counted again.
    ///
    /// Records are taken `INGEST_BLOCK` (256) at a time. A block is
    /// fingerprinted whole, then every fingerprint is claimed in `seen` in
    /// one tight pass — a first sighting inserted with a pending instant,
    /// anything already held (an earlier block's, or an earlier record's
    /// in this one) counted as a duplicate — and only then are the fresh
    /// records normalized, in record order, each overwriting its pending
    /// instant. The map outgrows the cache, so a probe is a trip to
    /// memory; with nothing but probes between them those trips overlap,
    /// where interleaved with normalization each one waited for the last.
    /// Arrival order decides which copy is kept exactly as one record at a
    /// time would.
    pub fn ingest_more(&mut self, topo: &Topology, records: &[RawRecord], stats: &mut IngestStats) {
        // Once a call, not by doubling (and re-hashing) through a bulk one.
        self.seen.reserve(records.len());
        if let Some(log) = &mut self.seen_log {
            log.reserve(records.len());
        }
        let mut newest = self.newest_instant();
        let mut names = LastNames::default();
        for block in records.chunks(INGEST_BLOCK) {
            let mut fps = [0u128; INGEST_BLOCK];
            for (fp, rec) in fps.iter_mut().zip(block) {
                *fp = record_fingerprint(rec);
            }
            let mut fresh = [false; INGEST_BLOCK];
            for ((fresh, &fp), rec) in fresh.iter_mut().zip(&fps).zip(block) {
                match self.seen.entry(fp) {
                    Entry::Vacant(unseen) => {
                        unseen.insert(PENDING);
                        *fresh = true;
                    }
                    Entry::Occupied(_) => stats.deduplicated[feed_index(rec)] += 1,
                }
            }
            for ((rec, &fp), _) in block.iter().zip(&fps).zip(fresh).filter(|(_, f)| *f) {
                self.ingest_fresh(topo, rec, fp, &mut names, &mut newest, stats);
            }
        }
        self.finalize();
    }

    /// The rest of a first sighting's ingest, once its fingerprint is
    /// claimed: normalize it, record its instant in `seen` and the
    /// journal, and store, expire or quarantine it. `newest` is
    /// [`Database::newest_instant`] as of this record.
    fn ingest_fresh<'a>(
        &mut self,
        topo: &Topology,
        rec: &'a RawRecord,
        fp: u128,
        names: &mut LastNames<'a>,
        newest: &mut Option<Timestamp>,
        stats: &mut IngestStats,
    ) {
        let feed = feed_index(rec);
        let row = normalize(topo, rec, fp as u64, names, stats);
        let at = match &row {
            Ok(row) => row.utc(),
            Err(_) => newest.unwrap_or(Timestamp(i64::MIN)),
        };
        *self.seen.get_mut(&fp).expect("claimed by its block") = at;
        if let Some(index) = &mut self.seen_by_age {
            list_by_age(index, fp, at);
        }
        if let Some(log) = &mut self.seen_log {
            log.push(SeenEvent::Insert { fp, at });
        }
        match row {
            Ok(_) if self.retention_floor.is_some_and(|floor| at < floor) => {
                stats.expired[feed] += 1;
            }
            Ok(row) => {
                stats.accepted[feed] += 1;
                *newest = (*newest).max(Some(at));
                self.push_norm(row);
            }
            Err(reason) => {
                stats.quarantined[feed] += 1;
                let feed = FEEDS[feed];
                self.quarantine.push(Quarantined { feed, reason });
            }
        }
    }

    /// The newest instant the database holds: its newest row, or its
    /// retention floor if that is later. Rows older than the floor that a
    /// table still keeps cannot decide it, so it is the same whatever the
    /// tables' storage config.
    fn newest_instant(&self) -> Option<Timestamp> {
        let rows = self.feed_watermarks().into_iter().filter_map(|(_, t)| t);
        rows.chain(self.retention_floor).max()
    }

    fn push_norm(&mut self, row: NormRow) {
        match row {
            NormRow::Syslog(r) => self.syslog.push(r),
            NormRow::Snmp(r) => self.snmp.push(r),
            NormRow::L1(r) => self.l1.push(r),
            NormRow::Ospf(r) => self.ospf.push(r),
            NormRow::Bgp(r) => self.bgp.push(r),
            NormRow::Tacacs(r) => self.tacacs.push(r),
            NormRow::Workflow(r) => self.workflow.push(r),
            NormRow::Perf(r) => self.perf.push(r),
            NormRow::Cdn(r) => self.cdn.push(r),
            NormRow::Server(r) => self.server.push(r),
        }
    }

    /// Sort every table and extend its timestamp column (call once after
    /// ingestion); per-entity indexes are left to the first lookup.
    pub fn finalize(&mut self) {
        each_table!(&mut self, |t| t.finalize());
    }

    /// The durable checkpoint barrier ([`crate::durable`]): force-seal
    /// every table's tail so all rows live in sealed segments, then write
    /// every segment of a spilling table that is not on disk yet into one
    /// new pack file — one write, one `fsync`, one rename, one directory
    /// `fsync` — and serve those segments from it. A database whose
    /// tables do not spill writes nothing. On `Err` (naming the pack and
    /// the OS error) the segments stay resident for the next barrier.
    pub fn seal_all(&mut self) -> Result<(), String> {
        self.finalize();
        each_table!(&mut self, |t| t.seal_all());
        let cfgs = each_table!(&self, |t| t.config());
        let Some((dir, durable)) = cfgs
            .into_iter()
            .find_map(|c| Some((c.spill_dir.clone()?, c.durable)))
        else {
            return Ok(());
        };
        let mut pack = Vec::new();
        let placed = each_table!(&self, |t| t.pack_resident(&mut pack));
        if pack.is_empty() {
            return Ok(());
        }
        let path = crate::durable::write_pack(&dir, &mut self.next_pack, &pack, durable)?;
        let file = SpillFile::shared(path, durable);
        each_table!(&mut self, |i, t| t.adopt_packed(&file, &placed[i]));
        Ok(())
    }

    /// The dedup fingerprint map, exported for checkpointing.
    pub fn export_seen(&self) -> Vec<(u128, Timestamp)> {
        self.seen.iter().map(|(&fp, &t)| (fp, t)).collect()
    }

    /// `self.seen.retain(|_, t| *t >= floor)`, visiting only the buckets
    /// at or before the floor's. A fingerprint recorded at `t` is listed
    /// in `t`'s bucket, and buckets are monotone in `t`, so nothing older
    /// than the floor is listed anywhere later; what a visited bucket lists
    /// is dropped only if `seen` still holds it with an instant before the
    /// floor, so nothing else can go.
    fn prune_seen(&mut self, floor: Timestamp) {
        let floor_bucket = floor.0.div_euclid(SEEN_BUCKET_SECS);
        let seen = &mut self.seen;
        let by_age = self.seen_by_age.get_or_insert_with(|| {
            let mut index = BTreeMap::new();
            for (&fp, &at) in seen.iter() {
                list_by_age(&mut index, fp, at);
            }
            index
        });
        let mut drop_if_older = |fp: &u128| match seen.entry(*fp) {
            Entry::Occupied(held) if *held.get() < floor => {
                held.remove();
                true
            }
            _ => false,
        };
        while let Some(oldest) = by_age.first_entry() {
            if *oldest.key() >= floor_bucket {
                break;
            }
            oldest.remove().iter().for_each(|fp| {
                drop_if_older(fp);
            });
        }
        if let Some(straddling) = by_age.get_mut(&floor_bucket) {
            straddling.retain(|fp| !drop_if_older(fp));
        }
    }

    /// Whether this database journals `seen` — exactly when its tables
    /// spill, the only kind [`crate::StoreManifest::capture`] accepts.
    pub(crate) fn journals(&self) -> bool {
        self.seen_log.is_some()
    }

    /// The journal epoch and the mutation events since this database was
    /// built or restored, in order (checkpoint delta export). Empty unless
    /// the tables spill.
    pub fn seen_log(&self) -> (u64, &[SeenEvent]) {
        (self.seen_epoch, self.seen_log.as_deref().unwrap_or(&[]))
    }

    /// Rebuild the fingerprint map by replaying `events` from empty, and
    /// (if the tables spill) adopt them as the journal at `epoch` — the
    /// checkpoint restore path. Subsequent [`Database::seen_log`] deltas
    /// then continue from exactly the persisted prefix.
    pub fn import_seen_events(&mut self, epoch: u64, events: Vec<SeenEvent>) {
        self.seen.clear();
        for ev in &events {
            match *ev {
                SeenEvent::Insert { fp, at } => {
                    self.seen.insert(fp, at);
                }
                SeenEvent::Floor(floor) => self.seen.retain(|_, t| *t >= floor),
            }
        }
        self.seen_by_age = None;
        if let Some(log) = &mut self.seen_log {
            *log = events;
        }
        self.seen_epoch = epoch;
    }

    /// The current retention floor, if any history has been aged out.
    pub fn retention_floor(&self) -> Option<Timestamp> {
        self.retention_floor
    }

    /// Restore the retention floor (checkpoint restore path).
    pub fn restore_retention_floor(&mut self, floor: Option<Timestamp>) {
        self.retention_floor = floor;
    }

    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.row_counts().iter().sum()
    }

    /// Per-feed high watermarks — the latest normalized UTC instant each
    /// feed has delivered — in [`FEEDS`] order. The raw signal behind the
    /// per-feed health model ([`crate::health::FeedRegistry`]).
    pub fn feed_watermarks(&self) -> [(&'static str, Option<Timestamp>); 10] {
        each_table!(&self, |i, t| (FEEDS[i], t.last_time()))
    }

    /// Per-table count of rows strictly after `marks[i]` (every row where
    /// the mark is `None`), in [`FEEDS`] order — what incremental
    /// extraction checks a database's growth against.
    pub fn rows_after(&self, marks: &[Option<Timestamp>; 10]) -> [usize; 10] {
        each_table!(&self, |i, t| match marks[i] {
            Some(w) => t.after(w).len(),
            None => t.len(),
        })
    }

    /// Drop the oldest quarantine entries beyond `keep` (long-running
    /// online mode: counts stay in [`IngestStats`]; only the retained
    /// drill-down detail is bounded).
    pub fn trim_quarantine(&mut self, keep: usize) {
        if self.quarantine.len() > keep {
            let excess = self.quarantine.len() - keep;
            self.quarantine.drain(..excess);
        }
    }

    /// Age out all rows strictly before `floor`: drop them from every
    /// table (whole sealed segments only, so none from a table that never
    /// seals), drop the fingerprints of the dropped history, and raise the
    /// retention floor so late re-deliveries of pre-floor records are
    /// expired on arrival instead of re-ingested. Returns rows dropped.
    ///
    /// Note this breaks the "tables only ever grow" identity incremental
    /// extraction checks — its watermark test fails and it soundly falls
    /// back to a full pass on cycles where segments were dropped.
    pub fn retain_before(&mut self, floor: Timestamp) -> usize {
        let dropped = each_table!(&mut self, |t| t.retain_before(floor))
            .iter()
            .sum();
        self.prune_seen(floor);
        if let Some(log) = &mut self.seen_log {
            log.push(SeenEvent::Floor(floor));
            if log.len() > 2 * self.seen.len() + SEEN_LOG_COMPACT_SLACK {
                *log = compacted_seen_log(&self.seen);
                self.seen_epoch += 1;
            }
        }
        self.retention_floor = Some(match self.retention_floor {
            Some(f) => f.max(floor),
            None => floor,
        });
        dropped
    }

    /// Estimated resident bytes across all tables (rows, timestamp
    /// columns, encoded blobs, decode caches, and whichever per-entity
    /// indexes a lookup has built) plus the fingerprint map, its age index
    /// and its journal.
    pub fn approx_bytes(&self) -> usize {
        each_table!(&self, |t| t.approx_bytes())
            .iter()
            .sum::<usize>()
            + self.seen.len() * (std::mem::size_of::<(u128, Timestamp)>() + 8)
            + self
                .seen_by_age
                .iter()
                .flat_map(BTreeMap::values)
                .map(|fps| fps.capacity() * std::mem::size_of::<u128>() + 32)
                .sum::<usize>()
            + self.seen_log.as_ref().map_or(0, Vec::len) * std::mem::size_of::<SeenEvent>()
    }

    /// Storage counters merged across all tables. Always `Some`: a
    /// database whose tables never seal reports zero sealed segments.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        let mut out = StorageStats::default();
        for s in each_table!(&self, |t| t.stats()) {
            out.merge(&s);
        }
        Some(out)
    }

    /// A cheap fingerprint of the ingested state — the collector-side
    /// epoch the serving layer stamps snapshots with. Built purely from
    /// per-table counters (row counts, per-feed watermarks, quarantine
    /// depth, retention floor), never from row scans, so it is O(tables)
    /// regardless of history size. Ingest only appends (or ages out via
    /// [`Database::retain_before`], which moves counts and the floor), so
    /// any state change moves the fingerprint; an unchanged fingerprint
    /// lets a publisher skip a no-op republish.
    pub fn ingest_epoch(&self) -> u64 {
        let mut h = grca_types::hash::StableHasher::new();
        0x6772_6361_5f65_706fu64.hash(&mut h); // fixed seed
        for n in self.row_counts() {
            n.hash(&mut h);
        }
        for (_, wm) in self.feed_watermarks() {
            wm.map(|t| t.unix()).hash(&mut h);
        }
        self.quarantine.len().hash(&mut h);
        self.retention_floor.map(|t| t.unix()).hash(&mut h);
        h.finish()
    }

    /// Per-table row counts in a fixed order (diagnostics, watermark
    /// growth checks in incremental extraction).
    pub fn row_counts(&self) -> [usize; 10] {
        each_table!(&self, |t| t.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
    use grca_telemetry::records::{SnmpMetric, SnmpSample, SyslogLine};
    use grca_telemetry::syslog::SyslogEvent;
    use grca_types::{Duration, Timestamp};

    #[test]
    fn syslog_time_normalized_to_utc() {
        let topo = generate(&TopoGenConfig::small());
        let r = topo.router_by_name("lax-per1").unwrap();
        let tz = topo.router_tz(r);
        assert_ne!(tz, grca_types::TimeZone::UTC, "test needs a non-UTC device");
        let rec = RawRecord::Syslog(SyslogLine {
            host: "lax-per1".into(),
            line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
        });
        let (db, stats) = Database::ingest(&topo, &[rec]);
        assert_eq!(stats.total_accepted(), 1);
        let rows = db.syslog.all();
        let row = &rows[0];
        assert_eq!(
            row.utc,
            tz.to_utc(Timestamp::from_civil(2010, 1, 1, 4, 0, 0))
        );
        assert_eq!(row.event, Some(SyslogEvent::Restart));
    }

    #[test]
    fn snmp_names_and_network_time_resolved() {
        let topo = generate(&TopoGenConfig::small());
        // SNMP stamps Eastern (UTC-5): local 07:00 == 12:00 UTC.
        let rec = RawRecord::Snmp(SnmpSample {
            system: "LAX-PER1.ISP.NET".into(),
            local_time: Timestamp::from_civil(2010, 1, 1, 7, 0, 0),
            metric: SnmpMetric::CpuUtil5m,
            if_index: None,
            value: 42.0,
        });
        let (db, _) = Database::ingest(&topo, &[rec]);
        let rows = db.snmp.all();
        let row = &rows[0];
        assert_eq!(row.utc, Timestamp::from_civil(2010, 1, 1, 12, 0, 0));
        assert_eq!(topo.router(row.router).name, "lax-per1");
    }

    #[test]
    fn rejects_land_in_quarantine_with_reasons() {
        let topo = generate(&TopoGenConfig::small());
        let recs = vec![
            RawRecord::Syslog(SyslogLine {
                host: "ghost-router".into(),
                line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
            }),
            RawRecord::Syslog(SyslogLine {
                host: "nyc-per1".into(),
                line: "trunc".into(), // malformed: no timestamp
            }),
            RawRecord::Snmp(SnmpSample {
                system: "NYC-PER1.ISP.NET".into(),
                local_time: Timestamp(0),
                metric: SnmpMetric::CpuUtil5m,
                if_index: None,
                value: f64::NAN, // implausible measurement
            }),
        ];
        let (db, stats) = Database::ingest(&topo, &recs);
        assert_eq!(db.total_rows(), 0);
        assert_eq!(stats.total_quarantined(), 3);
        assert_eq!(stats.total_input(), 3);
        assert_eq!(db.quarantine.len(), 3);
        assert!(matches!(
            db.quarantine[0].reason,
            QuarantineReason::UnknownEntity { kind: "router", .. }
        ));
        assert!(matches!(
            db.quarantine[1].reason,
            QuarantineReason::Malformed { .. }
        ));
        assert!(matches!(
            db.quarantine[2].reason,
            QuarantineReason::Implausible { .. }
        ));
    }

    /// A NaN or infinite measurement is `Implausible` and reaches no table,
    /// whichever measured column carries it. Extraction relies on this: its
    /// trailing medians keep a sorted window, which a NaN would corrupt.
    #[test]
    fn non_finite_measurements_are_quarantined_in_every_column() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 3, FaultRates::cdn_study());
        let records = run_scenario(&topo, &cfg).records;
        type Corrupt = fn(&mut RawRecord, f64);
        let columns: [(&str, &str, Corrupt); 5] = [
            ("snmp", "snmp sample", |r, v| {
                if let RawRecord::Snmp(s) = r {
                    s.value = v;
                }
            }),
            ("perf", "perf probe", |r, v| {
                if let RawRecord::Perf(p) = r {
                    p.value = v;
                }
            }),
            ("cdnmon", "cdn rtt", |r, v| {
                if let RawRecord::CdnMon(c) = r {
                    c.rtt_ms = v;
                }
            }),
            ("cdnmon", "cdn throughput", |r, v| {
                if let RawRecord::CdnMon(c) = r {
                    c.throughput_mbps = v;
                }
            }),
            ("serverlog", "server load", |r, v| {
                if let RawRecord::ServerLog(s) = r {
                    s.load = v;
                }
            }),
        ];
        for (feed, column, corrupt) in columns {
            let clean = records.iter().find(|r| r.feed() == feed).expect(feed);
            let (db, _) = Database::ingest(&topo, std::slice::from_ref(clean));
            assert_eq!(db.total_rows(), 1, "a clean {feed} record must land");
            for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut rec = clean.clone();
                corrupt(&mut rec, bad);
                let (db, stats) = Database::ingest(&topo, &[rec]);
                let reason = &db.quarantine[0].reason;
                assert_eq!((db.total_rows(), stats.total_quarantined()), (0, 1));
                assert!(
                    matches!(reason, QuarantineReason::Implausible { what, .. } if *what == column),
                    "{column} = {bad}: {reason:?}"
                );
            }
        }
    }

    /// Exact re-deliveries are skipped and counted, including across
    /// incremental batches (transport retries replaying an earlier batch).
    #[test]
    fn duplicates_dedup_across_incremental_batches() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 3, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let (batch_db, batch_stats) = Database::ingest(&topo, &out.records);

        let mut db = Database::default();
        let mut stats = IngestStats::default();
        let half = out.records.len() / 2;
        db.ingest_more(&topo, &out.records[..half], &mut stats);
        // Replay the first half in full, then deliver the rest.
        db.ingest_more(&topo, &out.records[..half], &mut stats);
        db.ingest_more(&topo, &out.records[half..], &mut stats);
        assert_eq!(db, batch_db, "replayed batch must be invisible");
        assert_eq!(stats.total_deduplicated(), half);
        assert_eq!(stats.accepted, batch_stats.accepted);
        assert_eq!(stats.total_input(), out.records.len() + half);
    }

    /// Every record offered is accounted exactly once:
    /// accepted + quarantined + deduplicated == input.
    #[test]
    fn accounting_invariant_with_mixed_garbage() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 3, FaultRates::bgp_study());
        let mut records = run_scenario(&topo, &cfg).records;
        let n_clean = records.len();
        // Duplicate every 7th record and add garbage.
        for i in (0..n_clean).step_by(7) {
            let dup = records[i].clone();
            records.push(dup);
        }
        records.push(RawRecord::Syslog(SyslogLine {
            host: "ghost".into(),
            line: "junk".into(),
        }));
        let (db, stats) = Database::ingest(&topo, &records);
        assert_eq!(stats.total_input(), records.len());
        assert_eq!(
            stats.total_accepted() + stats.total_quarantined() + stats.total_deduplicated(),
            records.len()
        );
        assert_eq!(db.quarantine.len(), stats.total_quarantined());
        assert_eq!(stats.total_deduplicated(), n_clean.div_ceil(7));
    }

    /// Per-feed counts live in arrays indexed by `feed_index`: it must name
    /// the feed `RawRecord::feed` names, for every feed, and `render` must
    /// list exactly the feeds that were offered something, by name.
    #[test]
    fn feed_index_agrees_with_feed_names_and_render_lists_by_name() {
        let topo = generate(&TopoGenConfig::small());
        let mut records = Vec::new();
        for rates in [
            FaultRates::bgp_study(),
            FaultRates::cdn_study(),
            FaultRates::pim_study(),
        ] {
            records.extend(run_scenario(&topo, &ScenarioConfig::new(2, 3, rates)).records);
        }
        let mut fed = [false; 10];
        for rec in &records {
            assert_eq!(FEEDS[feed_index(rec)], rec.feed());
            fed[feed_index(rec)] = true;
        }
        assert_eq!(fed, [true; 10], "a feed the scenarios never emit");
        let mut sorted = FEEDS;
        sorted.sort_unstable();
        assert_eq!(feeds_by_name().map(|i| FEEDS[i]), sorted);

        let syslog: Vec<RawRecord> = records
            .iter()
            .filter(|r| r.feed() == "syslog")
            .take(3)
            .cloned()
            .collect();
        let mut batch = syslog.clone();
        batch.push(syslog[0].clone());
        batch.push(RawRecord::Snmp(SnmpSample {
            system: "GHOST.ISP.NET".into(),
            local_time: Timestamp(0),
            metric: SnmpMetric::CpuUtil5m,
            if_index: None,
            value: 1.0,
        }));
        let (_, stats) = Database::ingest(&topo, &batch);
        assert_eq!(
            stats.render(),
            "      snmp: 0 accepted, 1 quarantined, 0 deduplicated, 0 expired\n    \
             syslog: 3 accepted, 0 quarantined, 1 deduplicated, 0 expired\n"
        );
    }

    #[test]
    fn unknown_entities_are_dropped_not_fatal() {
        let topo = generate(&TopoGenConfig::small());
        let recs = vec![
            RawRecord::Syslog(SyslogLine {
                host: "ghost-router".into(),
                line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
            }),
            RawRecord::Snmp(SnmpSample {
                system: "GHOST.ISP.NET".into(),
                local_time: Timestamp(0),
                metric: SnmpMetric::CpuUtil5m,
                if_index: None,
                value: 1.0,
            }),
        ];
        let (db, stats) = Database::ingest(&topo, &recs);
        assert_eq!(db.total_rows(), 0);
        assert_eq!(stats.total_dropped(), 2);
    }

    #[test]
    fn unparsed_syslog_kept_as_raw() {
        let topo = generate(&TopoGenConfig::small());
        let rec = RawRecord::Syslog(SyslogLine {
            host: "nyc-per1".into(),
            line: "2010-01-01 04:00:00 %NOISE-6-T001: periodic condition type 1".into(),
        });
        let (db, stats) = Database::ingest(&topo, &[rec]);
        assert_eq!(stats.syslog_unparsed, 1);
        let rows = db.syslog.all();
        let row = &rows[0];
        assert!(row.event.is_none());
        assert_eq!(row.mnemonic(), "%NOISE-6-T001");
    }

    #[test]
    fn full_scenario_ingests_cleanly() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(5, 3, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let (db, stats) = Database::ingest(&topo, &out.records);
        assert_eq!(stats.total_dropped(), 0, "{}", stats.render());
        assert_eq!(db.total_rows(), out.records.len() /* - none */);
        // Tables are sorted.
        let times: Vec<_> = db.syslog.all().iter().map(|r| r.utc).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // All feeds landed.
        assert!(!db.syslog.is_empty());
        assert!(!db.snmp.is_empty());
        assert!(!db.perf.is_empty());
        assert!(!db.cdn.is_empty());
        assert!(!db.workflow.is_empty());
    }

    #[test]
    fn scenario_l1_and_routing_feeds_resolve() {
        let topo = generate(&TopoGenConfig::small());
        let mut rates = FaultRates::zero();
        rates.sonet_restoration = 40.0;
        rates.link_cost_out_maint = 5.0;
        rates.egress_change = 5.0;
        let mut cfg = ScenarioConfig::new(5, 3, rates);
        cfg.background.emit_baseline = false;
        let out = run_scenario(&topo, &cfg);
        let (db, stats) = Database::ingest(&topo, &out.records);
        assert_eq!(stats.total_dropped(), 0, "{}", stats.render());
        assert!(!db.l1.is_empty());
        assert!(!db.ospf.is_empty());
        assert!(!db.bgp.is_empty());
        assert!(!db.tacacs.is_empty());
    }

    /// `FoldHasher::write` is total and agrees with the `write_u128` fast
    /// path on a fingerprint's bytes, whichever way `u128::hash` feeds it.
    #[test]
    fn fold_hasher_folds_both_halves_either_way() {
        let fp = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        let (mut a, mut b, mut c) = <(FoldHasher, FoldHasher, FoldHasher)>::default();
        a.write_u128(fp);
        b.write(&fp.to_ne_bytes());
        assert_eq!(a.finish(), 0x0123_4567_89ab_cdef ^ 0xfedc_ba98_7654_3210);
        assert_eq!(a.finish(), b.finish());
        c.write(b"odd-sized input");
        assert_ne!(c.finish(), 0);
    }

    /// `retain_before` prunes the fingerprint map through the age index;
    /// after every call the map must hold exactly what a walk over every
    /// fingerprint would have left — through late and already-expired
    /// re-deliveries, rejects (aged like the rest, and quarantined again
    /// when re-delivered after), floors that fall inside a bucket or do not
    /// advance, and a journal export/import in the middle (so the tables
    /// spill: no other database journals).
    #[test]
    fn retain_before_prunes_fingerprints_exactly_as_a_full_walk() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 3, FaultRates::bgp_study());
        let mut records = run_scenario(&topo, &cfg).records;
        let ghost = |host: &str| {
            RawRecord::Syslog(SyslogLine {
                host: host.into(),
                line: "2010-01-01 04:00:00 %SYS-5-RESTART: System restarted".into(),
            })
        };
        // One reject first, so every cycle re-delivers it; one last.
        records.insert(0, ghost("ghost-router"));
        records.push(ghost("another-ghost"));
        let (dir, cfg) = spilling("walk");
        let mut db = Database::with_storage(&cfg);
        let mut stats = IngestStats::default();
        // What `seen` would hold had every call walked the whole map.
        let mut walked = SeenMap::default();
        let chunk = records.len() / 12;
        for (i, batch) in records.chunks(chunk).enumerate() {
            db.ingest_more(&topo, batch, &mut stats);
            // An earlier batch again: partly deduplicated, partly (once the
            // floor has passed it) expired and recorded below the floor.
            db.ingest_more(&topo, &records[..chunk / 2], &mut stats);
            for (fp, at) in db.export_seen() {
                walked.entry(fp).or_insert(at);
            }
            // Floors off the bucket grid, one of them not advancing.
            let newest = db.feed_watermarks()[0].1.unwrap();
            let back = if i == 7 {
                9 * 3600
            } else {
                5 * 3600 + 17 * i as i64
            };
            let floor = newest - grca_types::Duration::secs(back);
            db.retain_before(floor);
            walked.retain(|_, t| *t >= floor);
            assert_eq!(db.seen, walked, "after cycle {i}");
            if i == 5 {
                let (epoch, events) = db.seen_log();
                let events = events.to_vec();
                assert!(events.len() > walked.len(), "the journal is empty");
                db.import_seen_events(epoch, events);
                assert_eq!(db.seen, walked, "after the journal round-trip");
            }
        }
        assert!(stats.total_expired() > 0);
        assert!(
            stats.total_quarantined() > 2,
            "the first reject never aged out"
        );
        let dropped = records.len() - walked.len();
        assert!(dropped > records.len() / 2, "the floors dropped too little");
        // The index lists what the map holds, once each, and nothing else.
        let by_age = db.seen_by_age.as_ref().expect("built by the first call");
        let listed: usize = by_age.values().map(Vec::len).sum();
        assert_eq!(listed, walked.len());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A storage config whose tables spill to a fresh directory of their
    /// own (removed by the caller once the database is dropped).
    fn spilling(tag: &str) -> (std::path::PathBuf, StorageConfig) {
        let dir = std::env::temp_dir().join(format!("grca-db-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StorageConfig {
            spill_dir: Some(dir.clone()),
            ..StorageConfig::default()
        };
        (dir, cfg)
    }

    /// Only a database a checkpoint can capture keeps the dedup journal:
    /// the default one and an in-memory segmented one journal nothing
    /// through ingest, re-delivery and retention, while a spilling one
    /// journals every first sighting in order and every floor, and the
    /// journal replays to the same fingerprint map.
    #[test]
    fn only_a_spilling_database_journals_seen() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 3, FaultRates::bgp_study());
        let records = run_scenario(&topo, &cfg).records;
        let half = records.len() / 2;
        let (probe, _) = Database::ingest(&topo, &records[..half]);
        let floor = probe.feed_watermarks()[0].1.unwrap() - Duration::hours(6);
        let drive = |mut db: Database| {
            let mut stats = IngestStats::default();
            db.ingest_more(&topo, &records[..half], &mut stats);
            db.retain_before(floor);
            db.ingest_more(&topo, &records, &mut stats);
            (db, stats)
        };
        let (dir, spill) = spilling("journal");
        let (journaled, stats) = drive(Database::with_storage(&spill));
        let (plain, _) = drive(Database::default());
        let (segmented, _) = drive(Database::with_storage(&StorageConfig::default()));
        assert!(stats.total_deduplicated() > 0 && stats.total_expired() > 0);
        assert!(plain.seen == journaled.seen && segmented.seen == journaled.seen);
        for db in [&plain, &segmented] {
            assert_eq!(
                db.seen_log(),
                (0, &[][..]),
                "a database that cannot spill journaled"
            );
            assert!(!db.seen.is_empty());
        }
        let (epoch, events) = journaled.seen_log();
        let fresh = stats.total_accepted() + stats.total_quarantined() + stats.total_expired();
        let inserts = events
            .iter()
            .filter(|e| matches!(e, SeenEvent::Insert { .. }));
        assert_eq!((epoch, inserts.count()), (0, fresh));
        let floors: Vec<usize> = (events.iter().enumerate())
            .filter(|(_, e)| **e == SeenEvent::Floor(floor))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(floors.len(), 1, "one retention call, one floor");
        assert!(floors[0] > 0 && floors[0] < events.len() - 1);
        let mut replayed = Database::with_storage(&spill);
        replayed.import_seen_events(epoch, events.to_vec());
        assert_eq!(replayed.seen, journaled.seen);
        drop((journaled, replayed));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A call leaves no claimed fingerprint pending: whatever blocks the
    /// calls are cut into and wherever the re-deliveries fall, every `seen`
    /// entry holds the instant of the row its record became or, for a
    /// reject, the newest row instant accepted before it.
    #[test]
    fn no_pending_instant_survives_a_call() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 3, FaultRates::bgp_study());
        let mut records = run_scenario(&topo, &cfg).records;
        for (i, rec) in records.iter_mut().enumerate().step_by(50) {
            if let RawRecord::Syslog(line) = rec {
                line.host = format!("ghost{i}").into();
            }
        }
        let redelivered: Vec<RawRecord> = records.iter().step_by(3).cloned().collect();
        records.extend(redelivered);
        let mut db = Database::default();
        let mut stats = IngestStats::default();
        for batch in records.chunks(INGEST_BLOCK + 44) {
            db.ingest_more(&topo, batch, &mut stats);
        }
        assert!(stats.total_quarantined() > 0 && stats.total_deduplicated() > 0);
        let mut want = SeenMap::default();
        let mut newest = None;
        for rec in &records {
            let Entry::Vacant(unseen) = want.entry(record_fingerprint(rec)) else {
                continue;
            };
            let names = &mut LastNames::default();
            let at = match normalize(&topo, rec, 0, names, &mut IngestStats::default()) {
                Ok(row) => row.utc(),
                Err(_) => newest.unwrap_or(Timestamp(i64::MIN)),
            };
            newest = newest.max(Some(at));
            unseen.insert(at);
        }
        assert_eq!(db.seen, want);
    }

    /// A router the inventory does not list sends an SNMP sample every
    /// hourly cycle for a week, beside one sample from every router it does
    /// list, with history aged out 12 hours behind. Each reject ages out
    /// with its cycle's rows, so once the first window has passed the
    /// fingerprint map holds the same number of entries every cycle. The
    /// first cycle's reject, re-delivered at the end, is quarantined and
    /// counted again; the last cycle's, still in the window, is a duplicate.
    #[test]
    fn a_persistent_reject_does_not_grow_seen() {
        const CYCLES: i64 = 7 * 24;
        const WINDOW: i64 = 12;
        let topo = generate(&TopoGenConfig::small());
        let start = Timestamp::from_civil(2010, 1, 1, 0, 0, 0);
        let sample = |system: &str, cycle: i64| {
            RawRecord::Snmp(SnmpSample {
                system: system.into(),
                local_time: TimeZone::US_EASTERN.to_local(start + Duration::hours(cycle)),
                metric: SnmpMetric::CpuUtil5m,
                if_index: None,
                value: 42.0,
            })
        };
        let mut db = Database::default();
        let mut stats = IngestStats::default();
        let mut held = Vec::new();
        for cycle in 0..CYCLES {
            let mut batch: Vec<RawRecord> = (topo.routers.iter())
                .map(|r| sample(&r.snmp_name(), cycle))
                .collect();
            batch.push(sample("GHOST.ISP.NET", cycle));
            db.ingest_more(&topo, &batch, &mut stats);
            db.retain_before(start + Duration::hours(cycle - WINDOW));
            held.push(db.export_seen().len());
        }
        assert_eq!(stats.total_quarantined(), CYCLES as usize);
        assert_eq!(stats.total_accepted(), CYCLES as usize * topo.routers.len());
        let steady = (WINDOW as usize + 1) * (topo.routers.len() + 1);
        assert!(
            held[WINDOW as usize..].iter().all(|&n| n == steady),
            "{held:?}"
        );

        let redelivered = [
            sample("GHOST.ISP.NET", 0),
            sample("GHOST.ISP.NET", CYCLES - 1),
        ];
        db.ingest_more(&topo, &redelivered, &mut stats);
        assert_eq!(stats.total_quarantined(), CYCLES as usize + 1);
        assert_eq!(stats.total_deduplicated(), 1);
        assert_eq!(db.quarantine.len(), CYCLES as usize + 1);
    }

    /// The ingest-epoch fingerprint moves on every real state change and
    /// stays put when a batch is fully deduplicated — the contract the
    /// serving publisher relies on to skip no-op republishes.
    #[test]
    fn ingest_epoch_tracks_state_changes() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(2, 3, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let mut db = Database::default();
        let mut stats = IngestStats::default();
        let e0 = db.ingest_epoch();
        assert_eq!(e0, Database::default().ingest_epoch());
        let half = out.records.len() / 2;
        db.ingest_more(&topo, &out.records[..half], &mut stats);
        let e1 = db.ingest_epoch();
        assert_ne!(e0, e1);
        // Replaying the same batch is fully deduplicated: no state
        // change, so the epoch must not move.
        db.ingest_more(&topo, &out.records[..half], &mut stats);
        assert_eq!(db.ingest_epoch(), e1);
        db.ingest_more(&topo, &out.records[half..], &mut stats);
        let e2 = db.ingest_epoch();
        assert_ne!(e2, e1);
        // Aging out history is a state change too.
        let mid = db.feed_watermarks()[0].1.unwrap();
        db.retain_before(mid);
        assert_ne!(db.ingest_epoch(), e2);
    }

    /// 9000 SNMP samples from one router, five minutes apart: more than
    /// two default segments' worth of rows in one table.
    fn snmp_burst(topo: &Topology) -> Vec<RawRecord> {
        let name = topo.routers[0].name.to_uppercase() + ".ISP.NET";
        (0..9000)
            .map(|k| {
                RawRecord::Snmp(SnmpSample {
                    system: name.as_str().into(),
                    local_time: Timestamp::from_civil(2010, 1, 1, 0, 0, 0) + Duration::mins(5 * k),
                    metric: SnmpMetric::CpuUtil5m,
                    if_index: None,
                    value: 42.0,
                })
            })
            .collect()
    }

    /// A batch database never seals: `Table::default()`'s `segment_rows`
    /// of `usize::MAX` keeps every row in the flat tail (and, in a debug
    /// build, would panic if the seal loop's arithmetic overflowed on it).
    /// The same rows under the default storage config do seal.
    #[test]
    fn default_database_never_seals() {
        let topo = generate(&TopoGenConfig::small());
        let recs = snmp_burst(&topo);
        assert!(recs.len() > 2 * StorageConfig::default().segment_rows);
        let (db, stats) = Database::ingest(&topo, &recs);
        assert_eq!(stats.total_accepted(), recs.len(), "{}", stats.render());
        let st = db.storage_stats().unwrap();
        assert_eq!(st.sealed_segments, 0);
        assert_eq!(st.tail_rows, recs.len());
        let mut sealing = Database::with_storage(&StorageConfig::default());
        sealing.ingest_more(&topo, &recs, &mut IngestStats::default());
        assert!(sealing.storage_stats().unwrap().sealed_segments >= 1);
        assert!(sealing == db, "sealing must not change a query");
    }

    /// Only a database whose tables spill to disk can list segment files
    /// for a checkpoint manifest; a default one refuses, empty or not.
    #[test]
    fn segment_manifests_need_spill_mode() {
        let topo = generate(&TopoGenConfig::small());
        let mut db = Database::default();
        assert!(db.segment_manifests().is_none());
        db.ingest_more(&topo, &snmp_burst(&topo), &mut IngestStats::default());
        assert!(db.segment_manifests().is_none());
    }
}
