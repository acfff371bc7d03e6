//! Columnar segment codec: the compact encoded form sealed segments keep
//! in memory (or on disk) between queries.
//!
//! The paper's deployment kept months of feed history online (§II-A); at
//! that horizon the collector cannot afford one resident `Vec<Row>` per
//! feed. A sealed segment stores its rows column-wise in a byte blob:
//!
//! * **timestamps** are zigzag **delta-encoded** varints — rows are
//!   time-sorted, so consecutive deltas are tiny (one or two bytes for
//!   second-scale cadences);
//! * **strings** (syslog bodies, workflow activities, TACACS commands)
//!   are **interned** into a per-segment dictionary; repeated message
//!   bodies — the common case for periodic telemetry — cost one varint
//!   per occurrence;
//! * numeric ids are varints; measurements are raw `f64` bits (bit-exact
//!   round-trips, so decoded rows compare identically);
//! * each row's `fp` (its canonical tiebreak) is a raw `u64`, so decoded
//!   rows merge in a reseal exactly as ingest ordered them. Version 2 added
//!   it; a version-1 blob lacks it and is refused, not decoded.
//!
//! Decoding a segment rebuilds the exact rows plus the timestamp column
//! `FlatTable::finalize` would build, as a [`DecodedSeg`]; the per-entity
//! offset index is derived from the rows on the first per-entity lookup.
//! Encode→decode is the identity on the row vector — the differential
//! proptests pin that.

use crate::rows::{
    BgpRow, CdnRow, EntityIndex, L1Row, OspfRow, PerfRow, Row, ServerRow, SnmpRow, SyslogRow,
    TacacsRow, WorkflowRow,
};
use grca_net_model::{
    CdnNodeId, ClientSiteId, InterfaceId, L1DeviceId, LinkId, PhysLinkId, Prefix, RouterId,
};
use grca_telemetry::records::{L1EventKind, PerfMetric, SnmpMetric};
use grca_telemetry::syslog::parse_syslog_message;
use grca_types::Timestamp;

/// A row type a [`crate::Table`] can hold: queryable ([`Row`]) plus a
/// columnar encoding for sealed segments.
///
/// Implementations must round-trip exactly: `decode_cols(encode_cols(r))
/// == r` for every row the collector can produce — decoded rows must keep
/// their `tiebreak` and compare equal to the originals, or the
/// differential guarantees of sealed storage collapse.
pub trait StoredRow: Row + Clone {
    /// Append every non-timestamp column of `rows` to the writer.
    fn encode_cols(rows: &[Self], w: &mut SegWriter);

    /// Decode `times.len()` rows; `times` is the already-decoded
    /// timestamp column (shared across row types by the segment layer).
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self>;

    /// Estimated heap bytes owned by one row beyond `size_of::<Self>()`
    /// (string payloads). Used for memory accounting only.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Column buffer + string dictionary for one segment being sealed.
#[derive(Debug, Default)]
pub struct SegWriter {
    cols: Vec<u8>,
    dict: Vec<String>,
    dict_ix: std::collections::HashMap<String, u32>,
}

impl SegWriter {
    /// LEB128 unsigned varint.
    pub fn varu(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.cols.push(b);
                break;
            }
            self.cols.push(b | 0x80);
        }
    }

    /// Zigzag-mapped signed varint.
    pub fn vari(&mut self, v: i64) {
        self.varu(((v << 1) ^ (v >> 63)) as u64);
    }

    pub fn byte(&mut self, b: u8) {
        self.cols.push(b);
    }

    /// Raw little-endian bytes: a value with no small range to exploit.
    pub fn u64(&mut self, v: u64) {
        self.cols.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw `f64` bits (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `None` → 0, `Some(v)` → v+1 (ids are small, the +1 is one varint
    /// byte at worst).
    pub fn opt_varu(&mut self, v: Option<u64>) {
        match v {
            None => self.varu(0),
            Some(v) => self.varu(v + 1),
        }
    }

    /// Intern `s` in the segment dictionary and write its id.
    pub fn str_ref(&mut self, s: &str) {
        let id = match self.dict_ix.get(s) {
            Some(&id) => id,
            None => {
                let id = self.dict.len() as u32;
                self.dict.push(s.to_string());
                self.dict_ix.insert(s.to_string(), id);
                id
            }
        };
        self.varu(id as u64);
    }
}

/// Cursor over one segment's encoded bytes.
#[derive(Debug)]
pub struct SegReader<'a> {
    buf: &'a [u8],
    pos: usize,
    dict: Vec<String>,
}

impl<'a> SegReader<'a> {
    pub fn varu(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.buf[self.pos];
            self.pos += 1;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    pub fn vari(&mut self) -> i64 {
        let v = self.varu();
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    pub fn byte(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    pub fn u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(raw)
    }

    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    pub fn opt_varu(&mut self) -> Option<u64> {
        match self.varu() {
            0 => None,
            v => Some(v - 1),
        }
    }

    pub fn str_ref(&mut self) -> String {
        let id = self.varu() as usize;
        self.dict[id].clone()
    }
}

/// Always-resident zone map of one sealed segment: enough to answer
/// "can this segment contain anything the query wants?" without decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta<E> {
    /// Row count.
    pub rows: usize,
    /// Canonical `(time, tiebreak)` key of the first row.
    pub min_key: (Timestamp, u64),
    /// Canonical key of the last row.
    pub max_key: (Timestamp, u64),
    /// Sorted, deduplicated entity set — the entity zone map. Per-entity
    /// queries binary-search it and skip segments that cannot match.
    pub entities: Vec<E>,
}

impl<E> SegmentMeta<E> {
    pub fn min_time(&self) -> Timestamp {
        self.min_key.0
    }
    pub fn max_time(&self) -> Timestamp {
        self.max_key.0
    }
}

/// One decoded (hot) segment: the exact rows plus the same derived
/// indexes a finalized [`crate::tables::FlatTable`] keeps.
#[derive(Debug)]
pub struct DecodedSeg<R: Row> {
    pub rows: Vec<R>,
    /// Timestamp column aligned with `rows`.
    pub times: Vec<Timestamp>,
    /// Built on the first [`DecodedSeg::offsets_of`]: full scans, reseals
    /// and extraction's one collect per sealed run never read it.
    groups: EntityIndex<R::Entity>,
}

impl<R: Row> DecodedSeg<R> {
    /// One entity's ascending offsets into `rows` (empty if unseen).
    pub fn offsets_of(&self, entity: &R::Entity) -> &[u32] {
        self.groups.offsets_of(&self.rows, entity)
    }
}

impl<R: StoredRow> DecodedSeg<R> {
    /// A rowless segment — what a quarantined (torn) blob decodes to.
    pub(crate) fn empty() -> Self {
        Self::from_rows(Vec::new())
    }

    fn from_rows(rows: Vec<R>) -> Self {
        let times: Vec<Timestamp> = rows.iter().map(|r| r.time()).collect();
        DecodedSeg {
            rows,
            times,
            groups: EntityIndex::default(),
        }
    }

    /// Estimated resident bytes of the decoded form (memory accounting);
    /// the per-entity index counts once a lookup has built it.
    pub fn approx_bytes(&self) -> usize {
        let rows: usize = self.rows.len() * std::mem::size_of::<R>()
            + self.rows.iter().map(StoredRow::heap_bytes).sum::<usize>();
        let times = self.times.len() * std::mem::size_of::<Timestamp>();
        rows + times + self.groups.approx_bytes()
    }
}

const SEG_VERSION: u8 = 2;

/// The zone map of `rows` (canonical order, non-empty).
pub(crate) fn zone_map<R: StoredRow>(rows: &[R]) -> SegmentMeta<R::Entity> {
    let mut entities: Vec<R::Entity> = rows.iter().map(Row::entity).collect();
    entities.sort_unstable();
    entities.dedup();
    SegmentMeta {
        rows: rows.len(),
        min_key: rows[0].key(),
        max_key: rows[rows.len() - 1].key(),
        entities,
    }
}

/// Seal `rows` (already in canonical order) into a zone map + encoded
/// blob. Layout: `[version][n][delta-encoded times][dictionary][columns]`.
pub fn encode_segment<R: StoredRow>(rows: &[R]) -> (SegmentMeta<R::Entity>, Vec<u8>) {
    debug_assert!(!rows.is_empty(), "sealing an empty segment");
    let mut w = SegWriter::default();
    R::encode_cols(rows, &mut w);
    let meta = zone_map(rows);

    let mut blob = Vec::with_capacity(w.cols.len() / 2);
    blob.push(SEG_VERSION);
    let mut head = SegWriter::default();
    head.varu(rows.len() as u64);
    let mut prev = 0i64;
    for row in rows {
        let t = row.time().0;
        head.vari(t - prev);
        prev = t;
    }
    head.varu(w.dict.len() as u64);
    for s in &w.dict {
        head.varu(s.len() as u64);
        head.cols.extend_from_slice(s.as_bytes());
    }
    blob.extend_from_slice(&head.cols);
    blob.extend_from_slice(&w.cols);
    (meta, blob)
}

/// Decode a sealed blob back into rows + derived indexes. Inverse of
/// [`encode_segment`]. Panics on a malformed blob — use
/// [`try_decode_segment`] for bytes that crossed a crash boundary.
pub fn decode_segment<R: StoredRow>(blob: &[u8]) -> DecodedSeg<R> {
    try_decode_segment(blob).expect("decode sealed segment blob")
}

/// Fallible [`decode_segment`]: structural problems a checksum cannot
/// rule out (version skew, non-UTF-8 dictionary bytes, truncation) come
/// back as `Err` instead of a panic. Callers on the durability path pair
/// this with frame checksum verification ([`crate::durable::unframe`]),
/// which catches arbitrary torn/bit-flipped bytes before decoding.
pub fn try_decode_segment<R: StoredRow>(blob: &[u8]) -> Result<DecodedSeg<R>, String> {
    match blob.first() {
        None => return Err("empty segment blob".to_string()),
        Some(&v) if v != SEG_VERSION => return Err(format!("unknown segment version {v}")),
        Some(_) => {}
    }
    let mut r = SegReader {
        buf: blob,
        pos: 1,
        dict: Vec::new(),
    };
    let n = r.varu() as usize;
    let mut times = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev += r.vari();
        times.push(Timestamp(prev));
    }
    let n_dict = r.varu() as usize;
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        let len = r.varu() as usize;
        let Some(bytes) = r.buf.get(r.pos..r.pos + len) else {
            return Err("segment dictionary truncated".to_string());
        };
        let s = std::str::from_utf8(bytes)
            .map_err(|_| "segment dictionary is not valid utf-8".to_string())?
            .to_string();
        r.pos += len;
        dict.push(s);
    }
    r.dict = dict;
    let rows = R::decode_cols(&times, &mut r);
    debug_assert_eq!(rows.len(), n);
    Ok(DecodedSeg::from_rows(rows))
}

fn snmp_metric_from(b: u8) -> SnmpMetric {
    match b {
        0 => SnmpMetric::CpuUtil5m,
        1 => SnmpMetric::LinkUtil5m,
        _ => SnmpMetric::OverflowPkts5m,
    }
}

fn l1_kind_from(b: u8) -> L1EventKind {
    match b {
        0 => L1EventKind::MeshRegularRestoration,
        1 => L1EventKind::MeshFastRestoration,
        _ => L1EventKind::SonetRestoration,
    }
}

fn perf_metric_from(b: u8) -> PerfMetric {
    match b {
        0 => PerfMetric::DelayMs,
        1 => PerfMetric::LossPct,
        _ => PerfMetric::ThroughputMbps,
    }
}

impl StoredRow for SyslogRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.router.0 as u64);
            w.str_ref(&r.raw);
        }
    }
    // `event` is not stored: it is a pure function of `raw` (the same
    // parse ingestion ran), so decode re-derives it byte-identically.
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| {
                let fp = r.u64();
                let router = RouterId(r.varu() as u32);
                let raw = r.str_ref();
                let event = parse_syslog_message(&raw).ok();
                SyslogRow {
                    utc,
                    fp,
                    router,
                    event,
                    raw,
                }
            })
            .collect()
    }
    fn heap_bytes(&self) -> usize {
        self.raw.capacity()
    }
}

impl StoredRow for SnmpRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.router.0 as u64);
            w.byte(r.metric as u8);
            w.opt_varu(r.iface.map(|i| i.0 as u64));
            w.f64(r.value);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| SnmpRow {
                utc,
                fp: r.u64(),
                router: RouterId(r.varu() as u32),
                metric: snmp_metric_from(r.byte()),
                iface: r.opt_varu().map(|i| InterfaceId(i as u32)),
                value: r.f64(),
            })
            .collect()
    }
}

impl StoredRow for L1Row {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.device.0 as u64);
            w.byte(r.kind as u8);
            w.varu(r.circuit.0 as u64);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| L1Row {
                utc,
                fp: r.u64(),
                device: L1DeviceId(r.varu() as u32),
                kind: l1_kind_from(r.byte()),
                circuit: PhysLinkId(r.varu() as u32),
            })
            .collect()
    }
}

impl StoredRow for OspfRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.link.0 as u64);
            w.opt_varu(r.weight.map(u64::from));
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| OspfRow {
                utc,
                fp: r.u64(),
                link: LinkId(r.varu() as u32),
                weight: r.opt_varu().map(|v| v as u32),
            })
            .collect()
    }
}

impl StoredRow for BgpRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.str_ref(&r.reflector);
            w.varu(r.prefix.bits as u64);
            w.byte(r.prefix.len);
            w.varu(r.egress.0 as u64);
            match r.attrs {
                None => w.byte(0),
                Some((a, b)) => {
                    w.byte(1);
                    w.varu(a as u64);
                    w.varu(b as u64);
                }
            }
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| {
                let fp = r.u64();
                let reflector = r.str_ref();
                let bits = r.varu() as u32;
                let len = r.byte();
                let egress = RouterId(r.varu() as u32);
                let attrs = match r.byte() {
                    0 => None,
                    _ => Some((r.varu() as u32, r.varu() as u32)),
                };
                BgpRow {
                    utc,
                    fp,
                    reflector,
                    prefix: Prefix { bits, len },
                    egress,
                    attrs,
                }
            })
            .collect()
    }
    fn heap_bytes(&self) -> usize {
        self.reflector.capacity()
    }
}

impl StoredRow for TacacsRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.router.0 as u64);
            w.str_ref(&r.user);
            w.str_ref(&r.command);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| TacacsRow {
                utc,
                fp: r.u64(),
                router: RouterId(r.varu() as u32),
                user: r.str_ref(),
                command: r.str_ref(),
            })
            .collect()
    }
    fn heap_bytes(&self) -> usize {
        self.user.capacity() + self.command.capacity()
    }
}

impl StoredRow for WorkflowRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.str_ref(&r.entity);
            w.opt_varu(r.router.map(|x| x.0 as u64));
            w.str_ref(&r.activity);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| WorkflowRow {
                utc,
                fp: r.u64(),
                entity: r.str_ref(),
                router: r.opt_varu().map(|v| RouterId(v as u32)),
                activity: r.str_ref(),
            })
            .collect()
    }
    fn heap_bytes(&self) -> usize {
        self.entity.capacity() + self.activity.capacity()
    }
}

impl StoredRow for PerfRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.ingress.0 as u64);
            w.varu(r.egress.0 as u64);
            w.byte(r.metric as u8);
            w.f64(r.value);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| PerfRow {
                utc,
                fp: r.u64(),
                ingress: RouterId(r.varu() as u32),
                egress: RouterId(r.varu() as u32),
                metric: perf_metric_from(r.byte()),
                value: r.f64(),
            })
            .collect()
    }
}

impl StoredRow for CdnRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.node.0 as u64);
            w.varu(r.client.0 as u64);
            w.f64(r.rtt_ms);
            w.f64(r.throughput_mbps);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| CdnRow {
                utc,
                fp: r.u64(),
                node: CdnNodeId(r.varu() as u32),
                client: ClientSiteId(r.varu() as u32),
                rtt_ms: r.f64(),
                throughput_mbps: r.f64(),
            })
            .collect()
    }
}

impl StoredRow for ServerRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.u64(r.fp);
            w.varu(r.node.0 as u64);
            w.f64(r.load);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&utc| ServerRow {
                utc,
                fp: r.u64(),
                node: CdnNodeId(r.varu() as u32),
                load: r.f64(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut w = SegWriter::default();
        let us = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let is = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &us {
            w.varu(v);
        }
        for &v in &is {
            w.vari(v);
        }
        let mut r = SegReader {
            buf: &w.cols,
            pos: 0,
            dict: Vec::new(),
        };
        for &v in &us {
            assert_eq!(r.varu(), v);
        }
        for &v in &is {
            assert_eq!(r.vari(), v);
        }
    }

    #[test]
    fn rows_round_trip_exactly() {
        let rows: Vec<SnmpRow> = (0..500)
            .map(|i| SnmpRow {
                utc: Timestamp(1_000_000 + i * 300),
                fp: (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                router: RouterId((i % 7) as u32),
                metric: snmp_metric_from((i % 3) as u8),
                iface: if i % 2 == 0 {
                    Some(InterfaceId((i % 11) as u32))
                } else {
                    None
                },
                value: i as f64 * 0.7,
            })
            .collect();
        let (meta, blob) = encode_segment(&rows);
        assert_eq!(meta.rows, rows.len());
        assert_eq!(meta.min_time(), rows[0].utc);
        assert_eq!(meta.max_time(), rows.last().unwrap().utc);
        // Entity zone map is sorted and deduplicated.
        assert!(meta.entities.windows(2).all(|p| p[0] < p[1]));
        let dec = decode_segment::<SnmpRow>(&blob);
        assert_eq!(dec.rows, rows);
        assert_eq!(dec.times.len(), rows.len());
        // The encoded form is much smaller than the struct form. The
        // fingerprint is 8 incompressible bytes a row in both forms; the
        // rest encodes to under half.
        let fps = rows.len() * 8;
        assert!(blob.len() - fps < (rows.len() * std::mem::size_of::<SnmpRow>() - fps) / 2);
        // The per-entity index costs nothing until a lookup asks for it,
        // then answers exactly what a scan of the rows would.
        let scan_only = dec.approx_bytes();
        let entity = rows[0].entity();
        let want: Vec<u32> = (0..rows.len() as u32)
            .filter(|&i| rows[i as usize].entity() == entity)
            .collect();
        assert_eq!(dec.offsets_of(&entity), want.as_slice());
        assert!(dec.offsets_of(&(RouterId(99), None)).is_empty());
        assert!(dec.approx_bytes() > scan_only);
    }

    #[test]
    fn dictionary_interns_repeated_strings() {
        let rows: Vec<TacacsRow> = (0..200)
            .map(|i| TacacsRow {
                utc: Timestamp(i),
                fp: i as u64,
                router: RouterId(0),
                user: "oper".to_string(),
                command: format!("show run {}", i % 4),
            })
            .collect();
        let (_, blob) = encode_segment(&rows);
        let dec = decode_segment::<TacacsRow>(&blob);
        assert_eq!(dec.rows, rows);
        // 1 user + 4 commands, stored once each: past the 8-byte
        // fingerprint, the blob is dominated by per-row varints (time delta,
        // router, two dict refs ≈ 4 bytes/row), well below the repeated raw
        // text.
        let raw_text: usize = rows.iter().map(|r| r.user.len() + r.command.len()).sum();
        assert!(
            blob.len() - rows.len() * 8 < raw_text / 3,
            "blob {} raw {}",
            blob.len(),
            raw_text
        );
    }
}
