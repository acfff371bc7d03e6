//! Normalized row types — the schema of the collector's database tables.
//!
//! Everything here is canonical: UTC timestamps, topology entity ids
//! instead of per-source naming. One row type per feed; rows retain enough
//! raw detail (e.g. unparsed syslog text) for the Result Browser's
//! drill-down and for blind correlation screening over message types.

use grca_net_model::{
    CdnNodeId, ClientSiteId, InterfaceId, L1DeviceId, LinkId, PhysLinkId, Prefix, RouterId,
};
use grca_telemetry::records::{L1EventKind, PerfMetric, SnmpMetric};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Symbol, Timestamp};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Every normalized row exposes its UTC instant (tables sort on it) and
/// the entity it belongs to (tables group on it — see
/// [`crate::tables::Table::groups`]).
///
/// The entity is the key extraction naturally series-es the feed by: the
/// sampled device/pair for telemetry feeds, the emitting element for
/// logs. `Entity` ordering (via `Ord`) fixes the deterministic group
/// order of per-entity extraction passes.
pub trait Row {
    /// Grouping key; `Ord` fixes deterministic group iteration order.
    type Entity: Ord + Copy;

    fn time(&self) -> Timestamp;
    fn entity(&self) -> Self::Entity;

    /// Content hash breaking ties between same-instant rows, so a table's
    /// final order is canonical — a pure function of its row *set*, not of
    /// delivery order. Chaos-reordered feeds then converge to the exact
    /// batch database. `0` (the default) keeps arrival order for ties.
    fn tiebreak(&self) -> u64 {
        0
    }
}

/// Entity → ascending offsets into one canonical row slice: the crate's one
/// per-entity index, held by the flat table (and so the segmented tail) and
/// by every decoded segment. Built by the first lookup and dropped by
/// whatever moves the rows; ingest, scans, sealing and retention never read
/// it, and at thousands of entities it costs more than the sort it follows.
#[derive(Debug, Clone)]
pub(crate) struct EntityIndex<E>(OnceLock<BTreeMap<E, Vec<u32>>>);

impl<E> Default for EntityIndex<E> {
    fn default() -> Self {
        EntityIndex(OnceLock::new())
    }
}

impl<E: Ord + Copy> EntityIndex<E> {
    /// The index over `rows` — the slice this index is held beside.
    pub(crate) fn of<R: Row<Entity = E>>(&self, rows: &[R]) -> &BTreeMap<E, Vec<u32>> {
        self.0.get_or_init(|| {
            let mut groups: BTreeMap<E, Vec<u32>> = BTreeMap::new();
            for (i, row) in rows.iter().enumerate() {
                groups.entry(row.entity()).or_default().push(i as u32);
            }
            groups
        })
    }

    /// One entity's ascending offsets into `rows` (empty if unseen).
    pub(crate) fn offsets_of<R: Row<Entity = E>>(&self, rows: &[R], entity: &E) -> &[u32] {
        self.of(rows).get(entity).map_or(&[], Vec::as_slice)
    }

    /// Forget the index: the rows it described moved.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }

    /// Estimated resident bytes — nothing until a lookup has built it.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.0.get().map_or(0, |g| {
            g.values()
                .map(|v| v.len() * 4 + std::mem::size_of::<(E, Vec<u32>)>())
                .sum()
        })
    }
}

/// Deterministic content hash over row fields. `DefaultHasher::new()` uses
/// fixed keys, so the value — and with it canonical table order — is
/// stable across runs and processes.
fn content_hash(f: impl FnOnce(&mut std::collections::hash_map::DefaultHasher)) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    f(&mut h);
    h.finish()
}

macro_rules! impl_row {
    ($t:ty, $entity:ty, |$row:ident| $key:expr, |$hrow:ident, $h:ident| $hash:expr) => {
        impl Row for $t {
            type Entity = $entity;
            fn time(&self) -> Timestamp {
                self.utc
            }
            fn entity(&self) -> $entity {
                let $row = self;
                $key
            }
            fn tiebreak(&self) -> u64 {
                use std::hash::Hash;
                let $hrow = self;
                content_hash(|$h| $hash)
            }
        }
    };
}

/// One syslog message, time-normalized and host-resolved. `event` is the
/// parsed form when the message matches the known catalog; the raw body is
/// always retained.
#[derive(Debug, Clone, PartialEq)]
pub struct SyslogRow {
    pub utc: Timestamp,
    pub router: RouterId,
    pub event: Option<SyslogEvent>,
    /// The message body (everything after the timestamp).
    pub raw: String,
}
impl_row!(SyslogRow, RouterId, |r| r.router, |r, h| {
    r.router.hash(h);
    r.raw.hash(h);
});

impl SyslogRow {
    /// The message mnemonic (`"%LINK-3-UPDOWN"`), used as the series key in
    /// blind correlation screening.
    pub fn mnemonic(&self) -> &str {
        self.raw.split(':').next().unwrap_or("").trim()
    }
}

/// One SNMP sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SnmpRow {
    pub utc: Timestamp,
    pub router: RouterId,
    pub metric: SnmpMetric,
    pub iface: Option<InterfaceId>,
    pub value: f64,
}
impl_row!(
    SnmpRow,
    (RouterId, Option<InterfaceId>),
    |r| (r.router, r.iface),
    |r, h| {
        r.router.hash(h);
        (r.metric as u8).hash(h);
        r.iface.hash(h);
        r.value.to_bits().hash(h);
    }
);

/// One layer-1 device log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Row {
    pub utc: Timestamp,
    pub device: L1DeviceId,
    pub kind: L1EventKind,
    pub circuit: PhysLinkId,
}
impl_row!(L1Row, L1DeviceId, |r| r.device, |r, h| {
    r.device.hash(h);
    (r.kind as u8).hash(h);
    r.circuit.hash(h);
});

/// One OSPF monitor observation, resolved to a logical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OspfRow {
    pub utc: Timestamp,
    pub link: LinkId,
    pub weight: Option<u32>,
}
impl_row!(OspfRow, LinkId, |r| r.link, |r, h| {
    r.link.hash(h);
    r.weight.hash(h);
});

/// One BGP monitor update.
#[derive(Debug, Clone, PartialEq)]
pub struct BgpRow {
    pub utc: Timestamp,
    pub reflector: String,
    pub prefix: Prefix,
    pub egress: RouterId,
    pub attrs: Option<(u32, u32)>,
}
impl_row!(BgpRow, Prefix, |r| r.prefix, |r, h| {
    r.reflector.hash(h);
    r.prefix.hash(h);
    r.egress.hash(h);
    r.attrs.hash(h);
});

/// One TACACS command log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TacacsRow {
    pub utc: Timestamp,
    pub router: RouterId,
    pub user: String,
    pub command: String,
}
impl_row!(TacacsRow, RouterId, |r| r.router, |r, h| {
    r.router.hash(h);
    r.user.hash(h);
    r.command.hash(h);
});

/// One workflow activity record. The entity may be a router or another
/// managed system (e.g. a CDN node), so both forms are kept.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRow {
    pub utc: Timestamp,
    pub entity: String,
    pub router: Option<RouterId>,
    pub activity: String,
}
impl_row!(WorkflowRow, Symbol, |r| Symbol::from(&r.entity), |r, h| {
    r.entity.hash(h);
    r.router.hash(h);
    r.activity.hash(h);
});

/// One end-to-end probe measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    pub utc: Timestamp,
    pub ingress: RouterId,
    pub egress: RouterId,
    pub metric: PerfMetric,
    pub value: f64,
}
impl_row!(
    PerfRow,
    (RouterId, RouterId),
    |r| (r.ingress, r.egress),
    |r, h| {
        r.ingress.hash(h);
        r.egress.hash(h);
        (r.metric as u8).hash(h);
        r.value.to_bits().hash(h);
    }
);

/// One CDN monitor measurement, resolved to (node, client site).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnRow {
    pub utc: Timestamp,
    pub node: CdnNodeId,
    pub client: ClientSiteId,
    pub rtt_ms: f64,
    pub throughput_mbps: f64,
}
impl_row!(
    CdnRow,
    (CdnNodeId, ClientSiteId),
    |r| (r.node, r.client),
    |r, h| {
        r.node.hash(h);
        r.client.hash(h);
        r.rtt_ms.to_bits().hash(h);
        r.throughput_mbps.to_bits().hash(h);
    }
);

/// One CDN server-farm load sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerRow {
    pub utc: Timestamp,
    pub node: CdnNodeId,
    pub load: f64,
}
impl_row!(ServerRow, CdnNodeId, |r| r.node, |r, h| {
    r.node.hash(h);
    r.load.to_bits().hash(h);
});
