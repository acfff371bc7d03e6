//! The static structure of the modeled ISP network.
//!
//! Entities are stored arena-style in flat vectors inside [`Topology`] and
//! referenced by the dense typed ids from [`crate::ids`]. Lookup maps cover
//! every naming convention the raw telemetry uses, so the Data Collector can
//! resolve a syslog hostname + interface name, an SNMP system name +
//! ifIndex, or a layer-1 circuit id back to canonical entities. The
//! configuration-derived reverse associations the spatial model's
//! conversions walk (loopback → router, circuit → logical links, layer-1
//! device → circuits) are kept here too, filled as entities are added, so
//! a [`crate::SpatialModel`] is a pair of references.
//!
//! The model deliberately stops at the ISP boundary: customer routers and
//! neighboring ISPs exist only as neighbor IPs / external prefixes, exactly
//! the visibility a provider has (the paper's BGP-flap study calls
//! cross-trust-domain diagnosis "a particularly challenging problem").

use crate::ids::*;
use crate::ip::{Ipv4, Prefix};
use grca_types::{FxBuild, TimeZone};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

/// A point of presence: a city site housing routers and layer-1 gear.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pop {
    /// Short city code, e.g. `"nyc"`.
    pub name: String,
    /// The device-local time zone used by equipment at this site.
    pub tz: TimeZone,
    /// OSPF area this PoP's routers live in. Area 0 is the backbone; the
    /// generator groups consecutive PoPs into non-backbone areas whose core
    /// routers double as ABRs. Defaults to 0 for topologies predating
    /// area assignment.
    #[serde(default)]
    pub area: u32,
}

/// The role a router plays in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterRole {
    /// Backbone core router.
    Core,
    /// Provider edge router terminating customer attachments.
    ProviderEdge,
    /// BGP route reflector (control-plane only).
    RouteReflector,
}

/// A router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Router {
    /// Canonical lowercase name, e.g. `"nyc-per3"`.
    pub name: String,
    pub role: RouterRole,
    pub pop: PopId,
    /// Loopback address (stable router identifier in routing protocols).
    pub loopback: Ipv4,
    /// Line cards installed, in slot order.
    pub cards: Vec<LineCardId>,
}

impl Router {
    /// The name this router reports through SNMP — uppercase and
    /// domain-qualified, one of the naming mismatches the collector
    /// normalizes away.
    pub fn snmp_name(&self) -> String {
        format!("{}.ISP.NET", self.name.to_uppercase())
    }
}

/// A line card in a router slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineCard {
    pub router: RouterId,
    /// Slot number within the chassis.
    pub slot: u8,
    /// Interfaces on this card, in port order.
    pub interfaces: Vec<InterfaceId>,
}

/// What an interface connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterfaceKind {
    /// Connects two backbone routers (core–core or PE-uplink–core).
    Backbone,
    /// Faces a customer router; carries an eBGP session.
    CustomerFacing { customer: CustomerId },
    /// Faces a neighboring ISP (settlement peering).
    Peering,
}

/// A router interface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Interface {
    pub router: RouterId,
    pub card: LineCardId,
    /// Port on the card.
    pub port: u8,
    /// Name as it appears in this router's syslog, e.g. `"Serial3/0/0"`.
    pub name: String,
    /// Interface address if numbered (`/30` convention on backbone links).
    pub ip: Option<Ipv4>,
    pub kind: InterfaceKind,
    /// SNMP ifIndex — how SNMP data refers to this interface.
    pub if_index: u32,
    /// For customer-facing interfaces: the layer-1 access circuit carrying
    /// the attachment toward the customer site (backbone interfaces carry
    /// their circuits on the logical link instead).
    pub access_circuit: Option<PhysLinkId>,
}

/// Which layer-1 technology carries a physical circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum L1Kind {
    /// SONET ring with Automatic Protection Switching.
    Sonet,
    /// Intelligent optical mesh (supports regular and fast restoration).
    OpticalMesh,
}

/// What a layer-1 device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum L1DeviceKind {
    /// SONET add-drop multiplexer.
    SonetAdm,
    /// Optical cross-connect in the mesh.
    OpticalSwitch,
}

/// A layer-1 transport device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct L1Device {
    /// Inventory name, e.g. `"adm-nyc-2"` or `"oxc-chi-1"`.
    pub name: String,
    pub kind: L1DeviceKind,
    pub pop: PopId,
}

/// A physical circuit. The layer-1 inventory database records which
/// layer-1 devices the circuit traverses (conversion utility 7, §II-B).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhysicalLink {
    /// Circuit id as the layer-1 systems know it, e.g. `"CKT-NYC-CHI-0042"`.
    pub circuit: String,
    pub kind: L1Kind,
    /// Layer-1 devices along the circuit, in order.
    pub l1_path: Vec<L1DeviceId>,
}

/// How multiple physical circuits under one logical link relate
/// (conversion utility 5 of §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// One circuit, no redundancy.
    Single,
    /// SONET Automatic Protection Switching: a standby circuit takes over
    /// on failure of the working one.
    ApsProtected,
    /// Multilink PPP bundle: all member circuits carry traffic; losing one
    /// halves capacity but keeps the link up.
    MlpppBundle,
}

/// A layer-3 point-to-point logical link between two interfaces.
///
/// A logical link may ride more than one physical circuit for redundancy or
/// capacity (SONET APS protection pairs, multilink PPP bundles) —
/// conversion utility 5 of §II-B.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogicalLink {
    pub a: InterfaceId,
    pub b: InterfaceId,
    /// Default OSPF weight (dynamic weight changes live in `grca-routing`).
    pub base_weight: u32,
    /// Physical circuits carrying this logical link.
    pub phys: Vec<PhysLinkId>,
    /// Link capacity in Mb/s (used by congestion modeling).
    pub capacity_mbps: u32,
    /// Relationship among the circuits in `phys`.
    pub aggregation: Aggregation,
}

/// A customer organisation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Customer {
    pub name: String,
    /// The customer's eBGP sessions (one per attached site).
    pub sessions: Vec<SessionId>,
}

/// One eBGP session between a customer router (outside the ISP) and a PE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EbgpSession {
    pub customer: CustomerId,
    /// The provider edge router terminating the session.
    pub pe: RouterId,
    /// The customer-facing interface on the PE.
    pub iface: InterfaceId,
    /// The customer router's address — all the ISP sees of the far end.
    pub neighbor_ip: Ipv4,
}

/// A multicast VPN: the PEs attaching one customer's sites maintain a full
/// mesh of PIM neighbor adjacencies with each other (§III-C).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mvpn {
    pub customer: CustomerId,
    /// Distinct PE routers participating (adjacency = every unordered pair).
    pub pes: Vec<RouterId>,
}

/// A CDN node: a data centre attached to the network at one PE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdnNode {
    pub name: String,
    pub pop: PopId,
    /// The router through which CDN traffic enters the backbone.
    pub attach_router: RouterId,
    /// Address block of the content servers.
    pub server_prefix: Prefix,
}

/// An external network (destination prefix) reachable via one or more
/// egress routers. Used both as generic Internet destinations (BGP egress
/// change events) and as CDN client sites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtNet {
    pub name: String,
    pub prefix: Prefix,
    /// Egress routers currently advertising reachability (BGP candidates).
    pub egress_candidates: Vec<RouterId>,
}

/// The complete static network structure plus lookup indices.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Topology {
    pub pops: Vec<Pop>,
    pub routers: Vec<Router>,
    pub cards: Vec<LineCard>,
    pub interfaces: Vec<Interface>,
    pub links: Vec<LogicalLink>,
    pub phys_links: Vec<PhysicalLink>,
    pub l1_devices: Vec<L1Device>,
    pub customers: Vec<Customer>,
    pub sessions: Vec<EbgpSession>,
    pub mvpns: Vec<Mvpn>,
    pub cdn_nodes: Vec<CdnNode>,
    pub ext_nets: Vec<ExtNet>,
    /// Route reflectors serving each PE (from router configuration).
    /// Serialized as an association list so JSON works.
    #[serde(with = "reflectors_serde")]
    pub reflectors_of: BTreeMap<RouterId, Vec<RouterId>>,

    // ---- lookup indices: derived data, rebuilt on deserialization ----
    // The name-keyed ones are hash maps looked up by `&str`; none is ever
    // iterated, so hash order reaches no output. The ones every ingested
    // record asks take the cheap hasher: their keys are this inventory's.
    #[serde(skip)]
    router_by_name: HashMap<String, RouterId, FxBuild>,
    /// Interface name → interface, one map per router (indexed by
    /// `RouterId`), so a lookup borrows the name.
    #[serde(skip)]
    iface_by_name: Vec<HashMap<String, InterfaceId>>,
    /// SNMP ifIndex → interface, one map per router like the names.
    #[serde(skip)]
    iface_by_ifindex: Vec<HashMap<u32, InterfaceId, FxBuild>>,
    #[serde(skip)]
    iface_by_ip: BTreeMap<Ipv4, InterfaceId>,
    #[serde(skip)]
    circuit_by_name: HashMap<String, PhysLinkId>,
    #[serde(skip)]
    l1dev_by_name: HashMap<String, L1DeviceId>,
    /// CDN node name → node; the first node of a name wins.
    #[serde(skip)]
    cdn_node_by_name: HashMap<String, CdnNodeId, FxBuild>,
    /// External nets bucketed by prefix length: length → network number
    /// ([`net_number`]) → net. Longest-prefix match walks the lengths
    /// present, longest first; the last net added with a given prefix wins.
    #[serde(skip)]
    ext_net_by_prefix: BTreeMap<u8, HashMap<u32, ClientSiteId, FxBuild>>,
    #[serde(skip)]
    session_by_neighbor: BTreeMap<(RouterId, Ipv4), SessionId>,
    #[serde(skip)]
    links_at_router: BTreeMap<RouterId, Vec<LinkId>>,
    /// Loopback address → router.
    #[serde(skip)]
    router_by_loopback: BTreeMap<Ipv4, RouterId>,
    /// Logical links riding each physical circuit (reverse of
    /// `link.phys`), ascending `LinkId`: the spatial model's expansion
    /// order, which reaches evidence order.
    #[serde(skip)]
    links_of_phys: BTreeMap<PhysLinkId, Vec<LinkId>>,
    /// Circuits traversing each layer-1 device (reverse of
    /// `phys.l1_path`), ascending `PhysLinkId`.
    #[serde(skip)]
    phys_of_l1: BTreeMap<L1DeviceId, Vec<PhysLinkId>>,
}

/// (De)serialize `reflectors_of` as `Vec<(RouterId, Vec<RouterId>)>` —
/// JSON maps require string keys.
mod reflectors_serde {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        m: &BTreeMap<RouterId, Vec<RouterId>>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let v: Vec<(&RouterId, &Vec<RouterId>)> = m.iter().collect();
        serde::Serialize::serialize(&v, s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<BTreeMap<RouterId, Vec<RouterId>>, D::Error> {
        let v: Vec<(RouterId, Vec<RouterId>)> = serde::Deserialize::deserialize(d)?;
        Ok(v.into_iter().collect())
    }
}

/// A one-to-many index's entry for `key`; empty when it has none.
fn members<K: Ord, V>(index: &BTreeMap<K, Vec<V>>, key: K) -> &[V] {
    index.get(&key).map(Vec::as_slice).unwrap_or(&[])
}

/// The `len` leading bits of `addr` as a number: a prefix's key among the
/// prefixes of its length. The host bits are shifted out, not masked, so
/// that neighbouring nets differ in their low bits — where the cheap
/// hasher needs its keys to differ.
fn net_number(addr: Ipv4, len: u8) -> u32 {
    addr.0
        .checked_shr(32u32.saturating_sub(len.into()))
        .unwrap_or(0)
}

/// Record `key → id` in `router`'s map of a per-router interface index,
/// growing the index to reach that router.
fn index_iface<K: Eq + Hash, S: BuildHasher + Default>(
    index: &mut Vec<HashMap<K, InterfaceId, S>>,
    router: RouterId,
    key: K,
    id: InterfaceId,
) {
    if index.len() <= router.index() {
        index.resize_with(router.index() + 1, HashMap::default);
    }
    index[router.index()].insert(key, id);
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    /// Rebuild every lookup index from the entity vectors. Indices are
    /// derived data and are skipped by serialization; call this after
    /// deserializing a topology.
    pub fn rebuild_indices(&mut self) {
        self.router_by_name.clear();
        self.router_by_loopback.clear();
        for (i, r) in self.routers.iter().enumerate() {
            let id = RouterId::from(i);
            self.router_by_name.insert(r.name.clone(), id);
            self.router_by_loopback.insert(r.loopback, id);
        }
        self.iface_by_name.clear();
        self.iface_by_ifindex.clear();
        self.iface_by_ip.clear();
        for (i, ifc) in self.interfaces.iter().enumerate() {
            let id = InterfaceId::from(i);
            index_iface(&mut self.iface_by_name, ifc.router, ifc.name.clone(), id);
            index_iface(&mut self.iface_by_ifindex, ifc.router, ifc.if_index, id);
            if let Some(ip) = ifc.ip {
                self.iface_by_ip.insert(ip, id);
            }
        }
        self.circuit_by_name.clear();
        self.phys_of_l1.clear();
        for (i, p) in self.phys_links.iter().enumerate() {
            let id = PhysLinkId::from(i);
            self.circuit_by_name.insert(p.circuit.clone(), id);
            for &d in &p.l1_path {
                self.phys_of_l1.entry(d).or_default().push(id);
            }
        }
        self.l1dev_by_name = self
            .l1_devices
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), L1DeviceId::from(i)))
            .collect();
        self.session_by_neighbor = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.pe, s.neighbor_ip), SessionId::from(i)))
            .collect();
        self.links_at_router.clear();
        self.links_of_phys.clear();
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId::from(i);
            let ra = self.interfaces[l.a.index()].router;
            let rb = self.interfaces[l.b.index()].router;
            self.links_at_router.entry(ra).or_default().push(id);
            self.links_at_router.entry(rb).or_default().push(id);
            for &p in &l.phys {
                self.links_of_phys.entry(p).or_default().push(id);
            }
        }
        self.cdn_node_by_name.clear();
        for (i, n) in self.cdn_nodes.iter().enumerate() {
            self.cdn_node_by_name
                .entry(n.name.clone())
                .or_insert(CdnNodeId::from(i));
        }
        self.ext_net_by_prefix.clear();
        for (i, n) in self.ext_nets.iter().enumerate() {
            self.ext_net_by_prefix
                .entry(n.prefix.len)
                .or_default()
                .insert(
                    net_number(n.prefix.network(), n.prefix.len),
                    ClientSiteId::from(i),
                );
        }
    }

    // ---------------------------------------------------------------- adds

    pub fn add_pop(&mut self, name: impl Into<String>, tz: TimeZone) -> PopId {
        let id = PopId::from(self.pops.len());
        self.pops.push(Pop {
            name: name.into(),
            tz,
            area: 0,
        });
        id
    }

    /// Assign the OSPF area of an existing PoP (0 = backbone).
    pub fn set_pop_area(&mut self, pop: PopId, area: u32) {
        self.pops[pop.index()].area = area;
    }

    pub fn add_router(
        &mut self,
        name: impl Into<String>,
        role: RouterRole,
        pop: PopId,
        loopback: Ipv4,
    ) -> RouterId {
        let id = RouterId::from(self.routers.len());
        let name = name.into();
        self.router_by_name.insert(name.clone(), id);
        self.router_by_loopback.insert(loopback, id);
        self.routers.push(Router {
            name,
            role,
            pop,
            loopback,
            cards: Vec::new(),
        });
        id
    }

    pub fn add_card(&mut self, router: RouterId, slot: u8) -> LineCardId {
        let id = LineCardId::from(self.cards.len());
        self.cards.push(LineCard {
            router,
            slot,
            interfaces: Vec::new(),
        });
        self.routers[router.index()].cards.push(id);
        id
    }

    pub fn add_interface(
        &mut self,
        card: LineCardId,
        port: u8,
        ip: Option<Ipv4>,
        kind: InterfaceKind,
    ) -> InterfaceId {
        let id = InterfaceId::from(self.interfaces.len());
        let router = self.cards[card.index()].router;
        let slot = self.cards[card.index()].slot;
        let name = format!("Serial{slot}/{port}/0");
        let if_index = 1 + self.routers[router.index()]
            .cards
            .iter()
            .map(|c| self.cards[c.index()].interfaces.len() as u32)
            .sum::<u32>();
        index_iface(&mut self.iface_by_name, router, name.clone(), id);
        index_iface(&mut self.iface_by_ifindex, router, if_index, id);
        if let Some(ip) = ip {
            self.iface_by_ip.insert(ip, id);
        }
        self.cards[card.index()].interfaces.push(id);
        self.interfaces.push(Interface {
            router,
            card,
            port,
            name,
            ip,
            kind,
            if_index,
            access_circuit: None,
        });
        id
    }

    /// Attach a layer-1 access circuit to a (customer-facing) interface.
    pub fn set_access_circuit(&mut self, iface: InterfaceId, circuit: PhysLinkId) {
        self.interfaces[iface.index()].access_circuit = Some(circuit);
    }

    pub fn add_l1_device(
        &mut self,
        name: impl Into<String>,
        kind: L1DeviceKind,
        pop: PopId,
    ) -> L1DeviceId {
        let id = L1DeviceId::from(self.l1_devices.len());
        let name = name.into();
        self.l1dev_by_name.insert(name.clone(), id);
        self.l1_devices.push(L1Device { name, kind, pop });
        id
    }

    pub fn add_phys_link(
        &mut self,
        circuit: impl Into<String>,
        kind: L1Kind,
        l1_path: Vec<L1DeviceId>,
    ) -> PhysLinkId {
        let id = PhysLinkId::from(self.phys_links.len());
        let circuit = circuit.into();
        self.circuit_by_name.insert(circuit.clone(), id);
        for &d in &l1_path {
            self.phys_of_l1.entry(d).or_default().push(id);
        }
        self.phys_links.push(PhysicalLink {
            circuit,
            kind,
            l1_path,
        });
        id
    }

    pub fn add_link(
        &mut self,
        a: InterfaceId,
        b: InterfaceId,
        base_weight: u32,
        phys: Vec<PhysLinkId>,
        capacity_mbps: u32,
    ) -> LinkId {
        let id = LinkId::from(self.links.len());
        let ra = self.interfaces[a.index()].router;
        let rb = self.interfaces[b.index()].router;
        self.links_at_router.entry(ra).or_default().push(id);
        self.links_at_router.entry(rb).or_default().push(id);
        for &p in &phys {
            self.links_of_phys.entry(p).or_default().push(id);
        }
        let aggregation = if phys.len() > 1 {
            Aggregation::ApsProtected
        } else {
            Aggregation::Single
        };
        self.links.push(LogicalLink {
            a,
            b,
            base_weight,
            phys,
            capacity_mbps,
            aggregation,
        });
        id
    }

    /// Mark a multi-circuit link as a multilink PPP bundle instead of the
    /// default APS protection pair.
    pub fn set_link_aggregation(&mut self, link: LinkId, aggregation: Aggregation) {
        self.links[link.index()].aggregation = aggregation;
    }

    pub fn add_customer(&mut self, name: impl Into<String>) -> CustomerId {
        let id = CustomerId::from(self.customers.len());
        self.customers.push(Customer {
            name: name.into(),
            sessions: Vec::new(),
        });
        id
    }

    pub fn add_session(
        &mut self,
        customer: CustomerId,
        pe: RouterId,
        iface: InterfaceId,
        neighbor_ip: Ipv4,
    ) -> SessionId {
        let id = SessionId::from(self.sessions.len());
        self.session_by_neighbor.insert((pe, neighbor_ip), id);
        self.customers[customer.index()].sessions.push(id);
        self.sessions.push(EbgpSession {
            customer,
            pe,
            iface,
            neighbor_ip,
        });
        id
    }

    pub fn add_mvpn(&mut self, customer: CustomerId, pes: Vec<RouterId>) -> MvpnId {
        let id = MvpnId::from(self.mvpns.len());
        self.mvpns.push(Mvpn { customer, pes });
        id
    }

    pub fn add_cdn_node(
        &mut self,
        name: impl Into<String>,
        pop: PopId,
        attach_router: RouterId,
        server_prefix: Prefix,
    ) -> CdnNodeId {
        let id = CdnNodeId::from(self.cdn_nodes.len());
        let name = name.into();
        self.cdn_node_by_name.entry(name.clone()).or_insert(id);
        self.cdn_nodes.push(CdnNode {
            name,
            pop,
            attach_router,
            server_prefix,
        });
        id
    }

    pub fn add_ext_net(
        &mut self,
        name: impl Into<String>,
        prefix: Prefix,
        egress_candidates: Vec<RouterId>,
    ) -> ClientSiteId {
        let id = ClientSiteId::from(self.ext_nets.len());
        self.ext_net_by_prefix
            .entry(prefix.len)
            .or_default()
            .insert(net_number(prefix.network(), prefix.len), id);
        self.ext_nets.push(ExtNet {
            name: name.into(),
            prefix,
            egress_candidates,
        });
        id
    }

    // ------------------------------------------------------------ accessors

    pub fn pop(&self, id: PopId) -> &Pop {
        &self.pops[id.index()]
    }
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }
    pub fn card(&self, id: LineCardId) -> &LineCard {
        &self.cards[id.index()]
    }
    pub fn interface(&self, id: InterfaceId) -> &Interface {
        &self.interfaces[id.index()]
    }
    pub fn link(&self, id: LinkId) -> &LogicalLink {
        &self.links[id.index()]
    }
    pub fn phys_link(&self, id: PhysLinkId) -> &PhysicalLink {
        &self.phys_links[id.index()]
    }
    pub fn l1_device(&self, id: L1DeviceId) -> &L1Device {
        &self.l1_devices[id.index()]
    }
    pub fn customer(&self, id: CustomerId) -> &Customer {
        &self.customers[id.index()]
    }
    pub fn session(&self, id: SessionId) -> &EbgpSession {
        &self.sessions[id.index()]
    }
    pub fn mvpn(&self, id: MvpnId) -> &Mvpn {
        &self.mvpns[id.index()]
    }
    pub fn cdn_node(&self, id: CdnNodeId) -> &CdnNode {
        &self.cdn_nodes[id.index()]
    }
    pub fn ext_net(&self, id: ClientSiteId) -> &ExtNet {
        &self.ext_nets[id.index()]
    }

    /// The device-local time zone of a router (its PoP's zone).
    pub fn router_tz(&self, id: RouterId) -> TimeZone {
        self.pop(self.router(id).pop).tz
    }

    /// Canonical `router:interface` display name.
    pub fn iface_full_name(&self, id: InterfaceId) -> String {
        let i = self.interface(id);
        format!("{}:{}", self.router(i.router).name, i.name)
    }

    // ------------------------------------------------------------- lookups

    pub fn router_by_name(&self, name: &str) -> Option<RouterId> {
        self.router_by_name.get(name).copied()
    }

    /// Resolve an SNMP system name (`"NYC-PER1.ISP.NET"`) to a router.
    /// ASCII names (every real one) fold case in a stack buffer; a
    /// non-ASCII or over-long name takes the general `to_lowercase` path,
    /// which agrees with the ASCII fold wherever both apply.
    pub fn router_by_snmp_name(&self, snmp: &str) -> Option<RouterId> {
        let by_lower =
            |lower: &str| self.router_by_name(lower.strip_suffix(".isp.net").unwrap_or(lower));
        let mut buf = [0u8; 64];
        match buf.get_mut(..snmp.len()) {
            Some(lower) if snmp.is_ascii() => {
                lower.copy_from_slice(snmp.as_bytes());
                lower.make_ascii_lowercase();
                by_lower(std::str::from_utf8(lower).expect("ASCII is UTF-8"))
            }
            _ => by_lower(&snmp.to_lowercase()),
        }
    }

    pub fn iface_by_name(&self, router: RouterId, name: &str) -> Option<InterfaceId> {
        self.iface_by_name.get(router.index())?.get(name).copied()
    }

    pub fn iface_by_ifindex(&self, router: RouterId, if_index: u32) -> Option<InterfaceId> {
        let of_router = self.iface_by_ifindex.get(router.index())?;
        of_router.get(&if_index).copied()
    }

    pub fn iface_by_ip(&self, ip: Ipv4) -> Option<InterfaceId> {
        self.iface_by_ip.get(&ip).copied()
    }

    pub fn circuit_by_name(&self, circuit: &str) -> Option<PhysLinkId> {
        self.circuit_by_name.get(circuit).copied()
    }

    pub fn l1dev_by_name(&self, name: &str) -> Option<L1DeviceId> {
        self.l1dev_by_name.get(name).copied()
    }

    pub fn cdn_node_by_name(&self, name: &str) -> Option<CdnNodeId> {
        self.cdn_node_by_name.get(name).copied()
    }

    pub fn session_by_neighbor(&self, pe: RouterId, neighbor: Ipv4) -> Option<SessionId> {
        self.session_by_neighbor.get(&(pe, neighbor)).copied()
    }

    /// Resolve a loopback address to its router (PIM MDT adjacencies and
    /// iBGP sessions address routers by loopback).
    pub fn router_by_loopback(&self, addr: Ipv4) -> Option<RouterId> {
        self.router_by_loopback.get(&addr).copied()
    }

    /// All logical links with an endpoint on `router`.
    pub fn links_at_router(&self, router: RouterId) -> &[LinkId] {
        members(&self.links_at_router, router)
    }

    /// The logical links riding a physical circuit, in ascending id order.
    pub fn links_on_circuit(&self, phys: PhysLinkId) -> &[LinkId] {
        members(&self.links_of_phys, phys)
    }

    /// The circuits traversing a layer-1 device, in ascending id order.
    pub fn circuits_through_l1(&self, dev: L1DeviceId) -> &[PhysLinkId] {
        members(&self.phys_of_l1, dev)
    }

    /// The logical link an interface terminates, if it is a link endpoint.
    pub fn link_of_iface(&self, iface: InterfaceId) -> Option<LinkId> {
        let router = self.interface(iface).router;
        self.links_at_router(router)
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].a == iface || self.links[l.index()].b == iface)
    }

    /// The router at the far end of a link from `from`.
    pub fn link_peer_router(&self, link: LinkId, from: RouterId) -> RouterId {
        let l = self.link(link);
        let ra = self.interface(l.a).router;
        let rb = self.interface(l.b).router;
        if ra == from {
            rb
        } else {
            ra
        }
    }

    /// Both endpoint routers of a link.
    pub fn link_routers(&self, link: LinkId) -> (RouterId, RouterId) {
        let l = self.link(link);
        (self.interface(l.a).router, self.interface(l.b).router)
    }

    /// Associate a /30 interface address with its link — conversion
    /// utility 4 of §II-B: a point-to-point link is identified by matching
    /// the IP addresses of the logical interfaces to a /30 network.
    pub fn link_by_slash30(&self, addr: Ipv4) -> Option<LinkId> {
        let net = addr.slash30();
        // Endpoint addresses are .1/.2 inside the /30.
        for host in 1..=2u32 {
            if let Some(i) = self.iface_by_ip(net.host(host)) {
                if let Some(l) = self.link_of_iface(i) {
                    return Some(l);
                }
            }
        }
        None
    }

    /// All eBGP sessions terminating on interfaces of one line card.
    pub fn sessions_on_card(&self, card: LineCardId) -> Vec<SessionId> {
        let mut out = Vec::new();
        for &i in &self.card(card).interfaces {
            for (sid, s) in self.sessions.iter().enumerate() {
                if s.iface == i {
                    out.push(SessionId::from(sid));
                }
            }
        }
        out
    }

    /// All PEs, in id order.
    pub fn provider_edges(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.routers
            .iter()
            .enumerate()
            .filter(|(_, r)| r.role == RouterRole::ProviderEdge)
            .map(|(i, _)| RouterId::from(i))
    }

    /// Longest-prefix match over external networks.
    pub fn ext_net_for(&self, addr: Ipv4) -> Option<ClientSiteId> {
        self.ext_net_by_prefix
            .iter()
            .rev()
            .find_map(|(&len, nets)| nets.get(&net_number(addr, len)).copied())
    }

    /// Summary line used by reports.
    pub fn summary(&self) -> String {
        format!(
            "{} pops, {} routers ({} PE), {} cards, {} interfaces, {} links, \
             {} circuits, {} l1-devices, {} customers, {} sessions, {} mvpns, \
             {} cdn nodes, {} ext nets",
            self.pops.len(),
            self.routers.len(),
            self.provider_edges().count(),
            self.cards.len(),
            self.interfaces.len(),
            self.links.len(),
            self.phys_links.len(),
            self.l1_devices.len(),
            self.customers.len(),
            self.sessions.len(),
            self.mvpns.len(),
            self.cdn_nodes.len(),
            self.ext_nets.len()
        )
    }

    /// Internal consistency check; returns human-readable violations.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for (i, card) in self.cards.iter().enumerate() {
            if card.router.index() >= self.routers.len() {
                errs.push(format!("card#{i} references missing router"));
            }
        }
        for (i, ifc) in self.interfaces.iter().enumerate() {
            if self.cards[ifc.card.index()].router != ifc.router {
                errs.push(format!("iface#{i} router/card mismatch"));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            let (ra, rb) = (
                self.interfaces[l.a.index()].router,
                self.interfaces[l.b.index()].router,
            );
            if ra == rb {
                errs.push(format!(
                    "link#{i} is a self-loop on {}",
                    self.router(ra).name
                ));
            }
            if l.phys.is_empty() {
                errs.push(format!("link#{i} has no physical circuit"));
            }
            if l.phys.len() < 2 && l.aggregation != Aggregation::Single {
                errs.push(format!("link#{i} aggregation needs >= 2 circuits"));
            }
            // /30 numbering: both ends numbered in the same /30.
            if let (Some(ia), Some(ib)) = (
                self.interfaces[l.a.index()].ip,
                self.interfaces[l.b.index()].ip,
            ) {
                if ia.slash30() != ib.slash30() {
                    errs.push(format!("link#{i} endpoints not in one /30"));
                }
            }
        }
        for (i, s) in self.sessions.iter().enumerate() {
            if self.interfaces[s.iface.index()].router != s.pe {
                errs.push(format!("session#{i} iface not on its PE"));
            }
            if !matches!(
                self.interfaces[s.iface.index()].kind,
                InterfaceKind::CustomerFacing { .. }
            ) {
                errs.push(format!("session#{i} iface is not customer-facing"));
            }
        }
        for (i, m) in self.mvpns.iter().enumerate() {
            if m.pes.len() < 2 {
                errs.push(format!("mvpn#{i} has fewer than two PEs"));
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-router fixture with one backbone link and one customer session.
    pub(crate) fn tiny() -> Topology {
        let mut t = Topology::new();
        let nyc = t.add_pop("nyc", TimeZone::US_EASTERN);
        let chi = t.add_pop("chi", TimeZone::US_CENTRAL);
        let r1 = t.add_router("nyc-cr1", RouterRole::Core, nyc, Ipv4::new(10, 0, 0, 1));
        let r2 = t.add_router(
            "chi-per1",
            RouterRole::ProviderEdge,
            chi,
            Ipv4::new(10, 0, 0, 2),
        );
        let c1 = t.add_card(r1, 0);
        let c2 = t.add_card(r2, 0);
        let adm = t.add_l1_device("adm-nyc-1", L1DeviceKind::SonetAdm, nyc);
        let pl = t.add_phys_link("CKT-NYC-CHI-0001", L1Kind::Sonet, vec![adm]);
        let i1 = t.add_interface(
            c1,
            0,
            Some(Ipv4::new(10, 200, 0, 1)),
            InterfaceKind::Backbone,
        );
        let i2 = t.add_interface(
            c2,
            0,
            Some(Ipv4::new(10, 200, 0, 2)),
            InterfaceKind::Backbone,
        );
        t.add_link(i1, i2, 10, vec![pl], 10_000);
        let cust = t.add_customer("acme");
        let i3 = t.add_interface(
            c2,
            1,
            Some(Ipv4::new(172, 16, 0, 1)),
            InterfaceKind::CustomerFacing { customer: cust },
        );
        t.add_session(cust, r2, i3, Ipv4::new(172, 16, 0, 2));
        t
    }

    #[test]
    fn tiny_is_valid() {
        let t = tiny();
        assert!(t.validate().is_empty(), "{:?}", t.validate());
    }

    #[test]
    fn name_lookups() {
        let t = tiny();
        let r2 = t.router_by_name("chi-per1").unwrap();
        assert_eq!(t.router(r2).role, RouterRole::ProviderEdge);
        assert_eq!(t.router_by_snmp_name("CHI-PER1.ISP.NET"), Some(r2));
        assert_eq!(t.router_by_snmp_name("CHI-PER1"), Some(r2));
        assert!(t.router_by_snmp_name("NOPE.ISP.NET").is_none());
        let i = t.iface_by_name(r2, "Serial0/0/0").unwrap();
        assert_eq!(t.interface(i).router, r2);
        assert_eq!(t.iface_by_ifindex(r2, t.interface(i).if_index), Some(i));
    }

    #[test]
    fn snmp_names_differ_from_canonical() {
        let t = tiny();
        let r = t.router_by_name("nyc-cr1").unwrap();
        assert_eq!(t.router(r).snmp_name(), "NYC-CR1.ISP.NET");
    }

    #[test]
    fn link_associations() {
        let t = tiny();
        let r1 = t.router_by_name("nyc-cr1").unwrap();
        let r2 = t.router_by_name("chi-per1").unwrap();
        let l = LinkId::new(0);
        assert_eq!(t.link_routers(l), (r1, r2));
        assert_eq!(t.link_peer_router(l, r1), r2);
        assert_eq!(t.links_at_router(r1), &[l]);
        // /30 association (utility 4)
        assert_eq!(t.link_by_slash30(Ipv4::new(10, 200, 0, 2)), Some(l));
        assert_eq!(t.link_by_slash30(Ipv4::new(10, 200, 9, 1)), None);
    }

    #[test]
    fn session_and_card_lookups() {
        let t = tiny();
        let r2 = t.router_by_name("chi-per1").unwrap();
        let s = t.session_by_neighbor(r2, Ipv4::new(172, 16, 0, 2)).unwrap();
        assert_eq!(t.session(s).pe, r2);
        let card = t.interface(t.session(s).iface).card;
        assert_eq!(t.sessions_on_card(card), vec![s]);
    }

    #[test]
    fn circuit_and_l1_lookup() {
        let t = tiny();
        let pl = t.circuit_by_name("CKT-NYC-CHI-0001").unwrap();
        assert_eq!(t.phys_link(pl).kind, L1Kind::Sonet);
        let d = t.l1dev_by_name("adm-nyc-1").unwrap();
        assert_eq!(t.phys_link(pl).l1_path, vec![d]);
    }

    #[test]
    fn ext_net_longest_prefix() {
        let mut t = tiny();
        let r = t.router_by_name("nyc-cr1").unwrap();
        t.add_ext_net("coarse", "96.0.0.0/8".parse().unwrap(), vec![r]);
        let fine = t.add_ext_net("fine", "96.1.0.0/16".parse().unwrap(), vec![r]);
        assert_eq!(t.ext_net_for(Ipv4::new(96, 1, 2, 3)), Some(fine));
        assert_eq!(
            t.ext_net_for(Ipv4::new(96, 9, 2, 3)),
            Some(ClientSiteId::new(0))
        );
        assert_eq!(t.ext_net_for(Ipv4::new(9, 9, 9, 9)), None);
    }

    #[test]
    fn validate_catches_bad_session() {
        let mut t = tiny();
        // Session whose interface lives on the wrong router.
        let cust = CustomerId::new(0);
        let wrong_iface = InterfaceId::new(0); // backbone iface on nyc-cr1
        let pe = t.router_by_name("chi-per1").unwrap();
        t.add_session(cust, pe, wrong_iface, Ipv4::new(172, 16, 0, 6));
        assert!(!t.validate().is_empty());
    }

    #[test]
    fn router_tz_follows_pop() {
        let t = tiny();
        let r1 = t.router_by_name("nyc-cr1").unwrap();
        assert_eq!(t.router_tz(r1), TimeZone::US_EASTERN);
    }
}
