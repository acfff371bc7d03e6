//! The spatial model: location types, locations, join levels and the
//! conversion utilities of Fig. 2 / §II-B.
//!
//! Every event in G-RCA carries a *location*. To decide whether a diagnostic
//! event is spatially related to a symptom event, the engine converts both
//! locations to a common *join level* and intersects the resulting atom
//! sets. The conversions encode topology (interface → line card → router),
//! cross-layer structure (logical link → physical circuits → layer-1
//! devices), configuration-derived association (neighbor IP → interface,
//! /30 → link) and — through the [`RouteOracle`] implemented by the routing
//! crate — *time-varying* routing state (ingress:destination → egress,
//! ingress:egress → router/link-level paths, with ECMP handled by taking
//! the union over all equal-cost paths).
//!
//! Keeping the oracle behind a trait means this crate stays independent of
//! the routing implementation, and the RCA core can be exercised in tests
//! with a [`NullOracle`].

use crate::ids::*;
use crate::ip::{Ipv4, Prefix};
use crate::topology::Topology;
use grca_types::{GrcaError, Result, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The kind of place an event definition attaches to (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LocationType {
    /// Traffic between two points outside the ISP.
    SourceDestination,
    /// An ingress router and an external destination prefix.
    IngressDestination,
    /// A pair of backbone routers (e.g. PoP-to-PoP measurements).
    IngressEgress,
    /// A router and a neighbor address outside the ISP (eBGP/PIM sessions).
    RouterNeighborIp,
    Router,
    LineCard,
    Interface,
    LogicalLink,
    PhysicalLink,
    Layer1Device,
    /// A CDN server node and a client site (the CDN application).
    ServerClient,
}

impl LocationType {
    /// All variants, for table rendering.
    pub const ALL: [LocationType; 11] = [
        LocationType::SourceDestination,
        LocationType::IngressDestination,
        LocationType::IngressEgress,
        LocationType::RouterNeighborIp,
        LocationType::Router,
        LocationType::LineCard,
        LocationType::Interface,
        LocationType::LogicalLink,
        LocationType::PhysicalLink,
        LocationType::Layer1Device,
        LocationType::ServerClient,
    ];

    /// Canonical lowercase name used by the rule-specification DSL.
    pub fn name(self) -> &'static str {
        match self {
            LocationType::SourceDestination => "source:destination",
            LocationType::IngressDestination => "ingress:destination",
            LocationType::IngressEgress => "ingress:egress",
            LocationType::RouterNeighborIp => "router:neighbor-ip",
            LocationType::Router => "router",
            LocationType::LineCard => "line-card",
            LocationType::Interface => "interface",
            LocationType::LogicalLink => "logical-link",
            LocationType::PhysicalLink => "physical-link",
            LocationType::Layer1Device => "layer1-device",
            LocationType::ServerClient => "server:client",
        }
    }

    pub fn parse(s: &str) -> Result<LocationType> {
        Self::ALL
            .iter()
            .copied()
            .find(|t| t.name() == s)
            .ok_or_else(|| GrcaError::parse(format!("unknown location type {s:?}")))
    }
}

impl fmt::Display for LocationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete place an event instance occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Location {
    SourceDestination {
        src: Ipv4,
        dst: Ipv4,
    },
    IngressDestination {
        ingress: RouterId,
        dst: Prefix,
    },
    IngressEgress {
        ingress: RouterId,
        egress: RouterId,
    },
    RouterNeighborIp {
        router: RouterId,
        neighbor: Ipv4,
    },
    Router(RouterId),
    LineCard(LineCardId),
    Interface(InterfaceId),
    LogicalLink(LinkId),
    PhysicalLink(PhysLinkId),
    Layer1Device(L1DeviceId),
    ServerClient {
        node: CdnNodeId,
        client: ClientSiteId,
    },
}

impl Location {
    pub fn location_type(&self) -> LocationType {
        match self {
            Location::SourceDestination { .. } => LocationType::SourceDestination,
            Location::IngressDestination { .. } => LocationType::IngressDestination,
            Location::IngressEgress { .. } => LocationType::IngressEgress,
            Location::RouterNeighborIp { .. } => LocationType::RouterNeighborIp,
            Location::Router(_) => LocationType::Router,
            Location::LineCard(_) => LocationType::LineCard,
            Location::Interface(_) => LocationType::Interface,
            Location::LogicalLink(_) => LocationType::LogicalLink,
            Location::PhysicalLink(_) => LocationType::PhysicalLink,
            Location::Layer1Device(_) => LocationType::Layer1Device,
            Location::ServerClient { .. } => LocationType::ServerClient,
        }
    }

    /// Human-readable rendering against a topology (the canonical
    /// `newyork-router1:serial-interface0` style from the paper's example).
    pub fn display(&self, topo: &Topology) -> String {
        match *self {
            Location::SourceDestination { src, dst } => format!("{src}->{dst}"),
            Location::IngressDestination { ingress, dst } => {
                format!("{}:{dst}", topo.router(ingress).name)
            }
            Location::IngressEgress { ingress, egress } => {
                format!("{}:{}", topo.router(ingress).name, topo.router(egress).name)
            }
            Location::RouterNeighborIp { router, neighbor } => {
                format!("{}:{neighbor}", topo.router(router).name)
            }
            Location::Router(r) => topo.router(r).name.clone(),
            Location::LineCard(c) => {
                let card = topo.card(c);
                format!("{}:slot{}", topo.router(card.router).name, card.slot)
            }
            Location::Interface(i) => topo.iface_full_name(i),
            Location::LogicalLink(l) => {
                let (a, b) = topo.link_routers(l);
                format!("link[{}~{}]", topo.router(a).name, topo.router(b).name)
            }
            Location::PhysicalLink(p) => topo.phys_link(p).circuit.clone(),
            Location::Layer1Device(d) => topo.l1_device(d).name.clone(),
            Location::ServerClient { node, client } => {
                format!("{}:{}", topo.cdn_node(node).name, topo.ext_net(client).name)
            }
        }
    }
}

/// The granularity at which a symptom and a diagnostic location are
/// compared (the "joining level" of §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum JoinLevel {
    /// Locations must be exactly equal (same type, same value).
    Exact,
    Router,
    LineCard,
    Interface,
    LogicalLink,
    PhysicalLink,
    Layer1Device,
    /// The set of routers along all (ECMP) backbone paths.
    RouterPath,
    /// The set of logical links along all (ECMP) backbone paths.
    LinkPath,
    /// The (ingress, egress) router pair.
    IngressEgress,
    /// The (ingress router, destination prefix) pair.
    IngressDestination,
}

impl JoinLevel {
    pub const ALL: [JoinLevel; 11] = [
        JoinLevel::Exact,
        JoinLevel::Router,
        JoinLevel::LineCard,
        JoinLevel::Interface,
        JoinLevel::LogicalLink,
        JoinLevel::PhysicalLink,
        JoinLevel::Layer1Device,
        JoinLevel::RouterPath,
        JoinLevel::LinkPath,
        JoinLevel::IngressEgress,
        JoinLevel::IngressDestination,
    ];

    pub fn name(self) -> &'static str {
        match self {
            JoinLevel::Exact => "exact",
            JoinLevel::Router => "router",
            JoinLevel::LineCard => "line-card",
            JoinLevel::Interface => "interface",
            JoinLevel::LogicalLink => "logical-link",
            JoinLevel::PhysicalLink => "physical-link",
            JoinLevel::Layer1Device => "layer1-device",
            JoinLevel::RouterPath => "router-path",
            JoinLevel::LinkPath => "link-path",
            JoinLevel::IngressEgress => "ingress:egress",
            JoinLevel::IngressDestination => "ingress:destination",
        }
    }

    pub fn parse(s: &str) -> Result<JoinLevel> {
        Self::ALL
            .iter()
            .copied()
            .find(|l| l.name() == s)
            .ok_or_else(|| GrcaError::parse(format!("unknown join level {s:?}")))
    }
}

impl fmt::Display for JoinLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dynamic-routing queries the spatial model needs but cannot answer from
/// static structure. Implemented by `grca-routing` over reconstructed
/// historical routing state ("as of" a given instant); all answers must be
/// derivable from proactively collected data (OSPF/BGP monitors), never
/// from on-demand probing (§I).
pub trait RouteOracle: Sync {
    /// Network egress router for traffic entering at `ingress` towards
    /// `dst`, per BGP best-path selection at time `at`.
    fn egress_for(&self, ingress: RouterId, dst: Prefix, at: Timestamp) -> Option<RouterId>;

    /// Ingress router for traffic sourced at the external address `src`
    /// (NetFlow / data-centre configuration mapping, utility 1 of §II-B).
    fn ingress_for(&self, src: Ipv4, at: Timestamp) -> Option<RouterId>;

    /// Routers on any OSPF shortest path between `a` and `b` at time `at`,
    /// including both endpoints; ECMP contributes the union of all paths.
    fn path_routers(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<RouterId>;

    /// Logical links on any OSPF shortest path between `a` and `b`.
    fn path_links(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<LinkId>;

    /// A fingerprint of the routing state at `at`: two instants with the
    /// same epoch must receive identical answers from every other query.
    /// Callers use this to memoize path-dependent joins per routing epoch
    /// instead of per instant. The default (one constant epoch) is only
    /// correct for time-invariant oracles; reconstructing oracles must
    /// override it.
    fn epoch(&self, at: Timestamp) -> u64 {
        let _ = at;
        0
    }
}

/// An oracle with no routing knowledge — path-dependent conversions return
/// nothing. Useful in tests of purely structural joins.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullOracle;

impl RouteOracle for NullOracle {
    fn egress_for(&self, _: RouterId, _: Prefix, _: Timestamp) -> Option<RouterId> {
        None
    }
    fn ingress_for(&self, _: Ipv4, _: Timestamp) -> Option<RouterId> {
        None
    }
    fn path_routers(&self, _: RouterId, _: RouterId, _: Timestamp) -> Vec<RouterId> {
        Vec::new()
    }
    fn path_links(&self, _: RouterId, _: RouterId, _: Timestamp) -> Vec<LinkId> {
        Vec::new()
    }
}

/// The spatial model: static structure + route oracle. Both are
/// borrowed — the configuration-derived reverse indexes live in
/// [`Topology`] — so binding a model costs two pointer copies.
pub struct SpatialModel<'a> {
    topo: &'a Topology,
    oracle: &'a dyn RouteOracle,
}

impl<'a> SpatialModel<'a> {
    pub fn new(topo: &'a Topology, oracle: &'a dyn RouteOracle) -> Self {
        SpatialModel { topo, oracle }
    }

    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The routing-state epoch at `at` (see [`RouteOracle::epoch`]).
    pub fn epoch(&self, at: Timestamp) -> u64 {
        self.oracle.epoch(at)
    }

    /// Whether two locations are spatially joined at `level` at time `at`.
    pub fn joined(&self, sym: &Location, diag: &Location, at: Timestamp, level: JoinLevel) -> bool {
        if level == JoinLevel::Exact {
            return sym == diag;
        }
        let a = self.expand(sym, at, level);
        if a.is_empty() {
            return false;
        }
        let b = self.expand(diag, at, level);
        if b.is_empty() {
            return false;
        }
        let set: BTreeSet<&Location> = a.iter().collect();
        b.iter().any(|l| set.contains(l))
    }

    /// Convert `loc` to the set of join-level atoms it occupies at `at`.
    ///
    /// An empty result means the conversion is not defined for this
    /// location/level combination (or routing state is unavailable) — the
    /// join then fails closed, never spuriously matching.
    pub fn expand(&self, loc: &Location, at: Timestamp, level: JoinLevel) -> Vec<Location> {
        use JoinLevel as L;
        use Location as Loc;
        match *loc {
            Loc::Interface(i) => {
                let ifc = self.topo.interface(i);
                match level {
                    L::Interface => vec![Loc::Interface(i)],
                    L::Router | L::RouterPath => vec![Loc::Router(ifc.router)],
                    L::LineCard => vec![Loc::LineCard(ifc.card)],
                    L::LogicalLink | L::LinkPath => self
                        .topo
                        .link_of_iface(i)
                        .map(Loc::LogicalLink)
                        .into_iter()
                        .collect(),
                    L::PhysicalLink => self.iface_phys(i),
                    L::Layer1Device => self.iface_l1(i),
                    L::Exact | L::IngressEgress | L::IngressDestination => Vec::new(),
                }
            }
            Loc::Router(r) => match level {
                L::Router | L::RouterPath => vec![Loc::Router(r)],
                L::LineCard => self
                    .topo
                    .router(r)
                    .cards
                    .iter()
                    .map(|&c| Loc::LineCard(c))
                    .collect(),
                L::Interface => self
                    .topo
                    .router(r)
                    .cards
                    .iter()
                    .flat_map(|&c| self.topo.card(c).interfaces.iter())
                    .map(|&i| Loc::Interface(i))
                    .collect(),
                L::LogicalLink | L::LinkPath => self
                    .topo
                    .links_at_router(r)
                    .iter()
                    .map(|&l| Loc::LogicalLink(l))
                    .collect(),
                _ => Vec::new(),
            },
            Loc::LineCard(c) => match level {
                L::LineCard => vec![Loc::LineCard(c)],
                L::Router | L::RouterPath => vec![Loc::Router(self.topo.card(c).router)],
                L::Interface => self
                    .topo
                    .card(c)
                    .interfaces
                    .iter()
                    .map(|&i| Loc::Interface(i))
                    .collect(),
                _ => Vec::new(),
            },
            Loc::LogicalLink(l) => {
                let (ra, rb) = self.topo.link_routers(l);
                let link = self.topo.link(l);
                match level {
                    L::LogicalLink | L::LinkPath => vec![Loc::LogicalLink(l)],
                    L::Router | L::RouterPath => vec![Loc::Router(ra), Loc::Router(rb)],
                    L::Interface => vec![Loc::Interface(link.a), Loc::Interface(link.b)],
                    L::LineCard => vec![
                        Loc::LineCard(self.topo.interface(link.a).card),
                        Loc::LineCard(self.topo.interface(link.b).card),
                    ],
                    L::PhysicalLink => link.phys.iter().map(|&p| Loc::PhysicalLink(p)).collect(),
                    L::Layer1Device => link
                        .phys
                        .iter()
                        .flat_map(|&p| self.topo.phys_link(p).l1_path.iter())
                        .map(|&d| Loc::Layer1Device(d))
                        .collect(),
                    _ => Vec::new(),
                }
            }
            Loc::PhysicalLink(p) => match level {
                L::PhysicalLink => vec![Loc::PhysicalLink(p)],
                L::Layer1Device => self
                    .topo
                    .phys_link(p)
                    .l1_path
                    .iter()
                    .map(|&d| Loc::Layer1Device(d))
                    .collect(),
                L::LogicalLink | L::LinkPath => self
                    .topo
                    .links_on_circuit(p)
                    .iter()
                    .map(|&l| Loc::LogicalLink(l))
                    .collect(),
                L::Router | L::RouterPath => self
                    .topo
                    .links_on_circuit(p)
                    .iter()
                    .flat_map(|&l| {
                        let (a, b) = self.topo.link_routers(l);
                        [Loc::Router(a), Loc::Router(b)]
                    })
                    .collect(),
                _ => Vec::new(),
            },
            Loc::Layer1Device(d) => match level {
                L::Layer1Device => vec![Loc::Layer1Device(d)],
                L::PhysicalLink => self
                    .topo
                    .circuits_through_l1(d)
                    .iter()
                    .map(|&p| Loc::PhysicalLink(p))
                    .collect(),
                L::LogicalLink | L::LinkPath => self
                    .topo
                    .circuits_through_l1(d)
                    .iter()
                    .flat_map(|&p| self.topo.links_on_circuit(p))
                    .map(|&l| Loc::LogicalLink(l))
                    .collect(),
                _ => Vec::new(),
            },
            Loc::RouterNeighborIp { router, neighbor } => match level {
                // When the neighbor address is another router's loopback
                // (e.g. a PE-PE PIM adjacency over an MDT tunnel), the
                // adjacency spans the backbone path between the two
                // routers — expand accordingly at path levels.
                L::RouterPath | L::LinkPath | L::IngressEgress
                    if self.router_by_loopback(neighbor).is_some() =>
                {
                    let peer = self.router_by_loopback(neighbor).unwrap();
                    self.expand_pair(router, peer, at, level)
                }
                L::Router | L::RouterPath => vec![Loc::Router(router)],
                L::Interface => self
                    .neighbor_iface(router, neighbor)
                    .map(Loc::Interface)
                    .into_iter()
                    .collect(),
                L::LineCard => self
                    .neighbor_iface(router, neighbor)
                    .map(|i| Loc::LineCard(self.topo.interface(i).card))
                    .into_iter()
                    .collect(),
                L::PhysicalLink => self
                    .neighbor_iface(router, neighbor)
                    .map(|i| self.iface_phys(i))
                    .unwrap_or_default(),
                L::Layer1Device => self
                    .neighbor_iface(router, neighbor)
                    .map(|i| self.iface_l1(i))
                    .unwrap_or_default(),
                _ => Vec::new(),
            },
            Loc::IngressEgress { ingress, egress } => self.expand_pair(ingress, egress, at, level),
            Loc::IngressDestination { ingress, dst } => match level {
                L::IngressDestination => vec![Loc::IngressDestination { ingress, dst }],
                L::IngressEgress | L::RouterPath | L::LinkPath | L::Router => {
                    match self.oracle.egress_for(ingress, dst, at) {
                        Some(egress) => self.expand_pair(ingress, egress, at, level),
                        None => Vec::new(),
                    }
                }
                _ => Vec::new(),
            },
            Loc::ServerClient { node, client } => {
                // Utility 1: the server side is inside an ISP data centre,
                // so the ingress router comes straight from configuration.
                let ingress = self.topo.cdn_node(node).attach_router;
                let dst = self.topo.ext_net(client).prefix;
                self.expand(&Loc::IngressDestination { ingress, dst }, at, level)
            }
            Loc::SourceDestination { src, dst } => {
                // Utility 1: map the external source to its ingress router
                // (NetFlow-derived), then proceed as ingress:destination.
                match self.oracle.ingress_for(src, at) {
                    Some(ingress) => self.expand(
                        &Loc::IngressDestination {
                            ingress,
                            dst: Prefix::new(dst, 32),
                        },
                        at,
                        level,
                    ),
                    None => Vec::new(),
                }
            }
        }
    }

    /// Expand an (ingress, egress) router pair.
    fn expand_pair(
        &self,
        ingress: RouterId,
        egress: RouterId,
        at: Timestamp,
        level: JoinLevel,
    ) -> Vec<Location> {
        use JoinLevel as L;
        match level {
            L::IngressEgress => vec![Location::IngressEgress { ingress, egress }],
            // At plain Router level an end-to-end pair means its endpoints;
            // the full transit set requires the explicit RouterPath level.
            L::Router => vec![Location::Router(ingress), Location::Router(egress)],
            L::RouterPath => self
                .oracle
                .path_routers(ingress, egress, at)
                .into_iter()
                .map(Location::Router)
                .collect(),
            L::LinkPath | L::LogicalLink => self
                .oracle
                .path_links(ingress, egress, at)
                .into_iter()
                .map(Location::LogicalLink)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Resolve a loopback address to its router (PIM MDT adjacencies and
    /// iBGP sessions address routers by loopback).
    pub fn router_by_loopback(&self, addr: Ipv4) -> Option<RouterId> {
        self.topo.router_by_loopback(addr)
    }

    /// Utility 2: resolve a neighbor IP on a router to the interface that
    /// faces it, using configuration (the session table, falling back to
    /// /30 co-membership).
    pub fn neighbor_iface(&self, router: RouterId, neighbor: Ipv4) -> Option<InterfaceId> {
        if let Some(s) = self.topo.session_by_neighbor(router, neighbor) {
            return Some(self.topo.session(s).iface);
        }
        // Fall back: the interface on `router` numbered in the same /30.
        let net = neighbor.slash30();
        for host in 1..=2 {
            if let Some(i) = self.topo.iface_by_ip(net.host(host)) {
                if self.topo.interface(i).router == router {
                    return Some(i);
                }
            }
        }
        None
    }

    /// The circuits an interface rides: its logical link's circuits for
    /// backbone interfaces, or the access circuit for customer-facing ones.
    pub fn iface_circuits(&self, i: InterfaceId) -> Vec<PhysLinkId> {
        if let Some(l) = self.topo.link_of_iface(i) {
            return self.topo.link(l).phys.clone();
        }
        self.topo.interface(i).access_circuit.into_iter().collect()
    }

    fn iface_phys(&self, i: InterfaceId) -> Vec<Location> {
        self.iface_circuits(i)
            .into_iter()
            .map(Location::PhysicalLink)
            .collect()
    }

    fn iface_l1(&self, i: InterfaceId) -> Vec<Location> {
        self.iface_circuits(i)
            .into_iter()
            .flat_map(|p| self.topo.phys_link(p).l1_path.clone())
            .map(Location::Layer1Device)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TopoGenConfig};
    use crate::topology::{InterfaceKind, RouterRole};

    fn t0() -> Timestamp {
        Timestamp::from_unix(0)
    }

    #[test]
    fn location_type_parse_roundtrip() {
        for t in LocationType::ALL {
            assert_eq!(LocationType::parse(t.name()).unwrap(), t);
        }
        assert!(LocationType::parse("nonsense").is_err());
    }

    #[test]
    fn join_level_parse_roundtrip() {
        for l in JoinLevel::ALL {
            assert_eq!(JoinLevel::parse(l.name()).unwrap(), l);
        }
        assert!(JoinLevel::parse("nope").is_err());
    }

    #[test]
    fn interface_expands_up_and_down_layers() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        // pick a backbone interface that terminates a link
        let (i, _) = topo
            .interfaces
            .iter()
            .enumerate()
            .find(|(i, ifc)| {
                ifc.kind == InterfaceKind::Backbone
                    && topo.link_of_iface(InterfaceId::from(*i)).is_some()
            })
            .unwrap();
        let i = InterfaceId::from(i);
        let loc = Location::Interface(i);
        assert_eq!(
            sm.expand(&loc, t0(), JoinLevel::Router),
            vec![Location::Router(topo.interface(i).router)]
        );
        assert_eq!(
            sm.expand(&loc, t0(), JoinLevel::LineCard),
            vec![Location::LineCard(topo.interface(i).card)]
        );
        assert!(!sm.expand(&loc, t0(), JoinLevel::PhysicalLink).is_empty());
        assert!(!sm.expand(&loc, t0(), JoinLevel::Layer1Device).is_empty());
    }

    #[test]
    fn customer_iface_has_no_backbone_link() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        let s = &topo.sessions[0];
        let loc = Location::Interface(s.iface);
        assert!(sm.expand(&loc, t0(), JoinLevel::LogicalLink).is_empty());
        // Joins at link level therefore fail closed.
        assert!(!sm.joined(
            &loc,
            &Location::LogicalLink(LinkId::new(0)),
            t0(),
            JoinLevel::LogicalLink
        ));
    }

    #[test]
    fn neighbor_ip_resolves_to_customer_facing_interface() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        let s = &topo.sessions[3];
        let loc = Location::RouterNeighborIp {
            router: s.pe,
            neighbor: s.neighbor_ip,
        };
        assert_eq!(
            sm.expand(&loc, t0(), JoinLevel::Interface),
            vec![Location::Interface(s.iface)]
        );
        // An eBGP flap (router:neighbor-ip) joins an interface flap on the
        // session's interface at interface level — the BGP application's
        // central spatial rule.
        assert!(sm.joined(
            &loc,
            &Location::Interface(s.iface),
            t0(),
            JoinLevel::Interface
        ));
        // ... and does NOT join a flap on a different interface.
        let other = &topo.sessions[4];
        assert!(!sm.joined(
            &loc,
            &Location::Interface(other.iface),
            t0(),
            JoinLevel::Interface
        ));
    }

    #[test]
    fn neighbor_ip_slash30_fallback() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        // A backbone link endpoint: neighbor = the far side's address.
        let l = topo.link(LinkId::new(0));
        let a = topo.interface(l.a);
        let b = topo.interface(l.b);
        let found = sm.neighbor_iface(a.router, b.ip.unwrap());
        assert_eq!(found, Some(l.a));
    }

    #[test]
    fn l1_device_joins_links_through_inventory() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        let l = LinkId::new(topo.links.len() as u32 - 1);
        let link_loc = Location::LogicalLink(l);
        let l1 = sm.expand(&link_loc, t0(), JoinLevel::Layer1Device);
        assert!(!l1.is_empty());
        // A restoration on that layer-1 device joins the link.
        assert!(sm.joined(&link_loc, &l1[0], t0(), JoinLevel::Layer1Device));
    }

    #[test]
    fn exact_join_requires_equality() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        let a = Location::Router(RouterId::new(0));
        let b = Location::Router(RouterId::new(1));
        assert!(sm.joined(&a, &a, t0(), JoinLevel::Exact));
        assert!(!sm.joined(&a, &b, t0(), JoinLevel::Exact));
    }

    /// An oracle with one hard-wired path, for path-level join tests.
    struct FixedPathOracle {
        routers: Vec<RouterId>,
        links: Vec<LinkId>,
        egress: RouterId,
    }

    impl RouteOracle for FixedPathOracle {
        fn egress_for(&self, _: RouterId, _: Prefix, _: Timestamp) -> Option<RouterId> {
            Some(self.egress)
        }
        fn ingress_for(&self, _: Ipv4, _: Timestamp) -> Option<RouterId> {
            Some(self.routers[0])
        }
        fn path_routers(&self, _: RouterId, _: RouterId, _: Timestamp) -> Vec<RouterId> {
            self.routers.clone()
        }
        fn path_links(&self, _: RouterId, _: RouterId, _: Timestamp) -> Vec<LinkId> {
            self.links.clone()
        }
    }

    #[test]
    fn path_level_join_uses_oracle() {
        let topo = generate(&TopoGenConfig::small());
        let mid = RouterId::new(2);
        let oracle = FixedPathOracle {
            routers: vec![RouterId::new(0), mid, RouterId::new(5)],
            links: vec![LinkId::new(0), LinkId::new(1)],
            egress: RouterId::new(5),
        };
        let sm = SpatialModel::new(&topo, &oracle);
        let e2e = Location::IngressEgress {
            ingress: RouterId::new(0),
            egress: RouterId::new(5),
        };
        // CPU overload on a transit router joins at router-path level ...
        assert!(sm.joined(&e2e, &Location::Router(mid), t0(), JoinLevel::RouterPath));
        // ... but NOT at plain router level (endpoints only).
        assert!(!sm.joined(&e2e, &Location::Router(mid), t0(), JoinLevel::Router));
        // Congestion on an on-path link joins at link-path level.
        assert!(sm.joined(
            &e2e,
            &Location::LogicalLink(LinkId::new(1)),
            t0(),
            JoinLevel::LinkPath
        ));
        assert!(!sm.joined(
            &e2e,
            &Location::LogicalLink(LinkId::new(7)),
            t0(),
            JoinLevel::LinkPath
        ));
    }

    #[test]
    fn server_client_expands_via_cdn_attach_and_bgp() {
        let topo = generate(&TopoGenConfig::small());
        let attach = topo.cdn_node(CdnNodeId::new(0)).attach_router;
        let egress = topo.ext_net(ClientSiteId::new(0)).egress_candidates[0];
        let oracle = FixedPathOracle {
            routers: vec![attach, egress],
            links: vec![LinkId::new(0)],
            egress,
        };
        let sm = SpatialModel::new(&topo, &oracle);
        let loc = Location::ServerClient {
            node: CdnNodeId::new(0),
            client: ClientSiteId::new(0),
        };
        let pair = sm.expand(&loc, t0(), JoinLevel::IngressEgress);
        assert_eq!(
            pair,
            vec![Location::IngressEgress {
                ingress: attach,
                egress
            }]
        );
        assert!(sm.joined(&loc, &Location::Router(egress), t0(), JoinLevel::RouterPath));
    }

    #[test]
    fn null_oracle_fails_path_joins_closed() {
        let topo = generate(&TopoGenConfig::small());
        let sm = SpatialModel::new(&topo, &NullOracle);
        let e2e = Location::IngressEgress {
            ingress: RouterId::new(0),
            egress: RouterId::new(5),
        };
        assert!(!sm.joined(
            &e2e,
            &Location::Router(RouterId::new(2)),
            t0(),
            JoinLevel::RouterPath
        ));
    }

    #[test]
    fn reflector_role_exists() {
        let topo = generate(&TopoGenConfig::small());
        assert!(topo
            .routers
            .iter()
            .any(|r| r.role == RouterRole::RouteReflector));
    }
}
