//! Entity-name resolution strategies for ingestion.
//!
//! Every raw record names its entities in the feed's own vocabulary
//! (hostnames, `NAME.ISP.NET` SNMP systems, circuit ids, /30 addresses…)
//! and ingestion must map each onto canonical topology ids. The mapping is
//! a pure function of the topology, so repeated lookups of the same name
//! are pure waste — live feeds mention the same few thousand entities
//! millions of times a day.
//!
//! [`EntityResolver`] abstracts the strategy:
//!
//! * [`DirectResolver`] queries the topology on every record — exactly the
//!   original per-record behaviour. It exists so benchmarks can measure
//!   the pre-memoization path without forking the ingest code.
//! * [`CachedResolver`] memoizes every resolution (including misses, which
//!   real feeds produce constantly for decommissioned gear). This is what
//!   [`crate::Database::ingest`] and [`crate::Database::ingest_more`] use.

use grca_net_model::{
    CdnNodeId, ClientSiteId, InterfaceId, Ipv4, L1DeviceId, LinkId, PhysLinkId, RouterId, Topology,
};
use std::collections::HashMap;

/// The entity lookups ingestion performs, one method per feed convention.
pub trait EntityResolver {
    fn router_by_name(&mut self, topo: &Topology, name: &str) -> Option<RouterId>;
    fn router_by_snmp_name(&mut self, topo: &Topology, system: &str) -> Option<RouterId>;
    fn iface_by_ifindex(
        &mut self,
        topo: &Topology,
        router: RouterId,
        ifindex: u32,
    ) -> Option<InterfaceId>;
    fn l1dev_by_name(&mut self, topo: &Topology, name: &str) -> Option<L1DeviceId>;
    fn circuit_by_name(&mut self, topo: &Topology, circuit: &str) -> Option<PhysLinkId>;
    fn link_by_slash30(&mut self, topo: &Topology, addr: Ipv4) -> Option<LinkId>;
    fn cdn_node_by_name(&mut self, topo: &Topology, name: &str) -> Option<CdnNodeId>;
    fn client_site_for(&mut self, topo: &Topology, addr: Ipv4) -> Option<ClientSiteId>;
}

/// Uncached resolution: one topology query per record, byte-for-byte the
/// collector's original behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectResolver;

impl EntityResolver for DirectResolver {
    fn router_by_name(&mut self, topo: &Topology, name: &str) -> Option<RouterId> {
        topo.router_by_name(name)
    }
    fn router_by_snmp_name(&mut self, topo: &Topology, system: &str) -> Option<RouterId> {
        topo.router_by_snmp_name(system)
    }
    fn iface_by_ifindex(
        &mut self,
        topo: &Topology,
        router: RouterId,
        ifindex: u32,
    ) -> Option<InterfaceId> {
        topo.iface_by_ifindex(router, ifindex)
    }
    fn l1dev_by_name(&mut self, topo: &Topology, name: &str) -> Option<L1DeviceId> {
        topo.l1dev_by_name(name)
    }
    fn circuit_by_name(&mut self, topo: &Topology, circuit: &str) -> Option<PhysLinkId> {
        topo.circuit_by_name(circuit)
    }
    fn link_by_slash30(&mut self, topo: &Topology, addr: Ipv4) -> Option<LinkId> {
        topo.link_by_slash30(addr)
    }
    fn cdn_node_by_name(&mut self, topo: &Topology, name: &str) -> Option<CdnNodeId> {
        topo.cdn_nodes
            .iter()
            .position(|n| n.name == name)
            .map(CdnNodeId::from)
    }
    fn client_site_for(&mut self, topo: &Topology, addr: Ipv4) -> Option<ClientSiteId> {
        topo.ext_net_for(addr)
    }
}

/// Memoized resolution. Misses are cached too — a feed referencing a
/// decommissioned router repeats that reference all day.
///
/// The string-keyed maps allocate the key once per *distinct* name; every
/// later record with the same name hashes a borrowed `&str` and copies
/// nothing. The biggest wins are the lookups that were not O(1) to begin
/// with: SNMP system names (lowercased per record before), CDN node names
/// (a linear scan) and client addresses (a longest-prefix scan).
#[derive(Debug, Default)]
pub struct CachedResolver {
    routers: HashMap<String, Option<RouterId>>,
    snmp_systems: HashMap<String, Option<RouterId>>,
    ifaces: HashMap<(RouterId, u32), Option<InterfaceId>>,
    l1devs: HashMap<String, Option<L1DeviceId>>,
    circuits: HashMap<String, Option<PhysLinkId>>,
    slash30: HashMap<Ipv4, Option<LinkId>>,
    cdn_nodes: HashMap<String, Option<CdnNodeId>>,
    clients: HashMap<Ipv4, Option<ClientSiteId>>,
}

impl CachedResolver {
    pub fn new() -> Self {
        CachedResolver::default()
    }
}

/// Memoize a string-keyed lookup without allocating on hits.
fn memo_str<V: Copy>(
    map: &mut HashMap<String, Option<V>>,
    key: &str,
    compute: impl FnOnce() -> Option<V>,
) -> Option<V> {
    if let Some(&hit) = map.get(key) {
        return hit;
    }
    let v = compute();
    map.insert(key.to_owned(), v);
    v
}

impl EntityResolver for CachedResolver {
    fn router_by_name(&mut self, topo: &Topology, name: &str) -> Option<RouterId> {
        memo_str(&mut self.routers, name, || topo.router_by_name(name))
    }
    fn router_by_snmp_name(&mut self, topo: &Topology, system: &str) -> Option<RouterId> {
        memo_str(&mut self.snmp_systems, system, || {
            topo.router_by_snmp_name(system)
        })
    }
    fn iface_by_ifindex(
        &mut self,
        topo: &Topology,
        router: RouterId,
        ifindex: u32,
    ) -> Option<InterfaceId> {
        *self
            .ifaces
            .entry((router, ifindex))
            .or_insert_with(|| topo.iface_by_ifindex(router, ifindex))
    }
    fn l1dev_by_name(&mut self, topo: &Topology, name: &str) -> Option<L1DeviceId> {
        memo_str(&mut self.l1devs, name, || topo.l1dev_by_name(name))
    }
    fn circuit_by_name(&mut self, topo: &Topology, circuit: &str) -> Option<PhysLinkId> {
        memo_str(&mut self.circuits, circuit, || {
            topo.circuit_by_name(circuit)
        })
    }
    fn link_by_slash30(&mut self, topo: &Topology, addr: Ipv4) -> Option<LinkId> {
        *self
            .slash30
            .entry(addr)
            .or_insert_with(|| topo.link_by_slash30(addr))
    }
    fn cdn_node_by_name(&mut self, topo: &Topology, name: &str) -> Option<CdnNodeId> {
        memo_str(&mut self.cdn_nodes, name, || {
            topo.cdn_nodes
                .iter()
                .position(|n| n.name == name)
                .map(CdnNodeId::from)
        })
    }
    fn client_site_for(&mut self, topo: &Topology, addr: Ipv4) -> Option<ClientSiteId> {
        *self
            .clients
            .entry(addr)
            .or_insert_with(|| topo.ext_net_for(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::gen::{generate, TopoGenConfig};

    /// Cached and direct resolution agree on hits, misses and every feed
    /// convention, and the miss cache answers repeats without re-querying.
    #[test]
    fn cached_agrees_with_direct() {
        let topo = generate(&TopoGenConfig::small());
        let mut direct = DirectResolver;
        let mut cached = CachedResolver::new();
        for name in ["lax-per1", "nyc-per1", "ghost-router", "lax-per1"] {
            assert_eq!(
                cached.router_by_name(&topo, name),
                direct.router_by_name(&topo, name),
                "{name}"
            );
        }
        for system in ["LAX-PER1.ISP.NET", "GHOST.ISP.NET", "LAX-PER1.ISP.NET"] {
            assert_eq!(
                cached.router_by_snmp_name(&topo, system),
                direct.router_by_snmp_name(&topo, system),
                "{system}"
            );
        }
        for node in topo.cdn_nodes.iter().map(|n| n.name.as_str()) {
            assert_eq!(
                cached.cdn_node_by_name(&topo, node),
                direct.cdn_node_by_name(&topo, node)
            );
        }
        for net in &topo.ext_nets {
            let addr = net.prefix.host(1);
            assert_eq!(
                cached.client_site_for(&topo, addr),
                direct.client_site_for(&topo, addr)
            );
        }
        // Misses are memoized: the map holds an entry, not just absence.
        assert!(cached.routers.contains_key("ghost-router"));
        assert_eq!(cached.routers["ghost-router"], None);
    }
}
