//! Tier-preset generator guarantees: seed determinism (byte-identical
//! serialized topologies) and structural invariants at every preset.
//!
//! The scenario-manifest reproducibility story rests on these: a soak run
//! is replayable only if `(TierConfig, seed)` pins the topology exactly.

use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{
    ClientSiteId, InterfaceId, Ipv4, L1DeviceId, LinkId, PhysLinkId, RouterId, RouterRole,
    TierConfig, Topology,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Serialize the full topology — every entity vector, in arena order — so
/// "byte-identical" covers ids, names, addresses, and area assignments.
fn topo_bytes(t: &Topology) -> Vec<u8> {
    serde_json::to_string(t)
        .expect("serialize topology")
        .into_bytes()
}

#[test]
fn same_seed_is_byte_identical_at_every_preset() {
    for tier in TierConfig::all() {
        let a = topo_bytes(&tier.generate());
        let b = topo_bytes(&tier.generate());
        assert_eq!(a, b, "preset {} not deterministic", tier.name);
    }
}

#[test]
fn distinct_seeds_are_distinct() {
    for tier in [TierConfig::smoke(), TierConfig::default_preset()] {
        let a = topo_bytes(&tier.clone().with_seed(1).generate());
        let b = topo_bytes(&tier.clone().with_seed(2).generate());
        assert_ne!(a, b, "preset {} ignores its seed", tier.name);
    }
}

/// Every interface belongs to exactly one router: its own `router` field,
/// its card's router, and exactly one appearance in one card's port list.
fn check_interface_ownership(t: &Topology) {
    let mut seen = vec![0usize; t.interfaces.len()];
    for (ci, card) in t.cards.iter().enumerate() {
        for &iid in &card.interfaces {
            let ifc = t.interface(iid);
            assert_eq!(ifc.card.index(), ci, "{}: wrong card backref", ifc.name);
            assert_eq!(
                ifc.router, card.router,
                "{}: interface and card disagree on router",
                ifc.name
            );
            seen[iid.index()] += 1;
        }
    }
    for (i, n) in seen.iter().enumerate() {
        assert_eq!(*n, 1, "interface #{i} appears on {n} cards");
    }
}

/// Every BGP session endpoint exists and is coherent: the PE is a provider
/// edge, the interface sits on that PE and faces the session's customer.
fn check_session_endpoints(t: &Topology) {
    for (si, s) in t.sessions.iter().enumerate() {
        let pe = t.router(s.pe);
        assert_eq!(pe.role, RouterRole::ProviderEdge, "{}: not a PE", pe.name);
        let ifc = t.interface(s.iface);
        assert_eq!(ifc.router, s.pe, "session iface on the wrong router");
        match ifc.kind {
            grca_net_model::InterfaceKind::CustomerFacing { customer } => {
                assert_eq!(customer, s.customer, "iface faces the wrong customer")
            }
            other => panic!("session iface has kind {other:?}"),
        }
        assert!(s.customer.index() < t.customers.len());
        assert_eq!(
            t.session_by_neighbor(s.pe, s.neighbor_ip)
                .map(|x| x.index()),
            Some(si),
            "neighbor lookup broken for {}",
            pe.name
        );
    }
}

/// Every OSPF area's PoPs form a connected subgraph over inter-PoP links
/// (core routers double as ABRs, so intra-area traffic never needs to
/// leave the area).
fn check_areas_connected(t: &Topology) {
    // PoP adjacency from logical links whose endpoints sit in different PoPs.
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for l in &t.links {
        let (ra, rb) = (t.interface(l.a).router, t.interface(l.b).router);
        let (pa, pb) = (t.router(ra).pop.index(), t.router(rb).pop.index());
        if pa != pb {
            adj.entry(pa).or_default().insert(pb);
            adj.entry(pb).or_default().insert(pa);
        }
    }
    let mut areas: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, p) in t.pops.iter().enumerate() {
        areas.entry(p.area).or_default().push(i);
    }
    for (area, members) in &areas {
        let set: BTreeSet<usize> = members.iter().copied().collect();
        let mut reached = BTreeSet::from([members[0]]);
        let mut frontier = vec![members[0]];
        while let Some(p) = frontier.pop() {
            for &q in adj.get(&p).into_iter().flatten() {
                if set.contains(&q) && reached.insert(q) {
                    frontier.push(q);
                }
            }
        }
        assert_eq!(
            reached.len(),
            members.len(),
            "area {area} not internally connected: {reached:?} of {members:?}"
        );
    }
}

/// PoP and customer fan-out match the generator config exactly: PoP count,
/// per-PoP core/PE counts, per-PE session count, per-card port bound, and
/// the 1..=6 sites-per-customer envelope.
fn check_fanout(t: &Topology, cfg: &TopoGenConfig) {
    assert_eq!(t.pops.len(), cfg.pops);
    let mut cores = vec![0usize; t.pops.len()];
    let mut pes = vec![0usize; t.pops.len()];
    for r in &t.routers {
        match r.role {
            RouterRole::Core => cores[r.pop.index()] += 1,
            RouterRole::ProviderEdge => pes[r.pop.index()] += 1,
            RouterRole::RouteReflector => {}
        }
    }
    for pi in 0..t.pops.len() {
        assert_eq!(cores[pi], cfg.cores_per_pop, "pop #{pi} core count");
        assert_eq!(pes[pi], cfg.pes_per_pop, "pop #{pi} PE count");
    }
    assert_eq!(
        t.sessions.len(),
        cfg.pops * cfg.pes_per_pop * cfg.sessions_per_pe
    );
    let mut per_pe: BTreeMap<usize, usize> = BTreeMap::new();
    let mut per_customer = vec![0usize; t.customers.len()];
    for s in &t.sessions {
        *per_pe.entry(s.pe.index()).or_default() += 1;
        per_customer[s.customer.index()] += 1;
    }
    for pe in t.provider_edges() {
        assert_eq!(
            per_pe.get(&pe.index()).copied().unwrap_or(0),
            cfg.sessions_per_pe,
            "{}",
            t.router(pe).name
        );
    }
    for card in &t.cards {
        assert!(card.interfaces.len() <= cfg.ports_per_card);
    }
    for (ci, sites) in per_customer.iter().enumerate() {
        assert!((1..=6).contains(sites), "customer #{ci} has {sites} sites");
    }
    for (pi, p) in t.pops.iter().enumerate() {
        if let Some(group) = pi.checked_div(cfg.pops_per_area) {
            assert_eq!(p.area, 1 + group as u32);
        }
    }
}

fn check_all(t: &Topology, cfg: &TopoGenConfig) {
    assert!(t.validate().is_empty(), "{:?}", t.validate());
    check_interface_ownership(t);
    check_session_endpoints(t);
    check_areas_connected(t);
    check_fanout(t, cfg);
}

#[test]
fn invariants_hold_at_every_preset() {
    for tier in TierConfig::all() {
        let topo = tier.generate();
        check_all(&topo, &tier.topo);
    }
}

/// The three configuration-derived reverse maps, computed from the whole
/// topology the way `SpatialModel::new` did before the indexes moved into
/// `Topology` — the reference the incrementally maintained ones must equal,
/// per-key order included (expansion order reaches evidence order).
struct ReverseMaps {
    links_of_phys: BTreeMap<PhysLinkId, Vec<LinkId>>,
    phys_of_l1: BTreeMap<L1DeviceId, Vec<PhysLinkId>>,
    loopback_of: BTreeMap<Ipv4, RouterId>,
}

fn reference_reverse_maps(topo: &Topology) -> ReverseMaps {
    let mut links_of_phys: BTreeMap<PhysLinkId, Vec<LinkId>> = BTreeMap::new();
    for (li, l) in topo.links.iter().enumerate() {
        for &p in &l.phys {
            links_of_phys.entry(p).or_default().push(LinkId::from(li));
        }
    }
    let mut phys_of_l1: BTreeMap<L1DeviceId, Vec<PhysLinkId>> = BTreeMap::new();
    for (pi, p) in topo.phys_links.iter().enumerate() {
        for &d in &p.l1_path {
            phys_of_l1.entry(d).or_default().push(PhysLinkId::from(pi));
        }
    }
    let loopback_of = topo
        .routers
        .iter()
        .enumerate()
        .map(|(i, r)| (r.loopback, RouterId::from(i)))
        .collect();
    ReverseMaps {
        links_of_phys,
        phys_of_l1,
        loopback_of,
    }
}

/// `topo`'s reverse indexes answer exactly what the reference maps hold,
/// for every circuit, layer-1 device and loopback (and nothing for an
/// address that is no loopback).
fn check_reverse_indexes(topo: &Topology, what: &str) {
    let ReverseMaps {
        links_of_phys,
        phys_of_l1,
        loopback_of,
    } = reference_reverse_maps(topo);
    for pi in 0..topo.phys_links.len() {
        let p = PhysLinkId::from(pi);
        let want = links_of_phys.get(&p).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(
            topo.links_on_circuit(p),
            want,
            "{what}: links of circuit #{pi}"
        );
    }
    for di in 0..topo.l1_devices.len() {
        let d = L1DeviceId::from(di);
        let want = phys_of_l1.get(&d).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(
            topo.circuits_through_l1(d),
            want,
            "{what}: circuits of device #{di}"
        );
    }
    for r in &topo.routers {
        assert_eq!(
            topo.router_by_loopback(r.loopback),
            loopback_of.get(&r.loopback).copied(),
            "{what}: loopback of {}",
            r.name
        );
    }
    assert_eq!(topo.router_by_loopback(Ipv4::new(203, 0, 113, 7)), None);
}

#[test]
fn reverse_indexes_match_a_full_scan_at_every_preset() {
    for tier in TierConfig::all() {
        let topo = tier.generate();
        assert!(!topo.phys_links.is_empty() && !topo.l1_devices.is_empty());
        check_reverse_indexes(&topo, tier.name);
        // Rebuilding over filled indexes must replace them, not append.
        let mut rebuilt = topo.clone();
        rebuilt.rebuild_indices();
        check_reverse_indexes(&rebuilt, tier.name);
    }
}

/// `name → position` by one scan over an entity vector's names; a repeated
/// name keeps its last holder, as a map filled by `insert` in arena order
/// does.
fn scan_names<'a>(names: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    names.enumerate().map(|(i, name)| (name, i)).collect()
}

/// The longest-prefix scan `Topology::ext_net_for` ran before its bucketed
/// table: among the nets containing `addr` the longest prefix wins, the
/// last of equals.
fn ext_net_scan(topo: &Topology, addr: Ipv4) -> Option<ClientSiteId> {
    topo.ext_nets
        .iter()
        .enumerate()
        .filter(|(_, n)| n.prefix.contains(addr))
        .max_by_key(|(_, n)| n.prefix.len)
        .map(|(i, _)| ClientSiteId::from(i))
}

/// Every name index of `topo` answers what a scan of the entity vectors
/// answers: each router, interface, circuit, layer-1 device and CDN node
/// name, SNMP system names in every spelling the feed uses (and two the
/// stack-buffer fold does not take), a member and some non-members of
/// every external net, and `None` for names nothing holds.
fn check_name_indexes(topo: &Topology, what: &str) {
    let routers = scan_names(topo.routers.iter().map(|r| r.name.as_str()));
    let router = |name: &str| routers.get(name).map(|&i| RouterId::from(i));
    for r in &topo.routers {
        assert_eq!(topo.router_by_name(&r.name), router(&r.name), "{what}");
    }
    assert_eq!(topo.router_by_name("ghost-router"), None);
    assert_eq!(topo.router_by_name(""), None);

    // The SNMP convention as it resolved before the allocation-free fold:
    // lower-case the whole name, drop the domain, look the rest up.
    let snmp = |system: &str| {
        let lower = system.to_lowercase();
        router(lower.strip_suffix(".isp.net").unwrap_or(&lower))
    };
    for r in &topo.routers {
        let upper = r.snmp_name();
        let mixed: String = upper
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            })
            .collect();
        let bare = r.name.to_uppercase();
        for system in [&upper, &upper.to_lowercase(), &mixed, &bare, &r.name] {
            let got = topo.router_by_snmp_name(system);
            assert_eq!(got, snmp(system), "{what}: snmp {system}");
            assert!(got.is_some(), "{what}: snmp {system} must resolve");
        }
    }
    let first = &topo.routers[0].name;
    for system in [
        "GHOST.ISP.NET".to_string(),
        ".ISP.NET".to_string(),
        String::new(),
        // Non-ASCII: the Kelvin sign lower-cases to an ASCII 'k', so only
        // the general path can fold it (onto `k-cr9`, where that exists).
        "\u{212a}-CR9.ISP.NET".to_string(),
        "nyc-pér1.isp.net".to_string(),
        // Longer than any stack buffer worth having.
        format!("{}.ISP.NET", "X".repeat(300)),
        format!("{}{first}", "x".repeat(100)),
    ] {
        assert_eq!(
            topo.router_by_snmp_name(&system),
            snmp(&system),
            "{what}: snmp {system:?}"
        );
    }

    for (ri, r) in topo.routers.iter().enumerate() {
        let rid = RouterId::from(ri);
        let on_router = || {
            r.cards
                .iter()
                .flat_map(|&c| topo.card(c).interfaces.iter().copied())
        };
        for iid in on_router() {
            let name = &topo.interface(iid).name;
            let want: Option<InterfaceId> = on_router()
                .filter(|&i| topo.interface(i).name == *name)
                .max();
            assert_eq!(topo.iface_by_name(rid, name), want, "{what}: {}", r.name);
            let ifindex = topo.interface(iid).if_index;
            let want: Option<InterfaceId> = on_router()
                .filter(|&i| topo.interface(i).if_index == ifindex)
                .max();
            assert_eq!(
                topo.iface_by_ifindex(rid, ifindex),
                want,
                "{what}: {}#{ifindex}",
                r.name
            );
        }
        assert_eq!(topo.iface_by_name(rid, "Serial99/99/9"), None);
        assert_eq!(topo.iface_by_ifindex(rid, 0), None);
        assert_eq!(topo.iface_by_ifindex(rid, u32::MAX), None);
    }
    let beyond = RouterId::from(topo.routers.len());
    assert_eq!(topo.iface_by_name(beyond, "Serial0/0/0"), None);
    assert_eq!(topo.iface_by_ifindex(beyond, 1), None);

    let circuits = scan_names(topo.phys_links.iter().map(|p| p.circuit.as_str()));
    for p in &topo.phys_links {
        assert_eq!(
            topo.circuit_by_name(&p.circuit),
            circuits
                .get(p.circuit.as_str())
                .map(|&i| PhysLinkId::from(i)),
            "{what}"
        );
    }
    assert_eq!(topo.circuit_by_name("CKT-NO-WHERE-0000"), None);

    let l1 = scan_names(topo.l1_devices.iter().map(|d| d.name.as_str()));
    for d in &topo.l1_devices {
        assert_eq!(
            topo.l1dev_by_name(&d.name),
            l1.get(d.name.as_str()).map(|&i| L1DeviceId::from(i)),
            "{what}"
        );
    }
    assert_eq!(topo.l1dev_by_name("adm-nowhere-0"), None);

    for n in &topo.cdn_nodes {
        assert_eq!(
            topo.cdn_node_by_name(&n.name).map(|id| id.index()),
            topo.cdn_nodes.iter().position(|m| m.name == n.name),
            "{what}: cdn node {}",
            n.name
        );
    }
    assert_eq!(topo.cdn_node_by_name("cdn-nowhere"), None);

    for n in &topo.ext_nets {
        let member = n.prefix.host(1);
        assert_eq!(
            topo.ext_net_for(member),
            ext_net_scan(topo, member),
            "{what}: member of {}",
            n.prefix
        );
        assert!(topo.ext_net_for(member).is_some());
    }
    for outsider in [
        Ipv4::new(0, 0, 0, 0),
        Ipv4::new(8, 8, 8, 8),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(127, 0, 0, 1),
        Ipv4::new(203, 0, 113, 7),
        Ipv4::new(255, 255, 255, 255),
    ] {
        assert_eq!(
            topo.ext_net_for(outsider),
            ext_net_scan(topo, outsider),
            "{what}: {outsider}"
        );
    }
}

/// `small()` plus the repeats no generator emits, so each index's winner
/// rule is pinned: a second router, circuit, layer-1 device and CDN node
/// of an existing name, two external nets with one prefix, and a coarser
/// and a finer net around an existing one. Also the one router a
/// non-ASCII SNMP name folds onto.
fn small_with_repeated_names() -> Topology {
    use grca_net_model::topology::L1DeviceKind;
    use grca_net_model::{L1Kind, Prefix};
    let mut t = generate(&TopoGenConfig::small());
    let pop = t.routers[0].pop;
    let name = t.routers[0].name.clone();
    t.add_router(name, RouterRole::Core, pop, Ipv4::new(10, 99, 0, 1));
    t.add_router("k-cr9", RouterRole::Core, pop, Ipv4::new(10, 99, 0, 2));
    let circuit = t.phys_links[0].circuit.clone();
    t.add_phys_link(circuit, L1Kind::Sonet, Vec::new());
    let dev = t.l1_devices[0].name.clone();
    t.add_l1_device(dev, L1DeviceKind::SonetAdm, pop);
    let node = t.cdn_nodes[0].clone();
    t.add_cdn_node(node.name, node.pop, node.attach_router, node.server_prefix);
    let net = t.ext_nets[0].clone();
    t.add_ext_net("twin", net.prefix, net.egress_candidates.clone());
    let coarse = Prefix::new(net.prefix.network(), net.prefix.len - 4);
    t.add_ext_net("coarse", coarse, net.egress_candidates.clone());
    let fine = Prefix::new(net.prefix.network(), net.prefix.len + 2);
    t.add_ext_net("fine", fine, net.egress_candidates);
    t
}

#[test]
fn name_indexes_match_a_full_scan_at_every_preset() {
    let mut topos = vec![
        ("small", generate(&TopoGenConfig::small())),
        ("small, repeated names", small_with_repeated_names()),
    ];
    topos.extend(TierConfig::all().map(|tier| (tier.name, tier.generate())));
    for (what, topo) in topos {
        assert!(!topo.cdn_nodes.is_empty() && !topo.ext_nets.is_empty());
        check_name_indexes(&topo, what);
        // Rebuilding over filled indexes must replace them and pick the
        // same winners as the builders did.
        let mut rebuilt = topo.clone();
        rebuilt.rebuild_indices();
        check_name_indexes(&rebuilt, what);
    }
}

/// Indexes are skipped by serialization: a round trip answers nothing
/// until `rebuild_indices`, then the same as the builders' indexes. Small
/// topology only — the vendored JSON reader is quadratic in document size.
#[test]
fn reverse_indexes_survive_a_serde_round_trip() {
    let topo = generate(&TopoGenConfig::small());
    let json = serde_json::to_string(&topo).expect("serialize topology");
    let mut back: Topology = serde_json::from_str(&json).expect("deserialize topology");
    assert_eq!(back.router_by_loopback(topo.routers[0].loopback), None);
    assert_eq!(back.router_by_name(&topo.routers[0].name), None);
    assert_eq!(back.iface_by_name(RouterId::new(0), "Serial0/0/0"), None);
    assert_eq!(back.cdn_node_by_name(&topo.cdn_nodes[0].name), None);
    assert_eq!(back.ext_net_for(topo.ext_nets[0].prefix.host(1)), None);
    back.rebuild_indices();
    check_reverse_indexes(&back, "small, round-tripped");
    check_name_indexes(&back, "small, round-tripped");
}

#[test]
fn tier1_is_tier1_scale() {
    let tier = TierConfig::tier1();
    let topo = tier.generate();
    assert!(topo.pops.len() >= 100, "hundreds of PoPs");
    assert!(topo.routers.len() >= 1000, "thousands of routers");
    assert!(
        topo.interfaces.len() >= 10_000,
        "tens of thousands of interfaces"
    );
    assert!(
        topo.sessions.len() >= 10_000,
        "tens of thousands of sessions"
    );
    assert!(
        tier.subscribers(&topo) >= 1_000_000,
        "millions of represented subscribers"
    );
    // Many non-backbone areas, each a bounded PoP group.
    let areas: BTreeSet<u32> = topo.pops.iter().map(|p| p.area).collect();
    assert!(areas.len() >= 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The invariants are seed-independent properties of the generator,
    /// not accidents of the preset seeds.
    #[test]
    fn invariants_hold_for_arbitrary_seeds(seed in 0u64..10_000) {
        let tier = TierConfig::smoke().with_seed(seed);
        let topo = tier.generate();
        check_all(&topo, &tier.topo);
    }

    /// Area grouping stays connected for arbitrary area sizes.
    #[test]
    fn areas_connected_for_arbitrary_grouping(
        pops in 2usize..10,
        per_area in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = TopoGenConfig {
            pops,
            pops_per_area: per_area,
            seed,
            ..TopoGenConfig::small()
        };
        let topo = generate(&cfg);
        check_areas_connected(&topo);
    }
}
