//! Tier-preset generator guarantees: seed determinism (byte-identical
//! serialized topologies) and structural invariants at every preset.
//!
//! The scenario-manifest reproducibility story rests on these: a soak run
//! is replayable only if `(TierConfig, seed)` pins the topology exactly.

use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{
    Ipv4, L1DeviceId, LinkId, PhysLinkId, RouterId, RouterRole, TierConfig, Topology,
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

/// Indexes are skipped by serialization: a round trip answers nothing
/// until `rebuild_indices`, then the same as the builders' indexes. Small
/// topology only — the vendored JSON reader is quadratic in document size.
#[test]
fn reverse_indexes_survive_a_serde_round_trip() {
    let topo = generate(&TopoGenConfig::small());
    let json = serde_json::to_string(&topo).expect("serialize topology");
    let mut back: Topology = serde_json::from_str(&json).expect("deserialize topology");
    assert_eq!(back.router_by_loopback(topo.routers[0].loopback), None);
    back.rebuild_indices();
    check_reverse_indexes(&back, "small, round-tripped");
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
