//! Time-versioned OSPF link-state database and SPF computation.
//!
//! [`OspfState`] starts from the topology's base link weights and applies a
//! chronologically ordered stream of [`WeightEvent`]s — exactly what an
//! OSPF monitor listening to flooded LSAs produces. Any historical instant
//! can then be queried: per-link weight, Dijkstra shortest-path DAG, and
//! the union of routers/links over all equal-cost shortest paths.
//!
//! A "cost out" or link failure is a weight of `None` (infinite); OSPF
//! reconvergence simply emerges from querying before/after the event time.

use grca_net_model::{LinkId, RouterId, Topology};
use grca_types::Timestamp;
use std::collections::BinaryHeap;

/// One observed link-weight change (from the OSPF monitoring feed).
///
/// `weight == None` means the link left the topology (cost out / down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightEvent {
    pub time: Timestamp,
    pub link: LinkId,
    pub weight: Option<u32>,
}

/// The reconstructed link-state database.
pub struct OspfState {
    /// Base weight per link (from configuration), index = `LinkId`.
    base: Vec<u32>,
    /// Per-link event history, each sorted by time.
    history: Vec<Vec<(Timestamp, Option<u32>)>>,
    /// All event times, sorted — defines the *epoch* used for caching.
    epochs: Vec<Timestamp>,
    /// Adjacency: for each router, (link, peer) pairs.
    adj: Vec<Vec<(LinkId, RouterId)>>,
    n_routers: usize,
}

impl OspfState {
    /// Build from topology base weights plus a monitoring event stream.
    /// Events need not be pre-sorted.
    pub fn new(topo: &Topology, mut events: Vec<WeightEvent>) -> Self {
        events.sort_by_key(|e| (e.time, e.link.index()));
        let mut history = vec![Vec::new(); topo.links.len()];
        let mut epochs = Vec::with_capacity(events.len());
        for e in &events {
            history[e.link.index()].push((e.time, e.weight));
            epochs.push(e.time);
        }
        epochs.dedup();
        let mut adj = vec![Vec::new(); topo.routers.len()];
        for (li, _) in topo.links.iter().enumerate() {
            let l = LinkId::from(li);
            let (ra, rb) = topo.link_routers(l);
            adj[ra.index()].push((l, rb));
            adj[rb.index()].push((l, ra));
        }
        OspfState {
            base: topo.links.iter().map(|l| l.base_weight).collect(),
            history,
            epochs,
            adj,
            n_routers: topo.routers.len(),
        }
    }

    /// The state epoch at time `t`: increases monotonically with each
    /// observed change, so equal epochs guarantee identical routing state.
    pub fn epoch(&self, t: Timestamp) -> usize {
        self.epochs.partition_point(|&e| e <= t)
    }

    /// The effective weight of `link` at time `t` (`None` = down/cost-out).
    pub fn weight_at(&self, link: LinkId, t: Timestamp) -> Option<u32> {
        let h = &self.history[link.index()];
        let idx = h.partition_point(|&(et, _)| et <= t);
        if idx == 0 {
            Some(self.base[link.index()])
        } else {
            h[idx - 1].1
        }
    }

    /// Dijkstra SPF from `src` at time `t`. Returns per-router distance
    /// (`u64::MAX` = unreachable).
    pub fn spf(&self, src: RouterId, t: Timestamp) -> SpfResult {
        let mut dist = vec![u64::MAX; self.n_routers];
        dist[src.index()] = 0;
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, src.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(link, peer) in &self.adj[u as usize] {
                let Some(w) = self.weight_at(link, t) else {
                    continue;
                };
                let nd = d + w as u64;
                if nd < dist[peer.index()] {
                    dist[peer.index()] = nd;
                    heap.push(std::cmp::Reverse((nd, peer.0)));
                }
            }
        }
        SpfResult { src, t, dist }
    }

    /// IGP distance between two routers at `t` (`None` if partitioned).
    pub fn distance(&self, a: RouterId, b: RouterId, t: Timestamp) -> Option<u64> {
        let d = self.spf(a, t).dist[b.index()];
        (d != u64::MAX).then_some(d)
    }

    /// The union of routers on *all* equal-cost shortest paths from `a` to
    /// `b` at `t`, including both endpoints. Empty if unreachable.
    ///
    /// ECMP handling per §II-B: "In the case of Equal Cost Multipath, all
    /// network elements along all paths will be considered."
    pub fn ecmp_routers(&self, a: RouterId, b: RouterId, t: Timestamp) -> Vec<RouterId> {
        self.ecmp_union(a, b, t).0
    }

    /// The union of links on all equal-cost shortest paths from `a` to `b`.
    pub fn ecmp_links(&self, a: RouterId, b: RouterId, t: Timestamp) -> Vec<LinkId> {
        self.ecmp_union(a, b, t).1
    }

    /// Compute both unions in one pass: forward SPF from `a`, then a
    /// backward walk from `b` across tight edges
    /// (`dist[u] + w(u,v) == dist[v]`).
    pub fn ecmp_union(
        &self,
        a: RouterId,
        b: RouterId,
        t: Timestamp,
    ) -> (Vec<RouterId>, Vec<LinkId>) {
        self.ecmp_union_from(&self.spf(a, t), b, t)
    }

    /// [`ecmp_union`](Self::ecmp_union) with the forward SPF supplied by
    /// the caller — the backward walk alone. `spf` must be a result of
    /// [`spf`](Self::spf) from the pair's source at an instant in the same
    /// epoch as `t` (distances are constant within an epoch, so any such
    /// result yields the identical union). Callers that sweep many
    /// destinations from one source amortize the Dijkstra this way.
    pub fn ecmp_union_from(
        &self,
        spf: &SpfResult,
        b: RouterId,
        t: Timestamp,
    ) -> (Vec<RouterId>, Vec<LinkId>) {
        if spf.dist[b.index()] == u64::MAX {
            return (Vec::new(), Vec::new());
        }
        let mut on_path = vec![false; self.n_routers];
        let mut links = Vec::new();
        let mut link_seen = vec![false; self.base.len()];
        let mut stack = vec![b];
        on_path[b.index()] = true;
        while let Some(v) = stack.pop() {
            let dv = spf.dist[v.index()];
            for &(link, u) in &self.adj[v.index()] {
                let Some(w) = self.weight_at(link, t) else {
                    continue;
                };
                let du = spf.dist[u.index()];
                if du != u64::MAX && du + w as u64 == dv {
                    if !link_seen[link.index()] {
                        link_seen[link.index()] = true;
                        links.push(link);
                    }
                    if !on_path[u.index()] {
                        on_path[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
        }
        let routers = (0..self.n_routers)
            .filter(|&i| on_path[i])
            .map(RouterId::from)
            .collect();
        links.sort();
        (routers, links)
    }
}

/// One SPF run's output.
pub struct SpfResult {
    pub src: RouterId,
    pub t: Timestamp,
    /// Distance per router index; `u64::MAX` = unreachable.
    pub dist: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_net_model::{InterfaceKind, Ipv4, RouterRole, Topology};
    use grca_types::TimeZone;

    /// A 4-router diamond: a -(1)- m1 -(1)- b, a -(1)- m2 -(1)- b, plus a
    /// direct a -(5)- b backup link.
    fn diamond() -> (Topology, [RouterId; 4]) {
        let mut t = Topology::new();
        let p = t.add_pop("x", TimeZone::UTC);
        let mk = |t: &mut Topology, n: &str, i: u32| {
            t.add_router(n, RouterRole::Core, p, Ipv4(0x0A000000 + i))
        };
        let a = mk(&mut t, "a", 1);
        let m1 = mk(&mut t, "m1", 2);
        let m2 = mk(&mut t, "m2", 3);
        let b = mk(&mut t, "b", 4);
        let d = t.add_l1_device(
            "adm-x-1",
            grca_net_model::topology::L1DeviceKind::SonetAdm,
            p,
        );
        let mut net = 0u32;
        let mut link = |t: &mut Topology, ra: RouterId, rb: RouterId, w: u32| {
            let ca = t.add_card(ra, net as u8);
            let cb = t.add_card(rb, net as u8);
            let base = 0x0A80_0000 | (net << 2);
            net += 1;
            let ia = t.add_interface(ca, 0, Some(Ipv4(base | 1)), InterfaceKind::Backbone);
            let ib = t.add_interface(cb, 0, Some(Ipv4(base | 2)), InterfaceKind::Backbone);
            let pl = t.add_phys_link(
                format!("CKT-{net:04}"),
                grca_net_model::L1Kind::Sonet,
                vec![d],
            );
            t.add_link(ia, ib, w, vec![pl], 10_000)
        };
        link(&mut t, a, m1, 1);
        link(&mut t, m1, b, 1);
        link(&mut t, a, m2, 1);
        link(&mut t, m2, b, 1);
        link(&mut t, a, b, 5);
        (t, [a, m1, m2, b])
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_unix(s)
    }

    /// The split form (caller-supplied SPF) returns exactly what the
    /// one-shot form computes, including at a different (same-epoch)
    /// query instant.
    #[test]
    fn ecmp_union_from_matches_one_shot() {
        let (t, [a, _, _, b]) = diamond();
        let o = OspfState::new(
            &t,
            vec![WeightEvent {
                time: ts(100),
                link: LinkId::new(0),
                weight: None,
            }],
        );
        for (spf_t, query_t) in [(ts(0), ts(0)), (ts(0), ts(99)), (ts(100), ts(200))] {
            let spf = o.spf(a, spf_t);
            assert_eq!(
                o.ecmp_union_from(&spf, b, query_t),
                o.ecmp_union(a, b, query_t)
            );
        }
    }

    #[test]
    fn spf_basic_distance() {
        let (t, [a, m1, _, b]) = diamond();
        let o = OspfState::new(&t, vec![]);
        assert_eq!(o.distance(a, b, ts(0)), Some(2));
        assert_eq!(o.distance(a, m1, ts(0)), Some(1));
        assert_eq!(o.distance(a, a, ts(0)), Some(0));
    }

    #[test]
    fn ecmp_union_includes_both_paths() {
        let (t, [a, m1, m2, b]) = diamond();
        let o = OspfState::new(&t, vec![]);
        let routers = o.ecmp_routers(a, b, ts(0));
        assert!(routers.contains(&m1) && routers.contains(&m2));
        assert!(routers.contains(&a) && routers.contains(&b));
        let links = o.ecmp_links(a, b, ts(0));
        assert_eq!(links.len(), 4); // the four weight-1 edges, not the backup
        assert!(!links.contains(&LinkId::new(4)));
    }

    #[test]
    fn weight_event_changes_paths() {
        let (t, [a, m1, m2, b]) = diamond();
        // At t=100, link a-m1 is cost out (down).
        let o = OspfState::new(
            &t,
            vec![WeightEvent {
                time: ts(100),
                link: LinkId::new(0),
                weight: None,
            }],
        );
        // Before: ECMP over both middles.
        assert!(o.ecmp_routers(a, b, ts(99)).contains(&m1));
        // After: only via m2.
        let after = o.ecmp_routers(a, b, ts(100));
        assert!(!after.contains(&m1));
        assert!(after.contains(&m2));
        assert_eq!(o.distance(a, b, ts(100)), Some(2));
    }

    #[test]
    fn weight_increase_reroutes() {
        let (t, [a, _, _, b]) = diamond();
        // Cost both middle paths to 100: direct backup (5) wins.
        let o = OspfState::new(
            &t,
            vec![
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(0),
                    weight: Some(100),
                },
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(2),
                    weight: Some(100),
                },
            ],
        );
        assert_eq!(o.distance(a, b, ts(9)), Some(2));
        assert_eq!(o.distance(a, b, ts(10)), Some(5));
        assert_eq!(o.ecmp_links(a, b, ts(10)), vec![LinkId::new(4)]);
    }

    #[test]
    fn restoration_revives_link() {
        let (t, [a, m1, _, b]) = diamond();
        let o = OspfState::new(
            &t,
            vec![
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(0),
                    weight: None,
                },
                WeightEvent {
                    time: ts(50),
                    link: LinkId::new(0),
                    weight: Some(1),
                },
            ],
        );
        assert!(!o.ecmp_routers(a, b, ts(20)).contains(&m1));
        assert!(o.ecmp_routers(a, b, ts(50)).contains(&m1));
    }

    #[test]
    fn partition_reports_unreachable() {
        let (t, [a, _, _, b]) = diamond();
        let down = |l: u32| WeightEvent {
            time: ts(0),
            link: LinkId::new(l),
            weight: None,
        };
        let o = OspfState::new(&t, vec![down(0), down(2), down(4)]);
        assert_eq!(o.distance(a, b, ts(0)), None);
        assert!(o.ecmp_routers(a, b, ts(0)).is_empty());
        assert!(o.ecmp_links(a, b, ts(0)).is_empty());
    }

    #[test]
    fn epoch_counts_event_times() {
        let (t, _) = diamond();
        let o = OspfState::new(
            &t,
            vec![
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(0),
                    weight: None,
                },
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(1),
                    weight: None,
                },
                WeightEvent {
                    time: ts(30),
                    link: LinkId::new(0),
                    weight: Some(1),
                },
            ],
        );
        assert_eq!(o.epoch(ts(0)), 0);
        assert_eq!(o.epoch(ts(10)), 1); // both t=10 events share one epoch
        assert_eq!(o.epoch(ts(29)), 1);
        assert_eq!(o.epoch(ts(30)), 2);
    }

    #[test]
    fn unsorted_events_are_sorted() {
        let (t, [a, m1, _, b]) = diamond();
        let o = OspfState::new(
            &t,
            vec![
                WeightEvent {
                    time: ts(50),
                    link: LinkId::new(0),
                    weight: Some(1),
                },
                WeightEvent {
                    time: ts(10),
                    link: LinkId::new(0),
                    weight: None,
                },
            ],
        );
        assert!(!o.ecmp_routers(a, b, ts(20)).contains(&m1));
        assert!(o.ecmp_routers(a, b, ts(60)).contains(&m1));
    }

    #[test]
    fn generated_topology_fully_connected() {
        let topo = generate(&TopoGenConfig::small());
        let o = OspfState::new(&topo, vec![]);
        let a = RouterId::new(0);
        for r in 0..topo.routers.len() {
            // Route reflectors have no links; skip them.
            if topo.router(RouterId::from(r)).role == RouterRole::RouteReflector {
                continue;
            }
            assert!(
                o.distance(a, RouterId::from(r), ts(0)).is_some(),
                "router {} unreachable",
                topo.router(RouterId::from(r)).name
            );
        }
    }
}
