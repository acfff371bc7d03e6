//! [`RoutingState`]: OSPF + BGP reconstruction behind the
//! [`RouteOracle`] trait, with memoization.
//!
//! Path and egress queries are heavily repeated by the RCA engine (every
//! spatial join of a path-located event re-asks for the path at the
//! symptom's instant). Results depend only on the (OSPF epoch, BGP epoch)
//! pair, so an interior-mutability cache keyed on epochs makes repeated
//! diagnosis cheap without compromising the "as of time T" semantics. The
//! paper observes that CDN diagnosis time is dominated by interdomain and
//! intradomain route computation (§III-B) — this cache is what keeps the
//! amortized cost tolerable.
//!
//! The caches are *sharded*: parallel diagnosis hammers them from every
//! worker, and a single `Mutex<HashMap>` serializes the whole engine on
//! what is overwhelmingly a read workload. Each cache is split into
//! `SHARDS` independent `RwLock<HashMap>`s selected by key hash, so
//! readers of different (and usually even the same) keys proceed in
//! parallel and writers only contend within one shard.
//!
//! One struct, [`FrozenRoutingState`], owns the reconstructions and the
//! caches, and one [`RouteOracle`] body answers from it. A
//! [`RoutingState`] is that struct plus the topology it was reconstructed
//! over; [`RoutingState::freeze`] hands the struct out so it can outlive
//! the borrow (a serving snapshot keeps it behind an `Arc`) and
//! [`RoutingState::thaw`] wraps it again. Both are moves: warm entries
//! stay where they are, and a query memoizes the same way on either side.

use crate::bgp::BgpState;
use crate::ospf::{OspfState, SpfResult};
use grca_net_model::{Ipv4, LinkId, Prefix, RouteOracle, RouterId, Topology};
use grca_types::Timestamp;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Arc;

/// Shard count for the route caches. More than any plausible worker count;
/// a power of two so the hash → shard mapping is a mask.
const SHARDS: usize = 16;

/// A hash map split into independently locked shards.
struct ShardedCache<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARDS],
    hasher: RandomState,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    fn new() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        &self.shards[self.hasher.hash_one(key) as usize & (SHARDS - 1)]
    }

    /// Fetch `key`, computing and caching it on a miss. The value is
    /// computed — and the insert's clone taken — outside any lock: a
    /// racing thread may compute the same value twice, but readers are
    /// never blocked behind a path computation, and the write lock is
    /// held only for the map insert itself. A cold-cache miss storm
    /// therefore runs its recomputations fully in parallel (see the
    /// `miss_storm_does_not_serialize_readers` regression test).
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        if let Some(hit) = shard.read().get(&key) {
            return hit.clone();
        }
        let val = compute();
        let insert = val.clone();
        let mut w = shard.write();
        w.entry(key).or_insert(insert);
        drop(w);
        val
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// Cache key for ECMP path queries: (src, dst, OSPF epoch).
type PathKey = (RouterId, RouterId, usize);
/// Cache key for egress queries: (ingress, prefix, OSPF epoch, BGP epoch).
type EgressKey = (RouterId, Prefix, usize, usize);
/// Cache key for per-source SPF results: (src, OSPF epoch).
type SpfKey = (RouterId, usize);

/// Reconstructed routing state without its topology borrow: the OSPF/BGP
/// reconstructions plus the sharded memo caches every query goes through.
///
/// It holds no topology reference so it can be stored in long-lived (e.g.
/// `Arc`-shared) serving snapshots; pair it with a topology via
/// [`FrozenRoutingState::oracle`] to answer queries, or
/// [`RoutingState::thaw`] to get the live form back. "Frozen" names where
/// it sits (detached from the borrow, shared read-only by reference), not
/// what it can do: a query that misses computes from the pure OSPF/BGP
/// state and memoizes, exactly as on the live side — memoization only
/// affects speed, never answers.
pub struct FrozenRoutingState {
    pub ospf: OspfState,
    pub bgp: BgpState,
    path_cache: ShardedCache<PathKey, (Vec<RouterId>, Vec<LinkId>)>,
    egress_cache: ShardedCache<EgressKey, Option<RouterId>>,
    /// Optional per-source SPF memo (see [`RoutingState::with_spf_cache`]).
    /// `None` reproduces the historical cost model: every path-cache miss
    /// pays a full Dijkstra even when the source repeats.
    spf_cache: Option<ShardedCache<SpfKey, Arc<SpfResult>>>,
}

impl FrozenRoutingState {
    /// Bind a topology to get a [`RouteOracle`] view.
    pub fn oracle<'t>(&'t self, topo: &'t Topology) -> FrozenOracle<'t> {
        FrozenOracle { topo, state: self }
    }

    /// Number of memoized path + egress entries.
    pub fn cached_entries(&self) -> usize {
        self.path_cache.len() + self.egress_cache.len()
    }

    fn ecmp(&self, a: RouterId, b: RouterId, at: Timestamp) -> (Vec<RouterId>, Vec<LinkId>) {
        let key = (a, b, self.ospf.epoch(at));
        self.path_cache
            .get_or_insert_with(key, || match self.cached_spf(a, at) {
                Some(spf) => self.ospf.ecmp_union_from(&spf, b, at),
                None => self.ospf.ecmp_union(a, b, at),
            })
    }

    /// The memoized SPF from `src`, if the per-source cache is enabled.
    fn cached_spf(&self, src: RouterId, at: Timestamp) -> Option<Arc<SpfResult>> {
        let spfs = self.spf_cache.as_ref()?;
        let epoch = self.ospf.epoch(at);
        Some(spfs.get_or_insert_with((src, epoch), || Arc::new(self.ospf.spf(src, at))))
    }
}

/// A [`RouteOracle`] over a [`FrozenRoutingState`] bound to a topology —
/// the one implementation of the routing queries; [`RoutingState`]
/// forwards to it.
pub struct FrozenOracle<'t> {
    topo: &'t Topology,
    state: &'t FrozenRoutingState,
}

impl RouteOracle for FrozenOracle<'_> {
    fn egress_for(&self, ingress: RouterId, dst: Prefix, at: Timestamp) -> Option<RouterId> {
        let s = self.state;
        let key = (ingress, dst, s.ospf.epoch(at), s.bgp.epoch(at));
        s.egress_cache
            .get_or_insert_with(key, || match s.cached_spf(ingress, at) {
                // Hot-potato distances from the memoized per-source SPF:
                // a sweep over many prefixes from one ingress (the CDN
                // pair scan) pays for the Dijkstra once, not per prefix.
                Some(spf) => s.bgp.best_egress_from(&spf, ingress, dst, at),
                None => s.bgp.best_egress(&s.ospf, ingress, dst, at),
            })
    }

    fn ingress_for(&self, src: Ipv4, _at: Timestamp) -> Option<RouterId> {
        // NetFlow-style mapping approximated by the external net's primary
        // attachment (utility 1 of §II-B: "sometimes needs external mapping
        // information").
        let net = self.topo.ext_net_for(src)?;
        self.topo.ext_net(net).egress_candidates.first().copied()
    }

    fn path_routers(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<RouterId> {
        self.state.ecmp(a, b, at).0
    }

    fn path_links(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<LinkId> {
        self.state.ecmp(a, b, at).1
    }

    /// Routing epochs fully determine every answer above, so the packed
    /// (OSPF, BGP) epoch pair is a valid memoization fingerprint.
    fn epoch(&self, at: Timestamp) -> u64 {
        ((self.state.ospf.epoch(at) as u64) << 32) | (self.state.bgp.epoch(at) as u64 & 0xffff_ffff)
    }
}

/// Reconstructed routing state over a fixed topology.
pub struct RoutingState<'a> {
    topo: &'a Topology,
    state: FrozenRoutingState,
}

impl<'a> RoutingState<'a> {
    pub fn new(topo: &'a Topology, ospf: OspfState, bgp: BgpState) -> Self {
        let state = FrozenRoutingState {
            ospf,
            bgp,
            path_cache: ShardedCache::new(),
            egress_cache: ShardedCache::new(),
            spf_cache: None,
        };
        RoutingState { topo, state }
    }

    /// Enable per-source SPF memoization: path-cache misses that share a
    /// source router reuse one Dijkstra per (source, OSPF epoch) and pay
    /// only the per-destination backward walk. Sweeping P pairs drawn
    /// from S sources costs S full SPFs instead of P — the difference
    /// between seconds and tens of milliseconds when the simulator's
    /// reconvergence pass scans every MVPN pair against a failed link.
    /// Purely a cost-model change: answers are identical with or without
    /// (the split walk is property-tested against the one-shot form).
    pub fn with_spf_cache(mut self) -> Self {
        self.state.spf_cache = Some(ShardedCache::new());
        self
    }

    /// Routing state with no observed OSPF/BGP changes: base weights and
    /// baseline reachability from the topology. Useful for tests.
    pub fn baseline(topo: &'a Topology) -> Self {
        let ospf = OspfState::new(topo, Vec::new());
        let baseline = topo
            .ext_nets
            .iter()
            .flat_map(|n| {
                n.egress_candidates
                    .iter()
                    .map(|&e| (n.prefix, e, crate::bgp::RouteAttrs::default()))
            })
            .collect();
        let bgp = BgpState::new(baseline, Vec::new());
        RoutingState::new(topo, ospf, bgp)
    }

    /// Re-bind a topology to a state [`RoutingState::freeze`] handed out.
    /// Everything the previous owner warmed (e.g. the simulator's
    /// reconvergence path queries) stays warm instead of re-paying
    /// per-source SPF. Only sound when `topo` is the same topology the
    /// state was reconstructed over; cache entries key on routing epochs
    /// within that topology.
    pub fn thaw(topo: &'a Topology, frozen: FrozenRoutingState) -> Self {
        RoutingState {
            topo,
            state: frozen,
        }
    }

    /// Give up the topology borrow, keeping the reconstructions and every
    /// memoized entry — the form a serving snapshot stores.
    pub fn freeze(self) -> FrozenRoutingState {
        self.state
    }

    fn oracle(&self) -> FrozenOracle<'_> {
        self.state.oracle(self.topo)
    }

    /// Does any equal-cost shortest path from `a` to `b` at `at` use
    /// `link`? Exactly `self.path_links(a, b, at).contains(&link)`, but
    /// with the per-source SPF cache enabled it is answered from two
    /// memoized distance arrays in O(1): an edge (u, v) of weight w lies
    /// on some shortest a→b path iff
    /// `dist_a(u) + w + dist_b(v) == dist_a(b)` in one orientation
    /// (distances are symmetric on the undirected IGP graph). Sweeping
    /// every MVPN pair against a failed link — the simulator's
    /// reconvergence scan — thus costs one SPF per distinct endpoint
    /// instead of one union walk per pair.
    pub fn path_uses_link(&self, a: RouterId, b: RouterId, link: LinkId, at: Timestamp) -> bool {
        let s = &self.state;
        let (Some(sa), Some(sb)) = (s.cached_spf(a, at), s.cached_spf(b, at)) else {
            return self.path_links(a, b, at).contains(&link);
        };
        let Some(w) = s.ospf.weight_at(link, at) else {
            return false;
        };
        let dab = sa.dist[b.index()];
        if dab == u64::MAX {
            return false;
        }
        let (u, v) = self.topo.link_routers(link);
        let w = w as u64;
        let tight = |du: u64, dv: u64| du != u64::MAX && dv != u64::MAX && du + w + dv == dab;
        tight(sa.dist[u.index()], sb.dist[v.index()])
            || tight(sa.dist[v.index()], sb.dist[u.index()])
    }

    /// Does any equal-cost shortest path from `a` to `b` at `at` pass
    /// through `r` (endpoints included)? Exactly
    /// `self.path_routers(a, b, at).contains(&r)`; with the per-source
    /// SPF cache the membership test is `dist_a(r) + dist_b(r) ==
    /// dist_a(b)` — O(1) from two memoized distance arrays.
    pub fn path_uses_router(&self, a: RouterId, b: RouterId, r: RouterId, at: Timestamp) -> bool {
        let s = &self.state;
        let (Some(sa), Some(sb)) = (s.cached_spf(a, at), s.cached_spf(b, at)) else {
            return self.path_routers(a, b, at).contains(&r);
        };
        let dab = sa.dist[b.index()];
        if dab == u64::MAX {
            return false;
        }
        let (da, db) = (sa.dist[r.index()], sb.dist[r.index()]);
        da != u64::MAX && db != u64::MAX && da + db == dab
    }
}

impl RouteOracle for RoutingState<'_> {
    fn egress_for(&self, ingress: RouterId, dst: Prefix, at: Timestamp) -> Option<RouterId> {
        self.oracle().egress_for(ingress, dst, at)
    }
    fn ingress_for(&self, src: Ipv4, at: Timestamp) -> Option<RouterId> {
        self.oracle().ingress_for(src, at)
    }
    fn path_routers(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<RouterId> {
        self.oracle().path_routers(a, b, at)
    }
    fn path_links(&self, a: RouterId, b: RouterId, at: Timestamp) -> Vec<LinkId> {
        self.oracle().path_links(a, b, at)
    }
    fn epoch(&self, at: Timestamp) -> u64 {
        self.oracle().epoch(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::WeightEvent;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_net_model::{JoinLevel, Location, SpatialModel};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_unix(s)
    }

    #[test]
    fn egress_for_matches_with_and_without_spf_cache() {
        let topo = generate(&TopoGenConfig::small());
        let plain = RoutingState::baseline(&topo);
        let cached = RoutingState::baseline(&topo).with_spf_cache();
        // Every (CDN ingress, external prefix) pair — the shape of the
        // simulator's CDN crossing scan. One Dijkstra per ingress on the
        // cached side, one per *pair* on the plain side; same answers.
        let mut ingresses = std::collections::BTreeSet::new();
        for n in 0..topo.cdn_nodes.len() {
            ingresses.insert(
                topo.cdn_node(grca_net_model::CdnNodeId::from(n))
                    .attach_router,
            );
        }
        for &ingress in &ingresses {
            for c in 0..topo.ext_nets.len() {
                let prefix = topo.ext_net(grca_net_model::ClientSiteId::from(c)).prefix;
                assert_eq!(
                    cached.egress_for(ingress, prefix, ts(0)),
                    plain.egress_for(ingress, prefix, ts(0)),
                    "ingress {ingress:?} prefix {prefix:?}"
                );
            }
        }
        assert_eq!(
            cached.state.spf_cache.as_ref().unwrap().len(),
            ingresses.len()
        );
    }

    #[test]
    fn baseline_oracle_answers_paths() {
        let topo = generate(&TopoGenConfig::small());
        let rs = RoutingState::baseline(&topo);
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let routers = rs.path_routers(a, b, ts(0));
        assert!(routers.contains(&a) && routers.contains(&b));
        assert!(routers.len() >= 3);
        assert!(!rs.path_links(a, b, ts(0)).is_empty());
    }

    #[test]
    fn oracle_cache_consistent_across_epochs() {
        let topo = generate(&TopoGenConfig::small());
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        // Fail one on-path link at t=100 and verify the reconstructed path
        // differs before/after, including on repeated (cached) queries.
        let base = RoutingState::baseline(&topo);
        let links_before = base.path_links(a, b, ts(0));
        let victim = links_before[0];
        let ospf = OspfState::new(
            &topo,
            vec![WeightEvent {
                time: ts(100),
                link: victim,
                weight: None,
            }],
        );
        let rs = RoutingState::new(&topo, ospf, BgpState::new(vec![], vec![]));
        let before = rs.path_links(a, b, ts(50));
        let after = rs.path_links(a, b, ts(150));
        assert!(before.contains(&victim));
        assert!(!after.contains(&victim));
        // Cached retrieval returns identical results.
        assert_eq!(rs.path_links(a, b, ts(50)), before);
        assert_eq!(rs.path_links(a, b, ts(150)), after);
        // Different instants within one epoch share state.
        assert_eq!(rs.path_links(a, b, ts(99)), before);
    }

    #[test]
    fn egress_query_via_spatial_model() {
        let topo = generate(&TopoGenConfig::small());
        let rs = RoutingState::baseline(&topo);
        let sm = SpatialModel::new(&topo, &rs);
        let node = grca_net_model::CdnNodeId::new(0);
        let client = grca_net_model::ClientSiteId::new(0);
        let loc = Location::ServerClient { node, client };
        let pair = sm.expand(&loc, ts(0), JoinLevel::IngressEgress);
        assert_eq!(pair.len(), 1);
        // The egress is one of the client's candidates.
        if let Location::IngressEgress { egress, .. } = pair[0] {
            assert!(topo.ext_net(client).egress_candidates.contains(&egress));
        } else {
            panic!("expected ingress:egress");
        }
        // The router-level path is non-empty and contains the attach router.
        let path = sm.expand(&loc, ts(0), JoinLevel::RouterPath);
        assert!(path.contains(&Location::Router(topo.cdn_node(node).attach_router)));
    }

    #[test]
    fn sharded_cache_agrees_under_concurrency() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0u32..200 {
                        assert_eq!(cache.get_or_insert_with(k, || k * 7), k * 7);
                    }
                });
            }
        });
        // Every key cached exactly once despite racing writers.
        assert_eq!(cache.len(), 200);
        assert_eq!(cache.get_or_insert_with(3, || unreachable!()), 21);
    }

    #[test]
    fn path_cache_populates_once_per_epoch() {
        let topo = generate(&TopoGenConfig::small());
        let rs = RoutingState::baseline(&topo);
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let first = rs.path_routers(a, b, ts(0));
        let entries = rs.state.path_cache.len();
        assert_eq!(entries, 1);
        // Same epoch, different instant: cache hit, no new entry.
        assert_eq!(rs.path_routers(a, b, ts(9999)), first);
        assert_eq!(rs.state.path_cache.len(), entries);
    }

    #[test]
    fn epoch_fingerprint_tracks_routing_changes() {
        let topo = generate(&TopoGenConfig::small());
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let base = RoutingState::baseline(&topo);
        assert_eq!(base.epoch(ts(0)), base.epoch(ts(100_000)));
        let victim = base.path_links(a, b, ts(0))[0];
        let ospf = OspfState::new(
            &topo,
            vec![WeightEvent {
                time: ts(100),
                link: victim,
                weight: None,
            }],
        );
        let rs = RoutingState::new(&topo, ospf, BgpState::new(vec![], vec![]));
        assert_eq!(rs.epoch(ts(50)), rs.epoch(ts(99)));
        assert_ne!(rs.epoch(ts(50)), rs.epoch(ts(150)));
    }

    /// Regression: the shard write lock used to be (conceptually) held
    /// across path recomputation, so a cold-cache miss storm would
    /// serialize readers behind one compute at a time. With compute —
    /// and the insert's clone — outside the lock, N threads missing on
    /// distinct keys must overlap their computes in wall-clock time.
    /// The compute closure sleeps, so the bound is core-count
    /// independent: serialized misses would take ≥ N × SLEEP.
    #[test]
    fn miss_storm_does_not_serialize_readers() {
        use std::time::{Duration, Instant};
        const THREADS: u64 = 8;
        const SLEEP: Duration = Duration::from_millis(100);
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for k in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    cache.get_or_insert_with(k, || {
                        std::thread::sleep(SLEEP);
                        k
                    });
                });
            }
        });
        let elapsed = start.elapsed();
        // All 8 sleeps overlap; allow generous slack for spawn jitter
        // but stay far under the 800 ms a serialized storm would take.
        assert!(
            elapsed < SLEEP * (THREADS as u32) / 2,
            "cold-miss storm took {elapsed:?}; misses are serializing"
        );
        assert_eq!(cache.len(), THREADS as usize);
    }

    #[test]
    fn frozen_oracle_matches_live_answers() {
        let topo = generate(&TopoGenConfig::small());
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let live = RoutingState::baseline(&topo);
        // Warm one path so the frozen form carries a memo entry.
        let warm = live.path_routers(a, b, ts(0));
        let net = topo.ext_net(grca_net_model::ClientSiteId::new(1));
        let live_egress = live.egress_for(a, net.prefix, ts(0));
        let live_links = live.path_links(b, a, ts(0));
        let live_epoch = live.epoch(ts(0));
        let frozen = live.freeze();
        assert!(frozen.cached_entries() >= 2);
        let oracle = frozen.oracle(&topo);
        // What the live side warmed answers the same from the moved caches.
        assert_eq!(oracle.path_routers(a, b, ts(0)), warm);
        assert_eq!(oracle.egress_for(a, net.prefix, ts(0)), live_egress);
        assert_eq!(oracle.path_links(b, a, ts(0)), live_links);
        assert_eq!(oracle.epoch(ts(0)), live_epoch);
        assert_eq!(
            oracle.ingress_for(net.prefix.host(5), ts(0)),
            Some(net.egress_candidates[0])
        );
        // A path the frozen side missed is computed once: asking twice
        // leaves one more cache entry, and the second ask is that entry.
        let entries = frozen.cached_entries();
        let c = topo.router_by_name("chi-per1").unwrap();
        let cold = oracle.path_routers(c, b, ts(0));
        assert_eq!(
            cold,
            RoutingState::baseline(&topo).path_routers(c, b, ts(0))
        );
        assert_eq!(frozen.cached_entries(), entries + 1);
        assert_eq!(oracle.path_routers(c, b, ts(0)), cold);
        assert_eq!(frozen.cached_entries(), entries + 1);
    }

    /// The per-source SPF memo is a pure cost-model change: every path
    /// answer matches the uncached state, one SPF is shared per source,
    /// and the memo survives a freeze → thaw round trip.
    #[test]
    fn spf_cache_preserves_answers_and_shares_sources() {
        let topo = generate(&TopoGenConfig::small());
        let plain = RoutingState::baseline(&topo);
        let cached = RoutingState::baseline(&topo).with_spf_cache();
        let a = topo.router_by_name("nyc-per1").unwrap();
        // Sweep many destinations from one source (the reconvergence-scan
        // shape): identical answers, a single memoized SPF.
        for r in 0..topo.routers.len().min(40) {
            let b = RouterId::from(r);
            assert_eq!(
                cached.path_routers(a, b, ts(0)),
                plain.path_routers(a, b, ts(0))
            );
            assert_eq!(
                cached.path_links(a, b, ts(0)),
                plain.path_links(a, b, ts(0))
            );
        }
        assert_eq!(cached.state.spf_cache.as_ref().unwrap().len(), 1);
        // Freeze → thaw keeps the memo (and the cheap-miss cost model).
        let thawed = RoutingState::thaw(&topo, cached.freeze());
        assert_eq!(thawed.state.spf_cache.as_ref().unwrap().len(), 1);
        let b = topo.router_by_name("lax-per1").unwrap();
        assert_eq!(
            thawed.path_routers(b, a, ts(0)),
            plain.path_routers(b, a, ts(0))
        );
        assert_eq!(thawed.state.spf_cache.as_ref().unwrap().len(), 2);
    }

    /// The O(1) distance-based membership tests agree with the full ECMP
    /// union walk for every (pair, link/router) — cached and uncached,
    /// before and after a weight event.
    #[test]
    fn membership_tests_match_union_walk() {
        let topo = generate(&TopoGenConfig::small());
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let victim = RoutingState::baseline(&topo).path_links(a, b, ts(0))[0];
        let ospf = || {
            OspfState::new(
                &topo,
                vec![WeightEvent {
                    time: ts(100),
                    link: victim,
                    weight: None,
                }],
            )
        };
        let bgp = || BgpState::new(vec![], vec![]);
        let plain = RoutingState::new(&topo, ospf(), bgp());
        let cached = RoutingState::new(&topo, ospf(), bgp()).with_spf_cache();
        let pairs = [(a, b), (b, a), (a, RouterId::new(0)), (RouterId::new(2), b)];
        for t in [ts(0), ts(150)] {
            for &(x, y) in &pairs {
                let links = plain.path_links(x, y, t);
                let routers = plain.path_routers(x, y, t);
                for l in 0..topo.links.len().min(60) {
                    let l = LinkId::from(l);
                    let expect = links.contains(&l);
                    assert_eq!(plain.path_uses_link(x, y, l, t), expect);
                    assert_eq!(
                        cached.path_uses_link(x, y, l, t),
                        expect,
                        "{x:?}->{y:?} {l:?} {t:?}"
                    );
                }
                for r in 0..topo.routers.len().min(60) {
                    let r = RouterId::from(r);
                    let expect = routers.contains(&r);
                    assert_eq!(plain.path_uses_router(x, y, r, t), expect);
                    assert_eq!(
                        cached.path_uses_router(x, y, r, t),
                        expect,
                        "{x:?}->{y:?} {r:?} {t:?}"
                    );
                }
            }
        }
    }

    /// Freeze → thaw round-trips the warmed memo entries back into a live
    /// state with identical answers (the day-chunk routing-reuse path).
    #[test]
    fn thaw_round_trips_warm_cache_with_identical_answers() {
        let topo = generate(&TopoGenConfig::small());
        let a = topo.router_by_name("nyc-per1").unwrap();
        let b = topo.router_by_name("lax-per1").unwrap();
        let net = topo.ext_net(grca_net_model::ClientSiteId::new(1));
        let live = RoutingState::baseline(&topo);
        let warm_path = live.path_routers(a, b, ts(0));
        let warm_egress = live.egress_for(a, net.prefix, ts(0));
        let thawed = RoutingState::thaw(&topo, live.freeze());
        // The memo entries came back…
        assert_eq!(thawed.state.path_cache.len(), 1);
        assert_eq!(thawed.state.egress_cache.len(), 1);
        // …with answers identical to the original (warm and cold alike).
        assert_eq!(thawed.path_routers(a, b, ts(0)), warm_path);
        assert_eq!(thawed.egress_for(a, net.prefix, ts(0)), warm_egress);
        assert_eq!(
            thawed.path_links(b, a, ts(0)),
            RoutingState::baseline(&topo).path_links(b, a, ts(0))
        );
    }

    #[test]
    fn ingress_for_uses_external_mapping() {
        let topo = generate(&TopoGenConfig::small());
        let rs = RoutingState::baseline(&topo);
        let net = topo.ext_net(grca_net_model::ClientSiteId::new(2));
        let src = net.prefix.host(9);
        assert_eq!(rs.ingress_for(src, ts(0)), Some(net.egress_candidates[0]));
        assert_eq!(rs.ingress_for(Ipv4::new(8, 8, 8, 8), ts(0)), None);
    }
}
