//! The finish kernels against the bodies they replaced.
//!
//! The per-definition reference extractor and the single-pass one call the
//! same kernels, so no differential test between the two can see a change
//! inside a kernel. These properties hold each kernel to its previous,
//! plainest body, kept here as the oracle: the copy-and-sort trailing
//! median, the tree of per-key vectors transitions were paired through, and
//! the tree of per-pair vectors the probe finish grouped samples in. And
//! the merge of sorted parts is held to the one sort of their concatenation
//! it replaced.

use crate::def::{AnomalySense, EventDefinition, Retrieval, StateSel};
use crate::extract::{
    pair_transitions, sort_transitions, ExtractCx, TrailingBaseline, MAX_FLAP_GAP, MERGE_GAP,
};
use crate::instance::EventInstance;
use crate::singlepass::{merge_runs, pair_parts, run, sort_by_u64, Cut};
use grca_collector::{Database, PerfRow};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{Location, LocationType, RouterId, Topology};
use grca_telemetry::records::{PerfMetric, PerfRecord, RawRecord};
use grca_types::{Duration, TimeWindow, Timestamp};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;

/// The trailing median as it was: copy the window and sort it per call.
struct CopyAndSort {
    window: usize,
    min_history: usize,
    history: VecDeque<f64>,
}

impl CopyAndSort {
    fn new(window: usize, min_history: usize) -> Self {
        CopyAndSort {
            window,
            min_history,
            history: VecDeque::new(),
        }
    }

    fn observe(&mut self, value: f64) -> Option<f64> {
        let base = if self.history.len() >= self.min_history {
            let mut v: Vec<f64> = self.history.iter().copied().collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Was `Some(v[v.len() / 2])`, which panics on an empty window;
            // no caller could ask one (`min_history` was 4).
            v.get(v.len() / 2).copied()
        } else {
            None
        };
        self.history.push_back(value);
        if self.history.len() > self.window {
            self.history.pop_front();
        }
        base
    }
}

/// Transition pairing as it was: a tree of per-key vectors, each sorted.
fn pair_by_tree<K: Ord + Copy>(
    events: Vec<(Timestamp, K, bool)>,
    sel: StateSel,
) -> Vec<(K, TimeWindow)> {
    let mut by_key: BTreeMap<K, Vec<(Timestamp, bool)>> = BTreeMap::new();
    for (t, k, up) in events {
        by_key.entry(k).or_default().push((t, up));
    }
    let mut out = Vec::new();
    for (k, mut seq) in by_key {
        seq.sort();
        match sel {
            StateSel::Down => {
                out.extend(
                    seq.iter()
                        .filter(|(_, up)| !up)
                        .map(|(t, _)| (k, TimeWindow::at(*t))),
                );
            }
            StateSel::Up => {
                out.extend(
                    seq.iter()
                        .filter(|(_, up)| *up)
                        .map(|(t, _)| (k, TimeWindow::at(*t))),
                );
            }
            StateSel::Flap => {
                let ups: Vec<Timestamp> =
                    seq.iter().filter(|(_, up)| *up).map(|(t, _)| *t).collect();
                for (t, up) in &seq {
                    if *up {
                        continue;
                    }
                    let i = ups.partition_point(|u| u < t);
                    if let Some(&u) = ups.get(i) {
                        if u - *t <= MAX_FLAP_GAP {
                            out.push((k, TimeWindow::new(*t, u)));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The probe finish as it was: a tree of per-pair vectors, each sorted by
/// instant (stably, so samples at one instant keep row order) and judged
/// by the copy-and-sort median, its anomalous instants copied, sorted and
/// merged.
fn probe_by_tree<'a>(
    def: &EventDefinition,
    rows: impl IntoIterator<Item = &'a PerfRow>,
    sense: AnomalySense,
) -> Vec<EventInstance> {
    let mut series: BTreeMap<(RouterId, RouterId), Vec<(Timestamp, f64)>> = BTreeMap::new();
    for row in rows {
        series
            .entry((row.ingress, row.egress))
            .or_default()
            .push((row.utc, row.value));
    }
    let mut out = Vec::new();
    for ((ingress, egress), mut pts) in series {
        pts.sort_by_key(|(t, _)| *t);
        let mut baseline = CopyAndSort::new(50, 4);
        let mut anomalous: Vec<Timestamp> = pts
            .iter()
            .filter_map(|(t, v)| {
                let med = baseline.observe(*v)?;
                let hit = match sense {
                    AnomalySense::Increase => *v > 2.0 * med + 0.2,
                    AnomalySense::Drop => *v < 0.5 * med,
                };
                hit.then_some(*t)
            })
            .collect();
        anomalous.sort();
        let mut merged: Vec<TimeWindow> = Vec::new();
        for t in anomalous {
            match merged.last_mut() {
                Some(w) if t - w.end <= MERGE_GAP => w.end = t,
                _ => merged.push(TimeWindow::at(t)),
            }
        }
        for w in merged {
            out.push(EventInstance::new(
                &def.name,
                TimeWindow::new(w.start, w.end + Duration::mins(5)),
                Location::IngressEgress { ingress, egress },
            ));
        }
    }
    out
}

/// Few distinct values, so ties and repeats are common, and both zeros.
fn value() -> impl Strategy<Value = f64> {
    sample::select(vec![-3.0, -0.0, 0.0, 0.5, 1.0, 2.0, 7.0, 1e6])
}

fn state_sel() -> impl Strategy<Value = StateSel> {
    sample::select(vec![StateSel::Down, StateSel::Up, StateSel::Flap])
}

/// `points` cut at `cuts` into parts (empty ones too), each sorted by
/// `sort` as its collect sorts it.
fn sorted_parts<T: Copy>(points: &[T], cuts: &[usize], sort: impl Fn(&mut [T])) -> Vec<Vec<T>> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (points.len() + 1)).collect();
    at.sort();
    let bounds: Vec<usize> = [0].into_iter().chain(at).chain([points.len()]).collect();
    let mut parts: Vec<Vec<T>> = bounds
        .windows(2)
        .map(|b| points[b[0]..b[1]].to_vec())
        .collect();
    parts.iter_mut().for_each(|p| sort(p));
    parts
}

/// Each key's runs as the merge hands them over, joined: one vector a key,
/// led by the element the merge names the key by.
fn merged<T: Copy + PartialEq + Debug>(parts: &[Vec<T>], key: impl Fn(&T) -> u64) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let parts = parts.iter().map(|p| &p[..]);
    merge_runs(&mut Vec::new(), parts, key, |&head, runs| {
        let run: Vec<T> = runs.flatten().copied().collect();
        assert_eq!(run.first(), Some(&head));
        out.push(run);
    });
    out
}

/// The grouping the merge replaced: `chunk_by` over one stable sort of
/// every point, by the tuple key the finish grouped by.
fn chunked<T: Copy, K: Ord>(points: &[T], key: impl Fn(&T) -> K) -> Vec<Vec<T>> {
    let mut all = points.to_vec();
    all.sort_by_key(&key);
    all.chunk_by(|a, b| key(a) == key(b))
        .map(<[T]>::to_vec)
        .collect()
}

/// The small topology, generated once.
fn topo() -> &'static Topology {
    static TOPO: std::sync::OnceLock<Topology> = std::sync::OnceLock::new();
    TOPO.get_or_init(|| generate(&TopoGenConfig::small()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every call answers what copying and sorting the window answers
    /// (`==`, so `-0.0` and `0.0` are one median, as they are to every
    /// comparison the definitions make) — for a fresh tracker and for one
    /// cleared after another series.
    #[test]
    fn sorted_window_median_equals_copy_and_sort(
        first in vec(value(), 0..=300),
        values in vec(value(), 0..=300),
        window in 1usize..=60,
        min_history in 0usize..=10,
    ) {
        let mut fast = TrailingBaseline::new(window, min_history);
        for v in first {
            fast.observe(v);
        }
        fast.clear();
        let mut slow = CopyAndSort::new(window, min_history);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(fast.observe(v), slow.observe(v), "call {}", i);
        }
    }

    /// Pairing answers what the tree of per-key vectors answered, key by
    /// key in key order: 1-30 keys, instants from a short range so a key
    /// often goes down and up at one instant, and repeats.
    #[test]
    fn transitions_pair_as_the_tree_of_keys(
        keys in 1u32..=30,
        raw in vec((0i64..40, 0u32..1000, any::<bool>()), 0..=300),
        sel in state_sel(),
    ) {
        let events: Vec<(Timestamp, u32, bool)> = raw
            .into_iter()
            .map(|(t, k, up)| (Timestamp::from_unix(60 * t), k % keys, up))
            .collect();
        prop_assert_eq!(pair_transitions(events.clone(), sel), pair_by_tree(events, sel));
    }

    /// Probe, CDN, SNMP and server points cut into 1-40 parts, each sorted
    /// by its `u64` key as its collect sorts it, merge key by key into what
    /// one stable sort of all of them by the tuple key groups: the same
    /// keys in the same order, each key's points in row order. Few keys and
    /// instants, so one key often has several points at one instant.
    #[test]
    fn merged_parts_group_as_one_stable_sort(
        raw in vec((0u32..4, 0u32..4, 0i64..8, 0u8..8), 0..=300),
        cuts in vec(0usize..=300, 0..40),
    ) {
        let ts = |t: i64| Timestamp::from_unix(300 * t);

        let probe: Vec<(RouterId, RouterId, Timestamp, f64)> = raw
            .iter()
            .map(|&(a, b, t, v)| (RouterId(a), RouterId(b), ts(t), f64::from(v)))
            .collect();
        let key = |&(i, e, ..): &(RouterId, RouterId, _, _)| u64::from(i.0) << 32 | u64::from(e.0);
        let parts = sorted_parts(&probe, &cuts, |p| sort_by_u64(p, key));
        prop_assert_eq!(merged(&parts, key), chunked(&probe, |&(i, e, ..)| (i, e)));

        let cdn: Vec<(u32, u32, Timestamp, f64, f64)> = raw
            .iter()
            .map(|&(a, b, t, v)| (a, b, ts(t), f64::from(v), -f64::from(v)))
            .collect();
        let key = |&(n, c, ..): &(u32, u32, _, _, _)| u64::from(n) << 32 | u64::from(c);
        let parts = sorted_parts(&cdn, &cuts, |p| sort_by_u64(p, key));
        prop_assert_eq!(merged(&parts, key), chunked(&cdn, |&(n, c, ..)| (n, c)));

        // Ifindex 0 is no ifindex: router-level samples sort first.
        let snmp: Vec<(RouterId, Option<u32>, Timestamp)> = raw
            .iter()
            .map(|&(a, b, t, _)| (RouterId(a), b.checked_sub(1), ts(t)))
            .collect();
        let key = |&(r, i, _): &(RouterId, Option<u32>, _)| {
            u64::from(r.0) << 33 | i.map_or(0, |i| u64::from(i) + 1)
        };
        let parts = sorted_parts(&snmp, &cuts, |p| sort_by_u64(p, key));
        prop_assert_eq!(merged(&parts, key), chunked(&snmp, |&(r, i, _)| (r, i)));

        let server: Vec<(u32, Timestamp)> = raw.iter().map(|&(a, _, t, _)| (a, ts(t))).collect();
        let key = |&(n, _): &(u32, _)| u64::from(n);
        let parts = sorted_parts(&server, &cuts, |p| sort_by_u64(p, key));
        prop_assert_eq!(merged(&parts, key), chunked(&server, |&(n, _)| n));
    }

    /// Transitions in row order — time, then whatever order their
    /// tiebreaks give one instant's rows — cut into 1-40 parts, each sorted
    /// as its collect sorts it, pair across the parts as their
    /// concatenation pairs. Instants from a short range, so one key's down
    /// and up at one instant often land in two parts, either way round.
    #[test]
    fn merged_transitions_pair_as_the_concatenation(
        raw in vec((0i64..40, 0u32..6, any::<bool>()), 0..=300),
        cuts in vec(0usize..=300, 0..40),
        sel in state_sel(),
    ) {
        let mut events: Vec<(Timestamp, u32, bool)> = raw
            .into_iter()
            .map(|(t, k, up)| (Timestamp::from_unix(60 * t), k, up))
            .collect();
        events.sort_by_key(|&(t, ..)| t);
        let parts = sorted_parts(&events, &cuts, sort_transitions);
        let mut paired = Vec::new();
        let scratch = (&mut Vec::new(), &mut Vec::new());
        pair_parts(scratch, parts.iter().map(|p| &p[..]), sel, |k, w| paired.push((k, w)));
        prop_assert_eq!(paired, pair_transitions(events, sel));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The probe finish emits what the tree of per-pair vectors emitted,
    /// pair by pair in pair order. Pairs are sampled more than once at one
    /// instant (with different values, so both rows are kept), and only a
    /// stable grouping keeps those in row order.
    #[test]
    fn probe_finish_equals_the_tree_of_pairs(
        samples in vec((0usize..4, 0i64..80, value()), 1..=300),
        increase in any::<bool>(),
    ) {
        let (topo, metric) = (topo(), PerfMetric::DelayMs);
        let router = |i: usize| topo.routers[i].name.as_str().into();
        let records: Vec<RawRecord> = samples
            .iter()
            .map(|&(pair, bin, value)| {
                RawRecord::Perf(PerfRecord {
                    utc: Timestamp::from_unix(1_600_000_000 + 300 * bin),
                    ingress_router: router(pair % 2),
                    egress_router: router(2 + pair / 2),
                    metric,
                    value,
                })
            })
            .collect();
        let (db, _) = Database::ingest(topo, &records);
        let sense = if increase { AnomalySense::Increase } else { AnomalySense::Drop };
        let retrieval = Retrieval::PerfAnomaly { metric, sense };
        let def = EventDefinition::new("probe", LocationType::IngressEgress, retrieval, "t", "perf");
        let cx = ExtractCx::new(topo, &db, None);
        let finished = run(&[&def], &cx, Cut::Full).remove(0);
        prop_assert_eq!(finished, probe_by_tree(&def, &db.perf.all(), sense));
    }
}
