//! Domain-knowledge building (§II-E, §IV): blind correlation screening of
//! a symptom series against every candidate diagnostic series.
//!
//! The workflow the paper describes: (1) classify symptoms with the current
//! diagnosis graph; (2) *prefilter* to the subset of interest (e.g. the
//! CPU-related BGP flaps of §IV-B); (3) build one time series from that
//! subset and one from every candidate event type (workflow activity
//! types, syslog message types); (4) run the NICE correlation test against
//! each; (5) hand the significant candidates to a domain expert. The
//! prefiltering step is what amplifies weak signals — experiment E8/A2
//! reproduces the paper's demonstration that the provisioning-bug
//! correlation is only significant on the prefiltered subset.

use crate::engine::Diagnosis;
use grca_collector::Database;
use grca_correlation::{CorrelationResult, CorrelationTester, EventSeries};
use grca_net_model::RouterId;
use grca_types::{batch_size, map_indexed, Duration, Timestamp};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The binning grid for screening series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesGrid {
    pub start: Timestamp,
    pub bin: Duration,
    pub bins: usize,
}

impl SeriesGrid {
    /// A grid of `bin`-wide bins covering the **closed** interval
    /// `[start, end]`: the grid always includes the bin containing `end`,
    /// so a span that divides `bin` exactly gets one extra bin whose left
    /// edge *is* `end` — an instant stamped exactly `end` still lands on
    /// the grid rather than being dropped. Degenerate inputs clamp rather
    /// than panic: `end < start` yields a single-bin grid covering
    /// `start` (series built on it are constant and the tester skips
    /// them).
    pub fn new(start: Timestamp, end: Timestamp, bin: Duration) -> Self {
        let span = (end - start).as_secs().max(0);
        SeriesGrid {
            start,
            bin,
            bins: span.div_euclid(bin.as_secs()) as usize + 1,
        }
    }

    pub fn empty(&self) -> EventSeries {
        EventSeries::zeros(self.start, self.bin, self.bins)
    }
}

/// Build the symptom series from a set of diagnoses (typically a
/// prefiltered subset from the Result Browser).
pub fn symptom_series(grid: &SeriesGrid, diagnoses: &[&Diagnosis]) -> EventSeries {
    EventSeries::from_instants(
        grid.start,
        grid.bin,
        grid.bins,
        diagnoses.iter().map(|d| d.symptom.window.start),
    )
}

/// One candidate's screening outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenHit {
    /// Candidate series name (`"workflow:<activity>"` / `"syslog:<mnemonic>"`).
    pub name: String,
    pub result: CorrelationResult,
}

/// Build the candidate series: one per workflow activity type and one per
/// syslog message mnemonic, restricted to `routers` when given (the paper
/// screens "other types of events on the same PER").
pub fn candidate_series(
    db: &Database,
    grid: &SeriesGrid,
    routers: Option<&BTreeSet<RouterId>>,
) -> Vec<(String, EventSeries)> {
    let keep = |r: Option<RouterId>| match (routers, r) {
        (None, _) => true,
        (Some(set), Some(r)) => set.contains(&r),
        (Some(_), None) => false,
    };
    let mut by_name: BTreeMap<String, Vec<Timestamp>> = BTreeMap::new();
    for row in db.workflow.all().iter() {
        if keep(row.router) {
            by_name
                .entry(format!("workflow:{}", row.activity))
                .or_default()
                .push(row.utc);
        }
    }
    for row in db.syslog.all().iter() {
        if keep(Some(row.router)) {
            by_name
                .entry(format!("syslog:{}", row.mnemonic()))
                .or_default()
                .push(row.utc);
        }
    }
    by_name
        .into_iter()
        .map(|(name, times)| {
            (
                name,
                EventSeries::from_instants(grid.start, grid.bin, grid.bins, times),
            )
        })
        .collect()
}

/// A grid-keyed memo for [`candidate_series`]: the §IV-B loop re-screens
/// the same candidate universe under different prefilters (all flaps →
/// CPU-related flaps → router-restricted subsets), and rebuilding every
/// series from the raw rows each round is the dominant fixed cost. The
/// cache is tied to one ingested [`Database`] by borrow, so entries can
/// never outlive or mix databases; clones are `Arc`-shallow.
pub struct CandidateCache<'a> {
    db: &'a Database,
    cache: Mutex<HashMap<CandidateKey, CachedSeries>>,
}

type CandidateKey = (Timestamp, i64, usize, Option<Vec<RouterId>>);
type CachedSeries = Arc<Vec<(String, EventSeries)>>;

impl<'a> CandidateCache<'a> {
    pub fn new(db: &'a Database) -> Self {
        CandidateCache {
            db,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The candidate series for `(grid, routers)`, built on first use and
    /// shared thereafter. Output is identical to calling
    /// [`candidate_series`] directly.
    pub fn get(&self, grid: &SeriesGrid, routers: Option<&BTreeSet<RouterId>>) -> CachedSeries {
        let key: CandidateKey = (
            grid.start,
            grid.bin.as_secs(),
            grid.bins,
            routers.map(|set| set.iter().copied().collect()),
        );
        if let Some(hit) = self.cache.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Build outside the lock: series construction scans the tables.
        let built = Arc::new(candidate_series(self.db, grid, routers));
        Arc::clone(self.cache.lock().entry(key).or_insert(built))
    }

    /// Number of distinct `(grid, routers)` keys built so far.
    pub fn len(&self) -> usize {
        self.cache.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.lock().is_empty()
    }
}

/// Outcome of screening one symptom series against a candidate set: the
/// testable candidates ranked by score, plus the candidates the tester
/// refused (`test` returned `None`: constant or too-short series). The
/// split distinguishes "0 hits" from "0 *testable* series" — a screening
/// over an empty or flat-lined window reports all-skipped instead of
/// silently returning nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Screening {
    /// Testable candidates, sorted by score (highest first).
    pub hits: Vec<ScreenHit>,
    /// Untestable candidate names, in input order.
    pub skipped: Vec<String>,
}

impl Screening {
    /// Total candidates screened (testable + skipped).
    pub fn screened(&self) -> usize {
        self.hits.len() + self.skipped.len()
    }

    /// Only the significant hits.
    pub fn significant(&self) -> Vec<&ScreenHit> {
        significant(&self.hits)
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "{} candidates: {} testable, {} skipped (constant/short), {} significant",
            self.screened(),
            self.hits.len(),
            self.skipped.len(),
            self.significant().len()
        )
    }

    /// `tested` is one `(name, result)` per candidate, in candidate order.
    fn from_tested(tested: Vec<(String, Option<CorrelationResult>)>) -> Screening {
        let mut hits = Vec::new();
        let mut skipped = Vec::new();
        for (name, result) in tested {
            match result {
                Some(result) => hits.push(ScreenHit { name, result }),
                None => skipped.push(name),
            }
        }
        // Stable sort: candidates tying on score keep input order, which
        // makes the parallel and sequential outputs identical.
        hits.sort_by(|a, b| b.result.score.partial_cmp(&a.result.score).unwrap());
        Screening { hits, skipped }
    }
}

/// Screen the symptom series against every candidate, sequentially.
pub fn screen(
    tester: &CorrelationTester,
    symptom: &EventSeries,
    candidates: &[(String, EventSeries)],
) -> Screening {
    Screening::from_tested(
        candidates
            .iter()
            .map(|(name, series)| (name.clone(), tester.test(symptom, series)))
            .collect(),
    )
}

/// [`screen`], fanned out over `threads` workers by [`map_indexed`] —
/// output is identical to the sequential run.
pub fn screen_parallel(
    tester: &CorrelationTester,
    symptom: &EventSeries,
    candidates: &[(String, EventSeries)],
    threads: usize,
) -> Screening {
    let batch = batch_size(candidates.len(), threads);
    Screening::from_tested(map_indexed(candidates.len(), threads, batch, |i| {
        let (name, series) = &candidates[i];
        (name.clone(), tester.test(symptom, series))
    }))
}

/// [`screen`] driven by the pre-overhaul dense tester
/// ([`CorrelationTester::test_dense`]): the `O(shifts × n)`-per-pair
/// sequential path, kept live as the differential baseline for
/// `exp_perf_mining` and the eval-corpus equivalence tests.
pub fn screen_baseline(
    tester: &CorrelationTester,
    symptom: &EventSeries,
    candidates: &[(String, EventSeries)],
) -> Screening {
    Screening::from_tested(
        candidates
            .iter()
            .map(|(name, series)| (name.clone(), tester.test_dense(symptom, series)))
            .collect(),
    )
}

/// Only the significant hits.
pub fn significant(hits: &[ScreenHit]) -> Vec<&ScreenHit> {
    hits.iter().filter(|h| h.result.significant).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_simnet::{FaultRates, ScenarioConfig};

    #[test]
    fn grid_covers_span() {
        let g = SeriesGrid::new(Timestamp(0), Timestamp(3600), Duration::mins(5));
        assert_eq!(g.bins, 13);
        assert_eq!(g.empty().len(), 13);
    }

    #[test]
    fn grid_closed_interval_includes_end_bin() {
        // A span exactly divisible by the bin width: the closed interval
        // [start, end] keeps the bin whose left edge is `end`, so an
        // instant stamped exactly `end` lands on the grid.
        let g = SeriesGrid::new(Timestamp(0), Timestamp(3600), Duration::mins(5));
        let s = EventSeries::from_instants(g.start, g.bin, g.bins, vec![Timestamp(3600)]);
        assert_eq!(s.total(), 1.0);
        assert_eq!(s.counts[12], 1.0);
        // A non-divisible span covers end inside its last bin.
        let g = SeriesGrid::new(Timestamp(0), Timestamp(3599), Duration::mins(5));
        assert_eq!(g.bins, 12);
        let s = EventSeries::from_instants(g.start, g.bin, g.bins, vec![Timestamp(3599)]);
        assert_eq!(s.total(), 1.0);
    }

    #[test]
    fn grid_inverted_span_clamps_to_one_bin() {
        let g = SeriesGrid::new(Timestamp(500), Timestamp(100), Duration::mins(5));
        assert_eq!(g.bins, 1);
        assert_eq!(g.start, Timestamp(500));
        // Series on the degenerate grid are constant → tester skips them.
        let s = g.empty();
        assert!(CorrelationTester::default().test(&s, &s).is_none());
    }

    #[test]
    fn candidate_series_split_by_type_and_router() {
        let topo = generate(&TopoGenConfig::small());
        let mut rates = FaultRates::zero();
        rates.provisioning_activity = 40.0;
        rates.noise_syslog = 60.0;
        let mut cfg = ScenarioConfig::new(4, 3, rates);
        cfg.background.emit_baseline = false;
        let out = grca_simnet::run_scenario(&topo, &cfg);
        let (db, _) = Database::ingest(&topo, &out.records);
        let grid = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(5));
        let all = candidate_series(&db, &grid, None);
        assert!(all.iter().any(|(n, _)| n.starts_with("workflow:")));
        assert!(all.iter().any(|(n, _)| n.starts_with("syslog:%NOISE")));
        // Restricting to one router shrinks totals.
        let mut one = BTreeSet::new();
        one.insert(grca_net_model::RouterId::new(0));
        let restricted = candidate_series(&db, &grid, Some(&one));
        let sum = |v: &[(String, EventSeries)]| -> f64 { v.iter().map(|(_, s)| s.total()).sum() };
        assert!(sum(&restricted) < sum(&all));
    }

    #[test]
    fn screen_orders_by_score() {
        let grid = SeriesGrid::new(Timestamp(0), Timestamp(600_000), Duration::mins(5));
        // Aperiodic sparse symptom (a periodic one would — correctly — be
        // absorbed by the circular-permutation null). Candidate A mirrors
        // it; candidate B is unrelated.
        let mut state = 12345u64;
        let mut instants = Vec::new();
        let mut other = Vec::new();
        for b in 0..grid.bins as i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 59 == 0 {
                instants.push(Timestamp(b * 300));
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 59 == 0 {
                other.push(Timestamp(b * 300));
            }
        }
        let symptom = EventSeries::from_instants(grid.start, grid.bin, grid.bins, instants);
        let a = symptom.clone();
        let b = EventSeries::from_instants(grid.start, grid.bin, grid.bins, other);
        let tester = CorrelationTester::default();
        let candidates = [
            ("b".to_string(), b),
            ("a".to_string(), a),
            ("flat".to_string(), grid.empty()),
        ];
        let screening = screen(&tester, &symptom, &candidates);
        assert_eq!(screening.hits[0].name, "a");
        assert!(screening.hits[0].result.significant);
        let sig = significant(&screening.hits);
        assert!(sig.iter().any(|h| h.name == "a"));
        // The constant candidate is reported as skipped, not swallowed.
        assert_eq!(screening.skipped, vec!["flat".to_string()]);
        assert_eq!(screening.screened(), 3);
        assert!(screening.summary().contains("3 candidates"));
    }

    #[test]
    fn parallel_screen_equals_sequential() {
        let grid = SeriesGrid::new(Timestamp(0), Timestamp(900_000), Duration::mins(5));
        // A spread of candidate shapes: correlated, independent, bursty,
        // constant (skipped) and empty (skipped).
        let mut state = 99u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut series_with = |density_shift: u32| {
            let mut t = Vec::new();
            for b in 0..grid.bins as i64 {
                if step() >> (64 - density_shift) == 0 {
                    t.push(Timestamp(b * 300));
                }
            }
            EventSeries::from_instants(grid.start, grid.bin, grid.bins, t)
        };
        let symptom = series_with(5);
        let mut candidates: Vec<(String, EventSeries)> = (0..40)
            .map(|k| (format!("c{k:02}"), series_with(3 + (k % 5))))
            .collect();
        candidates.push(("echo".to_string(), symptom.clone()));
        candidates.push(("flat".to_string(), grid.empty()));
        let tester = CorrelationTester::default();
        let seq = screen(&tester, &symptom, &candidates);
        for threads in [2, 3, 8, 64] {
            let par = screen_parallel(&tester, &symptom, &candidates, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
        // Thread counts that degenerate to sequential.
        assert_eq!(screen_parallel(&tester, &symptom, &candidates, 1), seq);
        assert_eq!(screen_parallel(&tester, &symptom, &candidates, 0), seq);
        assert!(seq.skipped.contains(&"flat".to_string()));
    }

    #[test]
    fn candidate_cache_memoizes_per_grid_and_routers() {
        let topo = generate(&TopoGenConfig::small());
        let mut rates = FaultRates::zero();
        rates.provisioning_activity = 30.0;
        rates.noise_syslog = 40.0;
        let mut cfg = ScenarioConfig::new(3, 7, rates);
        cfg.background.emit_baseline = false;
        let out = grca_simnet::run_scenario(&topo, &cfg);
        let (db, _) = Database::ingest(&topo, &out.records);
        let grid = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(5));
        let cache = CandidateCache::new(&db);
        assert!(cache.is_empty());

        let first = cache.get(&grid, None);
        assert_eq!(*first, candidate_series(&db, &grid, None));
        // Same key: shared allocation, not a rebuild.
        assert!(Arc::ptr_eq(&first, &cache.get(&grid, None)));
        assert_eq!(cache.len(), 1);

        // A router restriction is a different key with different content.
        let mut one = BTreeSet::new();
        one.insert(grca_net_model::RouterId::new(0));
        let restricted = cache.get(&grid, Some(&one));
        assert!(!Arc::ptr_eq(&first, &restricted));
        assert_eq!(*restricted, candidate_series(&db, &grid, Some(&one)));
        assert!(Arc::ptr_eq(&restricted, &cache.get(&grid, Some(&one))));
        // So is a different grid.
        let coarse = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(10));
        assert!(!Arc::ptr_eq(&first, &cache.get(&coarse, None)));
        assert_eq!(cache.len(), 3);
    }
}
