//! The statistical correlation test of NICE (Mahimkar et al., CoNEXT
//! 2008), as used by G-RCA's Correlation Tester (§II-E).
//!
//! Canonical significance tests mis-fire on network event series because
//! the series are heavily *autocorrelated* (events arrive in bursts, follow
//! maintenance windows, etc.). NICE's fix: build the null distribution by
//! *circularly shifting* one series against the other — every shift
//! preserves each series' internal autocorrelation exactly, so the spread
//! of shifted correlation scores reflects how much correlation "comes for
//! free" from burstiness. The observed (unshifted) correlation is
//! significant only if it stands far outside that spread.
//!
//! Two implementations share the exact same semantics (same binarization,
//! smoothing, guard band and shift subsampling):
//!
//! * [`CorrelationTester::test`] — the sparse fast path. Both series are
//!   binary after preprocessing, so each series' mean and variance are
//!   *shift-invariant* and per-shift work reduces to an integer cross
//!   term, computed either for all shifts at once in `O(nnz_a × nnz_b)`
//!   (see [`crate::sparse`]) or per shift against a bitmask in
//!   `O(nnz_a)` when the supports are dense enough that pair bucketing
//!   would cost more than the shift loop it replaces.
//! * [`CorrelationTester::test_dense`] — the pre-overhaul reference:
//!   rebuilds the shifted vector and recomputes Pearson from scratch for
//!   every shift, `O(shifts × n)`. Kept live for the differential tests
//!   (`eval/tests/screening_differential.rs`) and the dense-reference case
//!   of `bench_correlation`.
//!
//! Scores agree to floating-point noise (the sparse path sums exact
//! integer cross terms; the dense path accumulates centered products),
//! and significance verdicts are identical — pinned by the property
//! tests in `tests/differential.rs`.

use crate::series::{pearson, EventSeries};
use crate::sparse::{cross_all_shifts, cross_at, SparseBinary};

/// Configuration for the circular-permutation test.
///
/// ```
/// use grca_correlation::{CorrelationTester, EventSeries};
/// use grca_types::{Duration, Timestamp};
///
/// // An aperiodic symptom series and a diagnostic that mirrors it.
/// let mut bits = vec![0.0; 600];
/// let mut x: u64 = 7;
/// for b in bits.iter_mut() {
///     x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
///     *b = f64::from(x >> 60 == 0);
/// }
/// let s = EventSeries { start: Timestamp(0), bin: Duration::mins(5), counts: bits };
/// let result = CorrelationTester::default().test(&s, &s).unwrap();
/// assert!(result.significant);
/// ```
#[derive(Debug, Clone)]
pub struct CorrelationTester {
    /// Shifts within ±guard bins of zero are excluded from the null
    /// distribution (they may carry the genuine correlation).
    pub guard_bins: usize,
    /// Significance threshold on the z-like score (NICE uses ≈3).
    pub score_threshold: f64,
    /// Smooth the diagnostic series by ±k bins before testing, so
    /// timer-delayed co-occurrences still align.
    pub smooth_bins: usize,
    /// Cap on the number of shifts evaluated (subsamples evenly when the
    /// series is longer; keeps screening thousands of series tractable).
    pub max_shifts: usize,
}

impl Default for CorrelationTester {
    fn default() -> Self {
        CorrelationTester {
            guard_bins: 2,
            score_threshold: 3.0,
            smooth_bins: 1,
            max_shifts: 2000,
        }
    }
}

/// Outcome of one correlation test.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationResult {
    /// Observed Pearson correlation at zero shift.
    pub r: f64,
    /// Mean of the circular-shift null distribution.
    pub null_mean: f64,
    /// Standard deviation of the null distribution.
    pub null_std: f64,
    /// `(r - null_mean) / null_std` — the significance score.
    pub score: f64,
    /// Whether the score clears the threshold.
    pub significant: bool,
    /// Number of shifts in the null distribution.
    pub shifts: usize,
}

impl CorrelationTester {
    /// The shifts whose correlations form the null distribution: every
    /// circular shift outside the ±`guard_bins` band, evenly subsampled
    /// down to **at most** `max_shifts`. (The pre-overhaul rounding —
    /// `len / max_shifts` truncated — could emit up to ~2× `max_shifts`
    /// samples whenever `guarded_len < 2 × max_shifts`; rounding the step
    /// up caps the count exactly.)
    fn shift_plan(&self, n: usize) -> Vec<usize> {
        let candidates: Vec<usize> = (1..n)
            .filter(|&s| s > self.guard_bins && n - s > self.guard_bins)
            .collect();
        if candidates.is_empty() {
            return candidates;
        }
        let step = candidates.len().div_ceil(self.max_shifts).max(1);
        candidates.into_iter().step_by(step).collect()
    }

    /// Test whether `symptom` and `diagnostic` co-occur more than their
    /// autocorrelation structure explains. Returns `None` when either
    /// series is constant (no events, or events in every bin) — no test is
    /// possible then.
    ///
    /// This is the sparse fast path; [`CorrelationTester::test_dense`] is
    /// the equivalent dense reference.
    pub fn test(
        &self,
        symptom: &EventSeries,
        diagnostic: &EventSeries,
    ) -> Option<CorrelationResult> {
        assert_eq!(symptom.len(), diagnostic.len(), "series must share binning");
        let n = symptom.len();
        if n < 8 {
            return None;
        }
        let a = SparseBinary::from_series(symptom);
        let b = SparseBinary::from_series(diagnostic).smeared(self.smooth_bins);
        let (na, nb) = (a.nnz(), b.nnz());
        // Constant after preprocessing (zero variance): untestable, the
        // condition under which dense Pearson returns `None`.
        if na == 0 || na == n || nb == 0 || nb == n {
            return None;
        }
        let shifts = self.shift_plan(n);
        if shifts.len() < 8 {
            return None;
        }

        // Circular shifts permute a series, so means and variances are
        // shift-invariant: precompute the moments once and reduce every
        // shift to its integer cross term.
        let nf = n as f64;
        let (naf, nbf) = (na as f64, nb as f64);
        let base = naf * nbf / nf; // n·mean(a)·mean(b)
        let va = naf - naf * naf / nf; // Σ(aᵢ−mean(a))²
        let vb = nbf - nbf * nbf / nf;
        let denom = va.sqrt() * vb.sqrt();
        let r_of = |cross: u32| (f64::from(cross) - base) / denom;

        // Pair bucketing computes all n cross terms in O(nnz_a × nnz_b);
        // per-shift probing costs O(shifts × nnz_a). Bucket only while it
        // is no more work than the dense shift loop it replaces, so
        // dense-ish series never regress.
        let (r, null) = if (na as u64) * (nb as u64) <= (shifts.len() as u64) * (n as u64) {
            let cross = cross_all_shifts(&a, &b);
            let null: Vec<f64> = shifts.iter().map(|&s| r_of(cross[s])).collect();
            (r_of(cross[0]), null)
        } else {
            let mask = b.mask();
            let null: Vec<f64> = shifts
                .iter()
                .map(|&s| r_of(cross_at(&a, &mask, s)))
                .collect();
            (r_of(cross_at(&a, &mask, 0)), null)
        };
        Some(self.summarize(r, null))
    }

    /// The pre-overhaul dense implementation: rebuild the shifted vector
    /// and recompute Pearson from scratch for every evaluated shift,
    /// `O(shifts × n)` per pair. Semantically identical to
    /// [`CorrelationTester::test`] (scores agree to float noise, verdicts
    /// exactly); kept live as the differential/benchmark baseline.
    pub fn test_dense(
        &self,
        symptom: &EventSeries,
        diagnostic: &EventSeries,
    ) -> Option<CorrelationResult> {
        assert_eq!(symptom.len(), diagnostic.len(), "series must share binning");
        let a = symptom.to_binary();
        let b = diagnostic.to_binary().smoothed(self.smooth_bins);
        let n = a.len();
        if n < 8 {
            return None;
        }
        let r = pearson(&a.counts, &b.counts)?;
        let shifts = self.shift_plan(n);
        let mut null = Vec::with_capacity(shifts.len());
        let mut shifted = vec![0.0; n];
        for &s in &shifts {
            for (i, slot) in shifted.iter_mut().enumerate() {
                *slot = b.counts[(i + s) % n];
            }
            if let Some(rs) = pearson(&a.counts, &shifted) {
                null.push(rs);
            }
        }
        if null.len() < 8 {
            return None;
        }
        Some(self.summarize(r, null))
    }

    /// Fold the observed correlation and the null samples into a result.
    fn summarize(&self, r: f64, null: Vec<f64>) -> CorrelationResult {
        let m = null.iter().sum::<f64>() / null.len() as f64;
        let var = null.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / null.len() as f64;
        let std = var.sqrt().max(1e-9);
        let score = (r - m) / std;
        CorrelationResult {
            r,
            null_mean: m,
            null_std: std,
            score,
            significant: score > self.score_threshold,
            shifts: null.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grca_types::{Duration, Timestamp};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_unix(s)
    }

    fn series_from_bits(bits: &[u8]) -> EventSeries {
        EventSeries {
            start: ts(0),
            bin: Duration::secs(60),
            counts: bits.iter().map(|&b| b as f64).collect(),
        }
    }

    fn random_sparse(rng: &mut StdRng, n: usize, p: f64) -> Vec<u8> {
        (0..n).map(|_| u8::from(rng.random::<f64>() < p)).collect()
    }

    #[test]
    fn causally_linked_series_is_significant() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 2000;
        let cause = random_sparse(&mut rng, n, 0.02);
        // Effect follows cause one bin later, 90% of the time.
        let mut effect = vec![0u8; n];
        for i in 0..n - 1 {
            if cause[i] == 1 && rng.random::<f64>() < 0.9 {
                effect[i + 1] = 1;
            }
        }
        let t = CorrelationTester::default();
        let res = t
            .test(&series_from_bits(&effect), &series_from_bits(&cause))
            .unwrap();
        assert!(res.significant, "score={}", res.score);
        assert!(res.score > 5.0);
    }

    #[test]
    fn independent_series_is_not_significant() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 2000;
        let a = random_sparse(&mut rng, n, 0.03);
        let b = random_sparse(&mut rng, n, 0.03);
        let t = CorrelationTester::default();
        let res = t
            .test(&series_from_bits(&a), &series_from_bits(&b))
            .unwrap();
        assert!(!res.significant, "score={}", res.score);
    }

    #[test]
    fn autocorrelated_but_independent_series_not_significant() {
        // Two independently-phased bursty (periodic-ish) series. A naive
        // test against an i.i.d. null would flag these; the circular
        // permutation null absorbs the burstiness.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let mut a = vec![0u8; n];
        let mut b = vec![0u8; n];
        let mut i = rng.random_range(0usize..50);
        while i < n {
            a[i..(i + 8).min(n)].fill(1); // 8-bin bursts
            i += 40 + rng.random_range(0usize..20);
        }
        let mut i = rng.random_range(0usize..50);
        while i < n {
            b[i..(i + 8).min(n)].fill(1);
            i += 40 + rng.random_range(0usize..20);
        }
        let t = CorrelationTester::default();
        let res = t
            .test(&series_from_bits(&a), &series_from_bits(&b))
            .unwrap();
        // The null std here is large (burst alignment varies by shift), so
        // whatever raw r says, the score stays modest.
        assert!(!res.significant, "score={} r={}", res.score, res.r);
    }

    #[test]
    fn constant_series_yields_none() {
        let t = CorrelationTester::default();
        let ones = series_from_bits(&[1; 100]);
        let mixed = series_from_bits(&random_sparse(&mut StdRng::seed_from_u64(1), 100, 0.2));
        assert!(t.test(&mixed, &ones).is_none());
        let zeros = series_from_bits(&[0; 100]);
        assert!(t.test(&mixed, &zeros).is_none());
    }

    #[test]
    fn short_series_yields_none() {
        let t = CorrelationTester::default();
        let a = series_from_bits(&[1, 0, 1, 0]);
        assert!(t.test(&a, &a).is_none());
    }

    #[test]
    fn subsampling_never_exceeds_max_shifts() {
        // Regression: with `guarded_len < 2 × max_shifts` the truncated
        // step `(len / max_shifts).max(1)` rounded down to 1 and emitted
        // every shift — up to ~2× the configured cap. The step now rounds
        // up, so the cap holds exactly.
        let mut rng = StdRng::seed_from_u64(11);
        for n in [150usize, 199, 280, 399] {
            let bits = random_sparse(&mut rng, n, 0.2);
            let s = series_from_bits(&bits);
            let t = CorrelationTester {
                max_shifts: 100,
                ..Default::default()
            };
            let res = t.test(&s, &s).unwrap();
            assert!(
                res.shifts <= 100,
                "n={n}: {} null samples exceed max_shifts=100",
                res.shifts
            );
            // The dense reference shares the plan.
            assert_eq!(res.shifts, t.test_dense(&s, &s).unwrap().shifts);
        }
        // Below the cap nothing is subsampled: all guarded shifts run.
        let bits = random_sparse(&mut rng, 50, 0.3);
        let s = series_from_bits(&bits);
        let t = CorrelationTester::default();
        assert_eq!(t.test(&s, &s).unwrap().shifts, 45); // 49 shifts − 2·guard(2)
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 1500;
        let a = series_from_bits(&random_sparse(&mut rng, n, 0.02));
        let b = series_from_bits(&random_sparse(&mut rng, n, 0.4));
        let t = CorrelationTester::default();
        for (x, y) in [(&a, &b), (&a, &a), (&b, &b), (&b, &a)] {
            let s = t.test(x, y).unwrap();
            let d = t.test_dense(x, y).unwrap();
            assert!(
                (s.score - d.score).abs() < 1e-9,
                "{} vs {}",
                s.score,
                d.score
            );
            assert!((s.r - d.r).abs() < 1e-12);
            assert_eq!(s.significant, d.significant);
            assert_eq!(s.shifts, d.shifts);
        }
    }

    #[test]
    fn smoothing_recovers_misaligned_causality() {
        // Effect lags cause by exactly 2 bins; without smoothing the raw
        // overlap is zero, with ±2 smoothing the test finds it.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let cause = random_sparse(&mut rng, n, 0.02);
        let mut effect = vec![0u8; n];
        for i in 0..n - 2 {
            if cause[i] == 1 {
                effect[i + 2] = 1;
            }
        }
        let strict = CorrelationTester {
            smooth_bins: 0,
            ..Default::default()
        };
        let loose = CorrelationTester {
            smooth_bins: 2,
            guard_bins: 4,
            ..Default::default()
        };
        let sa = series_from_bits(&effect);
        let sb = series_from_bits(&cause);
        let r_strict = strict.test(&sa, &sb).unwrap();
        let r_loose = loose.test(&sa, &sb).unwrap();
        assert!(r_loose.score > r_strict.score);
        assert!(r_loose.significant);
    }
}
