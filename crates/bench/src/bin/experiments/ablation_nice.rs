//! A5 — why the Correlation Tester uses NICE's circular-permutation null.
//!
//! §II-E: "In comparison to other canonical statistical tests, NICE
//! handles the event autocorrelation structure very well, which is
//! commonly observed in networking event series." We quantify that: on
//! pairs of *independent but bursty* event series (maintenance-window
//! style autocorrelation), a naive test whose null shuffles bins i.i.d.
//! fires constantly, while the circular-permutation null — which preserves
//! each series' burst structure under every shift — stays quiet. On
//! genuinely causal pairs both fire.

use crate::{json, Output};
use grca_correlation::{pearson, CorrelationTester, EventSeries};
use grca_types::{Duration, Timestamp};
use serde::Serialize;

/// Deterministic LCG for reproducible noise/shuffles.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, p: f64) -> bool {
        (self.next() % 10_000) as f64 / 10_000.0 < p
    }
}

/// Independent bursty series: 8-bin bursts with jittered spacing.
fn bursty(n: usize, rng: &mut Lcg) -> EventSeries {
    let mut counts = vec![0.0; n];
    let mut i = rng.below(60);
    while i < n {
        let end = (i + 8).min(n);
        counts[i..end].fill(1.0);
        i += 40 + rng.below(30);
    }
    EventSeries {
        start: Timestamp(0),
        bin: Duration::mins(5),
        counts,
    }
}

/// A naive significance test: same Pearson statistic, but the null
/// distribution comes from i.i.d. Fisher–Yates shuffles (destroying the
/// autocorrelation the real series carries).
fn naive_test(a: &EventSeries, b: &EventSeries, rng: &mut Lcg) -> Option<(f64, bool)> {
    let r = pearson(&a.counts, &b.counts)?;
    let mut null = Vec::with_capacity(400);
    let mut shuffled = b.counts.clone();
    for _ in 0..400 {
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        if let Some(rs) = pearson(&a.counts, &shuffled) {
            null.push(rs);
        }
    }
    let m = null.iter().sum::<f64>() / null.len() as f64;
    let var = null.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / null.len() as f64;
    let score = (r - m) / var.sqrt().max(1e-9);
    Some((score, score > 3.0))
}

#[derive(Serialize)]
struct Result {
    pairs: usize,
    naive_false_positives: usize,
    nice_false_positives: usize,
    naive_true_positives: usize,
    nice_true_positives: usize,
}

pub fn run(_smoke: bool) -> Output {
    let n = 4000;
    let pairs = 40;
    let nice = CorrelationTester::default();
    let mut rng = Lcg(0x5EED);

    // Independent bursty pairs: any "significant" verdict is false.
    let (mut naive_fp, mut nice_fp) = (0usize, 0usize);
    for _ in 0..pairs {
        let a = bursty(n, &mut rng);
        let b = bursty(n, &mut rng);
        if naive_test(&a, &b, &mut rng)
            .map(|(_, s)| s)
            .unwrap_or(false)
        {
            naive_fp += 1;
        }
        if nice.test(&a, &b).map(|r| r.significant).unwrap_or(false) {
            nice_fp += 1;
        }
    }

    // Causal pairs: bursts in B trigger bursts in A with one bin of lag.
    let (mut naive_tp, mut nice_tp) = (0usize, 0usize);
    for _ in 0..pairs {
        let b = bursty(n, &mut rng);
        let mut counts = vec![0.0; n];
        for i in 0..n - 1 {
            if b.counts[i] > 0.0 && rng.chance(0.85) {
                counts[i + 1] = 1.0;
            }
        }
        let a = EventSeries {
            start: Timestamp(0),
            bin: Duration::mins(5),
            counts,
        };
        if naive_test(&a, &b, &mut rng)
            .map(|(_, s)| s)
            .unwrap_or(false)
        {
            naive_tp += 1;
        }
        if nice.test(&a, &b).map(|r| r.significant).unwrap_or(false) {
            nice_tp += 1;
        }
    }

    println!("{pairs} independent bursty pairs (any hit is a FALSE positive):");
    println!("  naive i.i.d.-shuffle null: {naive_fp} significant");
    println!("  NICE circular-permutation: {nice_fp} significant");
    println!("\n{pairs} causal pairs (a hit is a TRUE positive):");
    println!("  naive i.i.d.-shuffle null: {naive_tp} significant");
    println!("  NICE circular-permutation: {nice_tp} significant");
    println!(
        "\n=> the naive null mistakes autocorrelation for causality \
         ({naive_fp}/{pairs} false positives vs NICE's {nice_fp}/{pairs}; the \
         nominal 3-sigma rate is ~0.1%), while both catch genuine coupling \
         — the paper's reason for adopting NICE"
    );
    // At a 3-sigma threshold the nominal false-positive rate is ~0.1%;
    // the naive null inflates it two orders of magnitude on bursty series.
    assert!(
        naive_fp >= pairs / 10,
        "the naive test should misfire on bursty series (got {naive_fp}/{pairs})"
    );
    assert!(
        nice_fp <= pairs / 20,
        "NICE must stay quiet on independent series"
    );
    assert!(
        nice_tp >= pairs * 9 / 10,
        "NICE must catch genuine coupling"
    );
    assert!(
        naive_fp > 4 * nice_fp.max(1),
        "NICE must clearly beat the naive null"
    );
    let result = Result {
        pairs,
        naive_false_positives: naive_fp,
        nice_false_positives: nice_fp,
        naive_true_positives: naive_tp,
        nice_true_positives: nice_tp,
    };
    vec![("exp_ablation_nice.json", json(&result))]
}
