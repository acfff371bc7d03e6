//! E8 cost — the Correlation Tester and blind screening.
//!
//! §IV-B screens one symptom series against 3361 candidates over three
//! months of 5-minute bins (~26k bins). These benches measure one NICE
//! test at that scale and a whole screening sweep at the candidate count
//! of the paper's vocabulary. That the sparse screens equal the dense
//! reference is `eval/tests/screening_differential.rs`'s job.

use criterion::{criterion_group, criterion_main, Criterion};
use grca_core::discovery::{screen, screen_parallel};
use grca_correlation::{CorrelationTester, EventSeries};
use grca_types::{Duration, Timestamp};
use std::hint::black_box;

fn series(n: usize, every: usize, phase: usize) -> EventSeries {
    EventSeries {
        start: Timestamp(0),
        bin: Duration::mins(5),
        counts: (0..n)
            .map(|i| f64::from((i + phase).is_multiple_of(every)))
            .collect(),
    }
}

fn bench_nice(c: &mut Criterion) {
    let mut g = c.benchmark_group("correlation");
    // 90 days of 5-minute bins, as in the paper's screening run.
    let n = 90 * 288;
    let sym = series(n, 97, 0);
    let diag = series(n, 97, 1);
    let tester = CorrelationTester::default();
    g.bench_function("nice_test_90d_5min", |b| {
        b.iter(|| black_box(tester.test(&sym, &diag)))
    });
    // The pre-overhaul dense reference at the same scale, for tracking
    // the sparse-path advantage.
    g.bench_function("nice_test_dense_90d_5min", |b| {
        b.iter(|| black_box(tester.test_dense(&sym, &diag)))
    });
    // A sparse pair (≈1% density) — the screening common case, where the
    // all-shifts pair bucketing does the work of 2000 dense dots.
    let sparse_sym = series(n, 97, 0);
    let sparse_diag = series(n, 101, 3);
    g.bench_function("nice_test_sparse_pair_90d", |b| {
        b.iter(|| black_box(tester.test(&sparse_sym, &sparse_diag)))
    });

    // A bounded-shift tester trades null-sample count for speed.
    let fast = CorrelationTester {
        max_shifts: 200,
        ..Default::default()
    };
    g.bench_function("nice_test_90d_200shifts", |b| {
        b.iter(|| black_box(fast.test(&sym, &diag)))
    });

    // One month at 5-minute bins (rule validation workloads).
    let n = 30 * 288;
    let sym = series(n, 53, 0);
    let diag = series(n, 53, 1);
    g.bench_function("nice_test_30d_5min", |b| {
        b.iter(|| black_box(tester.test(&sym, &diag)))
    });

    // The §IV-B sweep: one month of 5-minute bins screened against 3,350
    // sparse candidates (the paper's 2,533 syslog + 831 workflow types),
    // sequentially and on the work-stealing pool.
    let n = 30 * 288 + 1;
    let sym = series(n, 97, 0);
    let candidates: Vec<(String, EventSeries)> = (0..3350)
        .map(|i| (format!("candidate-{i}"), series(n, 40 + i % 360, i % 37)))
        .collect();
    g.bench_function("screen_3350_candidates_30d", |b| {
        b.iter(|| black_box(screen(&tester, &sym, &candidates)))
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    g.bench_function("screen_parallel_3350_candidates_30d", |b| {
        b.iter(|| black_box(screen_parallel(&tester, &sym, &candidates, threads)))
    });
    g.finish();
}

criterion_group!(benches, bench_nice);
criterion_main!(benches);
