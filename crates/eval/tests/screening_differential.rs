//! Differential tests for the screening overhaul over the golden corpus:
//!
//! * **Determinism** — `screen_parallel` must return *exactly* the same
//!   `Screening` (ranking, scores, skip list) as sequential `screen`, at
//!   every thread count, on real scenario data.
//! * **Sparse ≡ dense** — the sparse fast path must match the dense
//!   reference (`screen_baseline`): identical candidate ranking,
//!   significance verdicts and skip lists, scores within float noise.
//! * **Cache transparency** — `CandidateCache` must hand back series
//!   identical to a direct `candidate_series` build, shared on repeat.
//!
//! One build per scenario; every check runs on that build.

use grca_core::discovery::{
    candidate_series, screen, screen_baseline, screen_parallel, symptom_series, CandidateCache,
    SeriesGrid,
};
use grca_correlation::CorrelationTester;
use grca_eval::corpus;
use grca_types::Duration;
use std::sync::Arc;

#[test]
fn screening_paths_agree_over_golden_corpus() {
    // The three clean per-study baselines: one scenario per application
    // keeps the dense reference screening affordable while covering every
    // feed mix the corpus exercises (mutated variants stress ingestion,
    // not the correlation layer).
    let scenarios: Vec<_> = corpus()
        .into_iter()
        .filter(|s| s.name.ends_with("-baseline"))
        .collect();
    assert_eq!(scenarios.len(), 3);
    for s in scenarios {
        let built = s.build();
        let diagnoses = s
            .study
            .run(&built.topo, &built.db)
            .expect("valid app")
            .diagnoses;
        let subset: Vec<_> = diagnoses.iter().collect();
        let cfg = s.scenario_config();
        let grid = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(5));
        let symptom = symptom_series(&grid, &subset);

        // Cache transparency.
        let cache = CandidateCache::new(&built.db);
        let candidates = cache.get(&grid, None);
        assert_eq!(
            *candidates,
            candidate_series(&built.db, &grid, None),
            "scenario {}: cached series differ from a direct build",
            s.name
        );
        assert!(
            Arc::ptr_eq(&candidates, &cache.get(&grid, None)),
            "scenario {}: repeat lookup rebuilt the series",
            s.name
        );

        let tester = CorrelationTester::default();
        let sequential = screen(&tester, &symptom, &candidates);
        assert!(
            sequential.screened() > 0,
            "scenario {}: empty candidate universe",
            s.name
        );

        // Parallel determinism: bit-identical at any worker count.
        for threads in [2, 4, 8] {
            let parallel = screen_parallel(&tester, &symptom, &candidates, threads);
            assert_eq!(
                parallel, sequential,
                "scenario {}: parallel screen (threads={threads}) diverges",
                s.name
            );
        }

        // Sparse ≡ dense: same ranking, verdicts and skips; scores to
        // float noise. A reduced shift cap keeps the O(shifts × n)
        // reference affordable in debug builds — the subsampled plan is
        // shared by both paths, so equivalence coverage is unchanged
        // (and the cap change exercises the subsampling itself).
        let tester = CorrelationTester {
            max_shifts: 300,
            ..Default::default()
        };
        let sequential = screen(&tester, &symptom, &candidates);
        let dense = screen_baseline(&tester, &symptom, &candidates);
        assert_eq!(
            dense.skipped, sequential.skipped,
            "scenario {}: skip lists diverge",
            s.name
        );
        assert_eq!(
            dense.hits.len(),
            sequential.hits.len(),
            "scenario {}: testable counts diverge",
            s.name
        );
        for (d, sp) in dense.hits.iter().zip(&sequential.hits) {
            assert_eq!(d.name, sp.name, "scenario {}: ranking diverges", s.name);
            assert_eq!(
                d.result.significant, sp.result.significant,
                "scenario {}: verdict diverges on {}",
                s.name, d.name
            );
            assert!(
                (d.result.score - sp.result.score).abs() <= 1e-9 * d.result.score.abs().max(1.0),
                "scenario {}: score drift on {}: {} vs {}",
                s.name,
                d.name,
                d.result.score,
                sp.result.score
            );
            assert_eq!(d.result.shifts, sp.result.shifts);
        }
    }
}
