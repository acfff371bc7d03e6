//! Chaos-replay invariant tests on small, fast scenarios.
//!
//! The full golden corpus runs under chaos in the `experiments` runner's
//! `online_chaos` entry; these tests pin the same invariants — convergence
//! under eventual delivery, graceful degradation under permanent feed loss,
//! exactly-once emission, bounded state, exact accounting — on short
//! scenarios cheap enough for the regular test suite.

use grca_apps::Study;
use grca_eval::chaos::{
    check_convergence, check_degradation, eventual_ops, evidence_feed, lossy_ops, run_chaos,
    ChaosRunOpts, CHAOS_SEEDS,
};
use grca_eval::corpus::{GoldenScenario, TopoPreset};
use grca_eval::Mutation;
use grca_simnet::{ChaosOp, FeedChaos};
use grca_types::Duration;
use std::collections::BTreeMap;

/// A short BGP scenario: 2 days on the small topology.
fn small_scenario(seed: u64) -> GoldenScenario {
    GoldenScenario {
        name: "chaos-test-bgp",
        study: Study::Bgp,
        topo: TopoPreset::Small,
        days: 2,
        seed,
        noise_factor: 1.0,
        slow_fallover: false,
        mutation: Mutation::None,
    }
}

/// Convergence + exactly-once under eventual-delivery chaos (stalls,
/// duplicates, reorders) at every chaos corpus seed.
#[test]
fn converges_and_emits_exactly_once_under_eventual_chaos() {
    let s = small_scenario(12);
    let opts = ChaosRunOpts::default();
    let cycles = (s.days as usize) * 24; // 1 h cycles
    for &seed in CHAOS_SEEDS {
        let mut chaos = FeedChaos::new(seed);
        for op in eventual_ops(s.study, cycles) {
            chaos = chaos.with(op);
        }
        let run = run_chaos(&s, &chaos, &opts);
        let v = check_convergence(&run);
        assert!(
            v.identical,
            "seed {seed}: folded stream diverged from batch ({} folded vs {} batch)",
            v.folded, v.batch
        );
        assert!(
            v.accounting_exact,
            "seed {seed}: accounting leak: {} + {} + {} != {}",
            run.accepted, run.quarantined, run.deduplicated, run.delivered_records
        );
        // The chaos must actually have perturbed delivery.
        assert!(
            run.deduplicated > 0,
            "seed {seed}: duplicates never arrived"
        );

        // Exactly-once: per symptom key, exactly one primary emission and
        // at most one amendment, which must follow a degraded primary.
        let mut primary: BTreeMap<(String, i64), bool> = BTreeMap::new();
        let mut amended: BTreeMap<(String, i64), usize> = BTreeMap::new();
        for e in &run.emission_log {
            let key = (e.location.clone(), e.start_unix);
            if e.amends {
                assert_eq!(
                    primary.get(&key),
                    Some(&true),
                    "seed {seed}: amendment without a degraded primary for {key:?}"
                );
                *amended.entry(key).or_default() += 1;
            } else {
                assert!(
                    primary.insert(key.clone(), e.degraded).is_none(),
                    "seed {seed}: duplicate primary emission for {key:?}"
                );
            }
        }
        assert!(
            amended.values().all(|&n| n <= 1),
            "seed {seed}: symptom amended more than once"
        );
    }
}

/// The convergence invariant is study-agnostic: the CDN and PIM paths
/// (routing state rebuilt per cycle, path-level spatial joins) must also
/// fold back to their batch verdicts under eventual-delivery chaos.
#[test]
fn cdn_and_pim_paths_also_converge() {
    for (study, seed) in [(Study::Cdn, 16), (Study::Pim, 17)] {
        let s = GoldenScenario {
            study,
            ..small_scenario(seed)
        };
        let cycles = (s.days as usize) * 24;
        let mut chaos = FeedChaos::new(CHAOS_SEEDS[0]);
        for op in eventual_ops(study, cycles) {
            chaos = chaos.with(op);
        }
        let run = run_chaos(&s, &chaos, &ChaosRunOpts::default());
        let v = check_convergence(&run);
        assert!(
            v.pass(),
            "{study:?}: identical={} accounting={} ({} folded vs {} batch)",
            v.identical,
            v.accounting_exact,
            v.folded,
            v.batch
        );
    }
}

/// Permanent loss of an evidence feed: every affected verdict is flagged
/// degraded naming the dead feed, no full verdict is ever wrong, and
/// degraded accuracy stays within the documented tolerance.
#[test]
fn degrades_gracefully_when_evidence_feed_dies() {
    let s = small_scenario(13);
    let cycles = (s.days as usize) * 24;
    let mut chaos = FeedChaos::new(CHAOS_SEEDS[0]);
    for op in lossy_ops(s.study, cycles) {
        chaos = chaos.with(op);
    }
    let run = run_chaos(&s, &chaos, &ChaosRunOpts::default());
    let v = check_degradation(&run);
    assert!(v.affected > 0, "kill too late: no symptom was affected");
    assert!(
        v.all_affected_flagged,
        "only {}/{} affected verdicts were degraded naming {}",
        v.affected_degraded, v.affected, v.killed_feed
    );
    assert_eq!(
        v.wrong_confident, 0,
        "{} full verdicts disagreed with batch",
        v.wrong_confident
    );
    assert!(
        v.within_tolerance,
        "degraded accuracy {} below tolerance {}",
        v.degraded_label_accuracy, v.tolerance
    );
    assert!(
        v.full_emissions > 0,
        "pre-kill symptoms should still emit full verdicts"
    );
    assert_eq!(v.killed_feed, evidence_feed(s.study));
}

/// Bounded state: with a finite amendment window, per-symptom state is
/// pruned against the skip floor, so the working set is a function of the
/// retention window — not of how long the stream has been running.
#[test]
fn state_plateaus_under_sustained_chaos() {
    let peak = |days: u32| {
        let s = GoldenScenario {
            days,
            ..small_scenario(14)
        };
        let mut chaos = FeedChaos::new(CHAOS_SEEDS[1]);
        // The same absolute op schedule for both run lengths.
        for op in eventual_ops(s.study, 48) {
            chaos = chaos.with(op);
        }
        let opts = ChaosRunOpts {
            amend_window: Some(Duration::hours(3)),
            ..ChaosRunOpts::default()
        };
        let run = run_chaos(&s, &chaos, &opts);
        let trace = run.state_trace;
        assert!(
            *trace.last().unwrap() <= *trace.iter().max().unwrap(),
            "state still at its peak after the drain"
        );
        *trace.iter().max().unwrap() as f64
    };
    let short = peak(2);
    let long = peak(4);
    // Doubling the run must not grow the working set with it; allow a
    // margin for burst timing (stall flushes) landing differently.
    assert!(
        long <= short * 1.5 + 16.0,
        "state scales with run length: 2-day peak {short}, 4-day peak {long}"
    );
}

/// Corrupted records are quarantined — counted, never silently dropped —
/// and the accounting invariant stays exact.
#[test]
fn corruption_is_quarantined_and_accounted() {
    let s = small_scenario(15);
    let chaos = FeedChaos::new(CHAOS_SEEDS[2])
        .with(ChaosOp::Corrupt {
            feed: "syslog",
            period: 5,
        })
        .with(ChaosOp::Corrupt {
            feed: evidence_feed(s.study),
            period: 4,
        });
    let run = run_chaos(&s, &chaos, &ChaosRunOpts::default());
    assert!(run.quarantined > 0, "corruption never reached quarantine");
    assert_eq!(
        run.accepted + run.quarantined + run.deduplicated,
        run.delivered_records,
        "accounting leak under corruption"
    );
}

/// A feed poisoned at sustained high rate cannot grow the quarantine
/// journal without bound: the journal is trimmed to the configured keep
/// every cycle, while the [`grca_collector::IngestStats`] counters keep
/// the exact totals — nothing is silently dropped from the accounting.
#[test]
fn sustained_corruption_keeps_journal_bounded_and_accounting_exact() {
    let s = small_scenario(21);
    let keep = 8usize;
    // Eight independent corruption streams on the same feed, every single
    // cycle — SNMP corruption (non-finite samples) always quarantines.
    let mut chaos = FeedChaos::new(CHAOS_SEEDS[0]);
    for _ in 0..8 {
        chaos = chaos.with(ChaosOp::Corrupt {
            feed: evidence_feed(s.study),
            period: 1,
        });
    }
    let opts = ChaosRunOpts {
        quarantine_keep: Some(keep),
        ..Default::default()
    };
    let run = run_chaos(&s, &chaos, &opts);

    // The corruption volume far exceeds the bound — the trim actually ran.
    assert!(
        run.quarantined > keep * 4,
        "not enough corruption to exercise the bound: {} quarantined",
        run.quarantined
    );
    // The journal is bounded at every observed cycle boundary, not just
    // at the end.
    assert!(
        run.quarantine_len <= keep,
        "final journal {}",
        run.quarantine_len
    );
    assert!(
        run.quarantine_peak <= keep,
        "peak journal {}",
        run.quarantine_peak
    );
    // …and the accounting identity stays exact: every delivered record is
    // accepted, quarantined, deduplicated, or expired — trimming the
    // journal never touches the counters.
    assert_eq!(
        run.accepted + run.quarantined + run.deduplicated + run.expired,
        run.delivered_records,
        "accounting leak under sustained corruption"
    );
}
