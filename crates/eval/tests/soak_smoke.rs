//! Smoke-preset soak: the full manifest-driven streaming pipeline at unit
//! scale, with the convergence gate the big benchmark relies on — the
//! folded online verdict stream must be label-identical to the batch
//! pipeline run over the same complete record set — the bounded-memory
//! gate: with segmented storage and retention on, the footprint plateaus —
//! and the settled-history gate: no sealed run is decoded twice.

use grca_collector::StorageConfig;
use grca_eval::{run_soak, SoakRunOpts};
use grca_net_model::TierConfig;
use grca_types::Timestamp;

#[test]
fn smoke_soak_converges_to_batch_and_measures_latency() {
    let tier = TierConfig::smoke();
    let opts = SoakRunOpts {
        batch_check: true,
        ..Default::default()
    };
    let mut cycles_seen = 0usize;
    let mut last_clock = i64::MIN;
    let out = run_soak(&tier, &opts, |c| {
        assert!(c.clock_unix > last_clock, "cycle clock must advance");
        last_clock = c.clock_unix;
        assert_eq!(c.cycle, cycles_seen);
        cycles_seen += 1;
    });

    // The callback saw every cycle, and the run actually streamed data.
    assert_eq!(out.cycles, cycles_seen);
    assert!(out.records > 0);
    assert!(out.injections > 0);
    assert!(out.faults > 0);
    assert!(out.truth_flaps > 0, "bgp_study rates must flap sessions");
    assert!(out.finals > 0);

    // The tentpole invariant: online (streamed, held-back, amended) folds
    // to exactly the batch labels.
    assert_eq!(out.batch_identical, Some(true));

    // Accuracy is computed over a real truth join.
    assert!(out.accuracy_matched > 0);
    assert!(out.accuracy_rate > 0.5, "rate {}", out.accuracy_rate);

    // Latency: injections are detected, each exactly once, and every
    // detection instant lies after its injection by at least the hold-back
    // (verdicts wait for the evidence horizon).
    assert!(out.latency.matched > 0);
    assert!(
        out.latency.matched + out.latency.missed <= out.faults,
        "at most one sample per injection"
    );
    assert!(
        out.latency.min_secs > 0,
        "detection cannot precede injection"
    );
    assert!(out.latency.p50_secs <= out.latency.p95_secs);
    assert!(out.latency.p95_secs <= out.latency.p99_secs);
    assert!(out.latency.p99_secs <= out.latency.max_secs);
    for s in &out.latency.samples {
        assert!(s.detect_secs > 0);
        assert!(!s.final_label.is_empty());
    }

    // Subscribers scale with the preset's per-session fan-out.
    assert_eq!(out.subscribers, out.sessions as u64 * 50);
    let _ = Timestamp::from_unix(last_clock); // drain advanced past the horizon
    assert!(last_clock > 0);
}

#[test]
fn checkpointed_soak_is_result_identical() {
    let tier = TierConfig::smoke();
    let plain = run_soak(&tier, &SoakRunOpts::default(), |_| {});
    let dir = std::env::temp_dir().join(format!("grca-soak-ckpt-{}", std::process::id()));
    let opts = SoakRunOpts {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let ckpt = run_soak(&tier, &opts, |_| {});
    std::fs::remove_dir_all(&dir).ok();

    // Checkpointing changes no result: every verdict, latency sample, and
    // accuracy number is unchanged.
    assert_eq!(ckpt.records, plain.records);
    assert_eq!(ckpt.emissions, plain.emissions);
    assert_eq!(ckpt.finals, plain.finals);
    assert_eq!(ckpt.latency.samples, plain.latency.samples);
    assert_eq!(ckpt.accuracy_correct, plain.accuracy_correct);

    // One checkpoint per cycle.
    assert_eq!(ckpt.checkpoints, ckpt.cycles);
    assert_eq!(plain.checkpoints, 0);
}

/// Four simulated days at the smoke preset, retention on. Retention drops
/// whole sealed segments, and the smoke topology produces ~3 k rows a day
/// over ten tables, so default 4096-row segments would never seal; size
/// them for this scale.
fn four_days_in_small_segments() -> (TierConfig, SoakRunOpts) {
    let tier = TierConfig {
        soak_days: 4,
        ..TierConfig::smoke()
    };
    let opts = SoakRunOpts {
        storage: Some(StorageConfig {
            segment_rows: 64,
            ..Default::default()
        }),
        ..Default::default()
    };
    assert!(opts.db_retention.is_some());
    (tier, opts)
}

/// Segmented storage plus database retention keep the online path's
/// footprint flat once the retention window has filled: the retained row
/// count and the bounded-state size at the end of the fourth simulated day
/// are no more than 10% above their end-of-third-day values (without
/// retention the rows grow by a third). Counts, not RSS, so the gate is
/// deterministic.
#[test]
fn retained_rows_and_state_plateau_by_day_four() {
    let (tier, opts) = four_days_in_small_segments();
    // (db_rows, state_size) after the last cycle of each simulated day.
    let mut day_end = vec![(0usize, 0usize); tier.soak_days as usize];
    run_soak(&tier, &opts, |c| {
        if let Some(slot) = day_end.get_mut(c.day as usize) {
            *slot = (c.db_rows, c.state_size);
        }
    });
    let (rows3, state3) = day_end[2];
    let (rows4, state4) = day_end[3];
    assert!(rows3 > 0 && state3 > 0, "day 3 saw no data: {day_end:?}");
    assert!(
        rows4 * 10 <= rows3 * 11,
        "retained rows still growing: {rows3} -> {rows4} ({day_end:?})"
    );
    assert!(
        state4 * 10 <= state3 * 11,
        "online state still growing: {state3} -> {state4} ({day_end:?})"
    );
}

/// Settled history is read once. Sealed segments are immutable, and the
/// online path's extraction keeps what each contributed, so over the whole
/// soak the collector decodes no more blobs than it ever sealed: the runs
/// still held, the ones retention dropped, and the ones reseals rewrote.
/// (Re-scanning history every cycle through a cache smaller than the scan
/// decodes cycles × segments instead.) A count, so the gate is
/// deterministic.
#[test]
fn extraction_decodes_each_sealed_run_at_most_once() {
    let (tier, opts) = four_days_in_small_segments();
    let mut last = None;
    run_soak(&tier, &opts, |c| last = c.storage);
    let st = last.expect("segmented storage reports counters");
    let minted = st.sealed_segments as u64 + st.dropped_segments + st.reseals;
    assert!(
        st.sealed_segments > 20 && st.dropped_segments > 0,
        "the run must seal and retire segments to mean anything: {st:?}"
    );
    assert!(
        st.decodes <= minted,
        "{} decodes for {minted} sealed runs ever minted: {st:?}",
        st.decodes
    );
}

#[test]
fn soak_is_deterministic_at_smoke_scale() {
    let tier = TierConfig::smoke();
    let opts = SoakRunOpts::default();
    let a = run_soak(&tier, &opts, |_| {});
    let b = run_soak(&tier, &opts, |_| {});
    assert_eq!(a.records, b.records);
    assert_eq!(a.emissions, b.emissions);
    assert_eq!(a.latency.samples, b.latency.samples);
    assert_eq!(a.accuracy_correct, b.accuracy_correct);
}
