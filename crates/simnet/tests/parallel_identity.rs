//! Parallel ≡ sequential byte-identity for the sharded background
//! emitter, plus a pinned fingerprint of the shipped record stream.
//!
//! The simulator splits emission into a sequential fault/injector pass
//! and a parallel background pass (per-shard RNG streams merged in
//! canonical shard order). These tests are the contract that makes the
//! parallel path trustworthy: the record stream, delivery keys, truth
//! and fault timelines must be identical at every worker count, across
//! presets and fault mixes, with and without mid-window manifest faults,
//! and with recycled emission buffers. The final test pins the manifest
//! replayer's stream with a stable FNV-1a fingerprint so an accidental
//! RNG restream in a future change fails loudly instead of silently
//! invalidating the committed goldens.

use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::TierConfig;
use grca_simnet::{
    run_manifest_into, run_manifest_threads, run_scenario_threads, FaultRates, ScenarioConfig,
    SimBuffers, SimOutput, SoakManifest,
};
use grca_types::{Duration, Timestamp};

/// FNV-1a over the debug rendering of every record — stable across Rust
/// releases (unlike `DefaultHasher`), cheap, and readable in failures.
fn fingerprint(out: &SimOutput) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for r in &out.records {
        eat(format!("{r:?}").as_bytes());
    }
    for d in &out.delivery {
        eat(&d.0.to_le_bytes());
    }
    h
}

fn assert_identical(a: &SimOutput, b: &SimOutput, tag: &str) {
    assert_eq!(a.records, b.records, "{tag}: record streams diverge");
    assert_eq!(a.delivery, b.delivery, "{tag}: delivery keys diverge");
    assert_eq!(a.truth, b.truth, "{tag}: truth diverges");
    assert_eq!(a.faults, b.faults, "{tag}: fault timelines diverge");
}

#[test]
fn scenario_identical_across_thread_counts() {
    let topo = generate(&TopoGenConfig::small());
    for (tag, rates) in [
        ("bgp", FaultRates::bgp_study()),
        ("cdn", FaultRates::cdn_study()),
        ("pim", FaultRates::pim_study()),
    ] {
        let cfg = ScenarioConfig::new(2, 7_001, rates);
        let seq = run_scenario_threads(&topo, &cfg, 1);
        for threads in [2, 3, 8] {
            let par = run_scenario_threads(&topo, &cfg, threads);
            assert_identical(&seq, &par, &format!("{tag}/threads={threads}"));
        }
    }
}

#[test]
fn manifest_with_midwindow_fault_identical_across_thread_counts() {
    let topo = generate(&TopoGenConfig::small());
    let mut cfg = ScenarioConfig::new(2, 31_337, FaultRates::bgp_study());
    // A manifest drawn over the window guarantees injections land
    // mid-window, interleaving fault records with background shards.
    let manifest = SoakManifest::draw(cfg.start, cfg.days, 424_242, &cfg.rates);
    assert!(!manifest.is_empty(), "manifest drew no faults");
    cfg.start += Duration::secs(3_600);
    let seq = run_manifest_threads(&topo, &cfg, &manifest, 1);
    for threads in [2, 4] {
        let par = run_manifest_threads(&topo, &cfg, &manifest, threads);
        assert_identical(&seq, &par, &format!("manifest/threads={threads}"));
    }
}

#[test]
fn recycled_buffers_do_not_change_output() {
    let topo = generate(&TopoGenConfig::small());
    let rates = FaultRates::bgp_study();
    let manifest = SoakManifest::draw(Timestamp::from_civil(2010, 1, 1, 0, 0, 0), 2, 600, &rates);
    let mut bufs = SimBuffers::new();
    for day in 0..2u32 {
        let mut cfg = ScenarioConfig::new(1, 9_000 + day as u64, rates.clone());
        cfg.start += Duration::days(day as i64);
        let slice = manifest.window(cfg.start, cfg.end());
        let fresh = run_manifest_threads(&topo, &cfg, &slice, 2);
        let recycled = run_manifest_into(&topo, &cfg, &slice, 2, &mut bufs);
        assert_identical(&fresh, &recycled, &format!("day={day}"));
    }
}

#[test]
fn default_preset_scenario_identical_across_thread_counts() {
    // One cross-check at a non-smoke preset shape: the default tier's
    // topology exercises probe fan-out and larger shard counts.
    let tier = TierConfig::default_preset();
    let topo = generate(&tier.topo);
    let mut cfg = ScenarioConfig::new(1, 2_026, FaultRates::bgp_study());
    cfg.background.probe_fanout = tier.probe_fanout;
    let seq = run_scenario_threads(&topo, &cfg, 1);
    let par = run_scenario_threads(&topo, &cfg, 4);
    assert_identical(&seq, &par, "default-preset/threads=4");
}

/// Pin the smoke-preset stream of the path that ships. The golden, chaos
/// and recovery corpora are functions of the simulator's record stream,
/// so it must never drift unnoticed. If an intentional simulator change moves
/// this, regenerate the goldens and update the constant in the same PR.
#[test]
fn smoke_stream_is_pinned() {
    let tier = TierConfig::smoke();
    let topo = generate(&tier.topo);
    let cfg = ScenarioConfig::new(1, 600, FaultRates::bgp_study());
    let manifest = SoakManifest::draw(cfg.start, cfg.days, 600 ^ 0x50AC, &cfg.rates);
    let out = run_manifest_threads(&topo, &cfg, &manifest, 1);
    assert_eq!(
        fingerprint(&out),
        0x735d_049a_175d_1418,
        "simulator record stream drifted — regenerate goldens if intentional"
    );
}
