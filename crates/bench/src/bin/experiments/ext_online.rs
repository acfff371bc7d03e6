//! X2 (extension, paper future-work item 3) — real-time root cause
//! analysis.
//!
//! Streams a scenario's raw records into `OnlineRca` in hourly arrival
//! batches and reports (a) equivalence with the batch pipeline and (b)
//! diagnosis latency: how long after a symptom occurs its verdict is
//! emitted (bounded by the watermark hold-back derived from the graph).

use crate::{json, Output};
use grca_apps::Study;
use grca_bench::fixture;
use grca_eval::{labels, Cadence, Replay};
use grca_net_model::gen::TopoGenConfig;
use grca_simnet::{FaultRates, FeedChaos, MicroBatches};
use grca_types::Duration;
use serde::Serialize;

#[derive(Serialize)]
struct Result {
    symptoms: usize,
    matches_batch: bool,
    hold_back_secs: i64,
    max_latency_secs: i64,
    batches: usize,
}

pub fn run(_smoke: bool) -> Output {
    let fx = fixture(&TopoGenConfig::small(), 5, 61, FaultRates::bgp_study());
    let batch = Study::Bgp.run(&fx.topo, &fx.db).expect("valid app");

    // The post-scenario drain is quiet for hold_back + 30 min — longer than
    // syslog's default staleness allowance — so widen the cadence to keep
    // the silence vouched for; a live production feed would keep delivering.
    let online = Study::Bgp
        .online(&fx.topo)
        .with_feed_cadence("syslog", Duration::hours(1));
    let hold_back = online.hold_back();
    println!("derived hold-back: {hold_back}");

    // True hourly arrival batches: each batch carries the records emitted
    // during that hour, delivered verbatim; the feeds run their default
    // liveness-vouching cadences.
    let cycle_len = Duration::hours(1);
    let mb = MicroBatches::new(
        &fx.topo,
        &fx.out.records,
        fx.cfg.start,
        fx.cfg.end(),
        cycle_len,
    );
    let n_batches = mb.cycles();
    let mut replay = Replay::new(Study::Bgp, &fx.topo, online, cycle_len, Cadence::Liveness);
    let clocks = replay.clocks(&mb, fx.cfg.end());
    let delivered = FeedChaos::new(0).deliver_owned(mb);

    let mut streamed = Vec::new();
    let mut max_latency = Duration::ZERO;
    replay.run(&clocks, &delivered, |_, c, new| {
        for e in new {
            assert!(
                e.mode == grca_core::EmissionMode::Full,
                "healthy feeds must emit full"
            );
            let d = e.diagnosis;
            max_latency = max_latency.max(c.clock - d.symptom.window.end);
            streamed.push(d);
        }
    });

    let matches = labels(&fx.topo, &streamed) == labels(&fx.topo, &batch.diagnoses);
    println!(
        "streamed {} diagnoses over {n_batches} hourly batches; identical to batch: {matches}",
        streamed.len()
    );
    println!(
        "max emission latency past symptom end: {max_latency} \
         (bound: hold-back {hold_back} + 1h batch cadence)"
    );
    assert!(matches, "streaming must equal batch");
    assert!(max_latency <= hold_back + Duration::hours(1) + Duration::mins(5));
    let result = Result {
        symptoms: streamed.len(),
        matches_batch: matches,
        hold_back_secs: hold_back.as_secs(),
        max_latency_secs: max_latency.as_secs(),
        batches: n_batches,
    };
    vec![("exp_ext_online.json", json(&result))]
}
