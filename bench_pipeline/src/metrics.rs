//! The benchmark's contract in code: workload names, and every metric's
//! name, unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root carries the same lists for the driver; a unit test keeps the two
//! from drifting apart.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "soak-tier1",
        why: "BGP study streamed at tier-1 size in hourly cycles, clean delivery: the north-star number, per-record and per-cycle work both visible",
    },
    Workload {
        name: "soak-fine",
        why: "same pipeline, default topology, 5-minute cycles: per-cycle fixed cost does nearly all the work, per-record cost almost none",
    },
    Workload {
        name: "soak-hostile",
        why: "soak-tier1 input through duplicate/stall/reorder chaos into durable storage with checkpoints and one crash-restore-replay: the writer side",
    },
    Workload {
        name: "serve-live",
        why: "four tenants queried closed-loop while an open-loop publisher ingests and publishes an epoch per slot: diagnosis, spatial joins, queueing",
    },
    Workload {
        name: "batch-studies",
        why: "bulk ingest then bgp/cdn/pim batch runs over closed week-long windows: the paper's offline mode, the same layers used the other way round",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload on an untraced run. See the README for what
/// each means on each workload, and for how the bounds were set.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("response_p50_ms", "ms", "lower", 0.25),
    e2e("detect_mean_s", "sim_s", "lower", 0.25),
    e2e("detect_p90_s", "sim_s", "lower", 0.1),
    e2e("verdict_accuracy", "fraction", "higher", 0.1),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Reported by every workload on a traced run; 0 where a layer is not on
/// the workload's path.
pub const PER_LAYER: &[MetricDef] = &[
    layer("collector.ingest_ns_per_rec", "ns", "lower"),
    layer("collector.ingest_allocs_per_rec", "count", "lower"),
    layer("collector.retain_ms_per_cycle", "ms", "lower"),
    layer("collector.rows_retained", "count", "lower"),
    layer("collector.encoded_mb", "MB", "lower"),
    layer("collector.dedup_hits", "count", "higher"),
    layer("collector.quarantined", "count", "lower"),
    layer("collector.expired", "count", "lower"),
    layer("collector.reseals", "count", "lower"),
    layer("collector.cache_hit_ratio", "fraction", "higher"),
    layer("collector.durable.ckpt_ms_p50", "ms", "lower"),
    layer("collector.durable.ckpt_bytes", "bytes", "lower"),
    layer("collector.durable.restore_ms", "ms", "lower"),
    layer("collector.durable.replay_ms", "ms", "lower"),
    layer("collector.durable.cold_start", "count", "lower"),
    layer("events.extract_ms_per_cycle", "ms", "lower"),
    layer("events.extract_allocs_per_cycle", "count", "lower"),
    layer("events.delta_pass_ratio", "fraction", "higher"),
    layer("events.instances_out", "count", "lower"),
    layer("events.cached_instances", "count", "lower"),
    layer("events.prune_ms_per_cycle", "ms", "lower"),
    layer("events.batch_extract_ns_per_rec", "ns", "lower"),
    layer("core.bind_us", "us", "lower"),
    layer("core.diagnose_us", "us", "lower"),
    layer("core.diagnose_us_cdn", "us", "lower"),
    layer("core.diagnosed", "count", "lower"),
    layer("core.evidence_per_diag", "count", "higher"),
    layer("routing.build_ms", "ms", "lower"),
    layer("net-model.spatial_bind_us", "us", "lower"),
    layer("apps.online.self_ms_per_cycle", "ms", "lower"),
    layer("apps.online.verdict_wait_p50_ms", "ms", "lower"),
    layer("apps.online.cycle_tail_ms", "ms", "lower"),
    layer("apps.online.cycle_max_ms", "ms", "lower"),
    layer("apps.online.allocs_per_rec", "count", "lower"),
    layer("apps.online.state_size", "count", "lower"),
    layer("apps.online.degraded_frac", "fraction", "lower"),
    layer("apps.online.amend_frac", "fraction", "lower"),
    layer("apps.online.realtime_x", "x", "higher"),
    layer("serve.latency_p50_ms", "ms", "lower"),
    layer("serve.latency_p99_ms", "ms", "lower"),
    layer("serve.fresh_ms_p50", "ms", "lower"),
    layer("serve.publish_ms_p50", "ms", "lower"),
    layer("serve.publish_ms_max", "ms", "lower"),
    layer("serve.publisher_ingest_ms_p50", "ms", "lower"),
    layer("serve.batch_size_mean", "count", "higher"),
    layer("serve.session_diagnose_us", "us", "lower"),
    layer("serve.queue_wait_us", "us", "lower"),
    layer("serve.load_retries", "count", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.publish_late", "count", "lower"),
    layer("serve.elided", "count", "higher"),
    layer("simnet.gen_s", "s", "lower"),
    layer("simnet.records", "count", "higher"),
    layer("eval.verify_s", "s", "lower"),
    layer("eval.detect_p50_s", "sim_s", "lower"),
    layer("trace.coverage", "fraction", "higher"),
    layer("trace.overhead_frac", "fraction", "lower"),
];
