//! Chaos-injected feed transport: deterministic, seeded perturbation of
//! per-feed micro-batch delivery.
//!
//! A live collector does not see a scenario's records as one sorted
//! stream; each feed delivers micro-batches on its own cadence, and real
//! transports stall, die, duplicate, reorder, and corrupt. [`MicroBatches`]
//! turns any scenario's record stream into a per-cycle, per-feed delivery
//! schedule, and [`FeedChaos`] replays that schedule through a set of
//! [`ChaosOp`] perturbations — layered purely at the transport, so the
//! scenario's ground truth is untouched and any existing scenario can be
//! chaos-tested as-is.
//!
//! Everything is a pure function of `(seed, ops, schedule)`: randomness
//! comes from a fresh [`StdRng`] seeded per `(seed, feed, cycle)`, so runs
//! are bit-reproducible and two ops never contend for one generator.

use crate::scenario::approx_utc;
use grca_net_model::Topology;
use grca_telemetry::records::RawRecord;
use grca_types::hash::StableHasher;
use grca_types::{Duration, Timestamp};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::{BTreeMap, BTreeSet};

/// A scenario's record stream bucketed into per-cycle, per-feed
/// micro-batches — the unperturbed delivery schedule.
#[derive(Debug, Clone)]
pub struct MicroBatches {
    start: Timestamp,
    cycle_len: Duration,
    /// `batches[cycle][feed]` in feed-name order.
    batches: Vec<BTreeMap<&'static str, Vec<RawRecord>>>,
}

impl MicroBatches {
    /// Bucket `records` by emission instant ([`approx_utc`]) into cycles of
    /// `cycle_len` covering `[start, end)`. Records outside the span clamp
    /// into the first/last cycle.
    pub fn new(
        topo: &Topology,
        records: &[RawRecord],
        start: Timestamp,
        end: Timestamp,
        cycle_len: Duration,
    ) -> Self {
        let total = (end - start).as_secs().max(1);
        let cl = cycle_len.as_secs().max(1);
        let cycles = ((total + cl - 1) / cl).max(1) as usize;
        let mut batches = vec![BTreeMap::new(); cycles];
        for r in records {
            let off = (approx_utc(topo, r) - start).as_secs().clamp(0, total - 1);
            let idx = (off / cl) as usize;
            batches[idx]
                .entry(r.feed())
                .or_insert_with(Vec::new)
                .push(r.clone());
        }
        MicroBatches {
            start,
            cycle_len,
            batches,
        }
    }

    /// Bucket an already-keyed stream (e.g. [`crate::SimOutput`]'s
    /// `records`/`delivery` pair) without re-deriving each record's
    /// instant and without cloning: `records` is consumed, each record
    /// moving straight into its cycle bucket. Semantically identical to
    /// [`MicroBatches::new`] when `delivery[i] == approx_utc(records[i])`.
    pub fn from_keyed(
        records: Vec<RawRecord>,
        delivery: &[Timestamp],
        start: Timestamp,
        end: Timestamp,
        cycle_len: Duration,
    ) -> Self {
        assert_eq!(records.len(), delivery.len());
        let total = (end - start).as_secs().max(1);
        let cl = cycle_len.as_secs().max(1);
        let cycles = ((total + cl - 1) / cl).max(1) as usize;
        let mut batches = vec![BTreeMap::new(); cycles];
        for (r, &k) in records.into_iter().zip(delivery) {
            let off = (k - start).as_secs().clamp(0, total - 1);
            let idx = (off / cl) as usize;
            batches[idx]
                .entry(r.feed())
                .or_insert_with(Vec::new)
                .push(r);
        }
        // Buckets grew by `push`; a schedule kept as a reference input
        // should not carry that slack.
        for batch in batches.iter_mut().flat_map(BTreeMap::values_mut) {
            batch.shrink_to_fit();
        }
        MicroBatches {
            start,
            cycle_len,
            batches,
        }
    }

    pub fn cycles(&self) -> usize {
        self.batches.len()
    }

    /// The clock instant at the *end* of cycle `i`, when its batches have
    /// been delivered — what an online consumer uses as "now".
    pub fn clock(&self, i: usize) -> Timestamp {
        self.start + Duration::secs(self.cycle_len.as_secs() * (i as i64 + 1))
    }

    /// Cycle `i`'s batch for one feed (empty if nothing arrived).
    pub fn batch(&self, i: usize, feed: &str) -> &[RawRecord] {
        self.batches[i].get(feed).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every feed that appears anywhere in the schedule, sorted.
    pub fn feeds(&self) -> Vec<&'static str> {
        let set: BTreeSet<&'static str> = self
            .batches
            .iter()
            .flat_map(|b| b.keys().copied())
            .collect();
        set.into_iter().collect()
    }
}

/// One transport perturbation applied to a single feed. Cycle indices
/// refer to the [`MicroBatches`] schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Hold the feed's batches for `cycles` cycles starting at `from`; on
    /// resume every held batch is delivered at once, oldest first. A stall
    /// still open at the end of the schedule flushes in the final cycle
    /// (the feed catches up at the horizon).
    Stall {
        feed: &'static str,
        from: usize,
        cycles: usize,
    },
    /// Drop the feed's batches in `[from, from + cycles)` — lost forever.
    Outage {
        feed: &'static str,
        from: usize,
        cycles: usize,
    },
    /// Redeliver every `period`-th non-empty batch again one cycle later
    /// (duplicate delivery the transport-level dedup must absorb). A batch
    /// held by a concurrent `Stall` is redelivered into the same backlog —
    /// the stalled pipe can't redeliver ahead of what it hasn't flushed.
    Duplicate { feed: &'static str, period: usize },
    /// Shuffle record order *within* every `period`-th non-empty batch.
    /// (Cross-cycle reorder below the staleness allowance is
    /// indistinguishable from benign silence without per-source
    /// heartbeats, so within-batch shuffles are the convergence-safe
    /// reorder model; cross-cycle effects come from `Stall`.)
    Reorder { feed: &'static str, period: usize },
    /// Corrupt one record in every `period`-th non-empty batch: truncated
    /// or garbled lines, clocks centuries off, non-finite samples, ghost
    /// entities. The record is still delivered — mangled, never dropped —
    /// so the collector's quarantine accounting must absorb it.
    Corrupt { feed: &'static str, period: usize },
    /// The feed dies at cycle `from`; nothing after that is ever
    /// delivered.
    Kill { feed: &'static str, from: usize },
}

impl ChaosOp {
    pub fn feed(&self) -> &'static str {
        match self {
            ChaosOp::Stall { feed, .. }
            | ChaosOp::Outage { feed, .. }
            | ChaosOp::Duplicate { feed, .. }
            | ChaosOp::Reorder { feed, .. }
            | ChaosOp::Corrupt { feed, .. }
            | ChaosOp::Kill { feed, .. } => feed,
        }
    }
}

/// A seeded set of transport perturbations replayed over a
/// [`MicroBatches`] schedule.
#[derive(Debug, Clone, Default)]
pub struct FeedChaos {
    pub seed: u64,
    pub ops: Vec<ChaosOp>,
}

impl FeedChaos {
    pub fn new(seed: u64) -> Self {
        FeedChaos {
            seed,
            ops: Vec::new(),
        }
    }

    pub fn with(mut self, op: ChaosOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Fresh generator for `(seed, feed, cycle)` — op order never shifts
    /// another cycle's draws.
    fn rng(&self, feed: &str, cycle: usize) -> StdRng {
        use std::hash::Hasher;
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_str(feed);
        h.write_usize(cycle);
        StdRng::seed_from_u64(h.finish())
    }

    /// Replay the schedule through the perturbations: what the collector
    /// actually receives each cycle. Within a cycle, feeds deliver in
    /// sorted-name order; within a feed, stalled backlog flushes before
    /// the current batch.
    pub fn deliver(&self, mb: &MicroBatches) -> Vec<Vec<RawRecord>> {
        let cycles = mb.cycles();
        let mut out: Vec<Vec<RawRecord>> = vec![Vec::new(); cycles];
        for feed in mb.feeds() {
            let ops: Vec<&ChaosOp> = self.ops.iter().filter(|o| o.feed() == feed).collect();
            let mut held: Vec<RawRecord> = Vec::new();
            let mut nonempty = 0usize;
            for c in 0..cycles {
                let killed = ops
                    .iter()
                    .any(|o| matches!(o, ChaosOp::Kill { from, .. } if c >= *from));
                let outaged = ops.iter().any(
                    |o| matches!(o, ChaosOp::Outage { from, cycles, .. } if c >= *from && c < from + cycles),
                );
                let stalled = ops.iter().any(
                    |o| matches!(o, ChaosOp::Stall { from, cycles, .. } if c >= *from && c < from + cycles),
                );

                let mut batch = mb.batch(c, feed).to_vec();
                if killed || outaged {
                    continue;
                }
                let mut duplicate = false;
                if !batch.is_empty() {
                    nonempty += 1;
                    let mut rng = self.rng(feed, c);
                    for op in &ops {
                        match op {
                            ChaosOp::Reorder { period, .. } if nonempty.is_multiple_of(*period) => {
                                shuffle(&mut batch, &mut rng);
                            }
                            ChaosOp::Corrupt { period, .. } if nonempty.is_multiple_of(*period) => {
                                let i = rng.random_range(0..batch.len());
                                corrupt_record(&mut batch[i], &mut rng);
                            }
                            ChaosOp::Duplicate { period, .. }
                                if nonempty.is_multiple_of(*period) =>
                            {
                                duplicate = true;
                            }
                            _ => {}
                        }
                    }
                }
                if duplicate && !stalled {
                    let target = (c + 1).min(cycles - 1);
                    out[target].extend(batch.iter().cloned());
                }
                if stalled {
                    // Delivery order within the feed stays monotone: the
                    // duplicate joins the backlog instead of jumping ahead
                    // of batches the stall is still holding.
                    if duplicate {
                        held.extend(batch.iter().cloned());
                    }
                    held.append(&mut batch);
                } else {
                    out[c].append(&mut held);
                    out[c].append(&mut batch);
                }
            }
            // Stall never resumed in-schedule: flush at the horizon.
            if !held.is_empty() {
                out[cycles - 1].append(&mut held);
            }
        }
        // A delivered schedule is built once and then only read, often for
        // the life of a benchmark: hold no growth slack.
        for cycle in &mut out {
            cycle.shrink_to_fit();
        }
        out
    }

    /// Consume a schedule, delivering by move. With no ops configured —
    /// the common benchmark/soak case — every batch's records move
    /// straight into the per-cycle output with zero record clones; with
    /// ops, falls back to the borrowing [`FeedChaos::deliver`].
    pub fn deliver_owned(&self, mb: MicroBatches) -> Vec<Vec<RawRecord>> {
        if !self.ops.is_empty() {
            return self.deliver(&mb);
        }
        mb.batches
            .into_iter()
            .map(|feeds| {
                // Sized exactly: `flatten().collect()` grows by doubling
                // and leaves up to half the vector as slack.
                let mut cycle = Vec::with_capacity(feeds.values().map(Vec::len).sum());
                for batch in feeds.into_values() {
                    cycle.extend(batch);
                }
                cycle
            })
            .collect()
    }
}

/// Fisher–Yates shuffle driven by the per-(feed, cycle) generator.
fn shuffle(batch: &mut [RawRecord], rng: &mut StdRng) {
    for i in (1..batch.len()).rev() {
        let j = rng.random_range(0..=i);
        batch.swap(i, j);
    }
}

/// Mangle one record in a feed-appropriate way. Every mode maps to a
/// failure the collector must catch: malformed text, implausible clocks,
/// non-finite samples, unknown entities.
fn corrupt_record(rec: &mut RawRecord, rng: &mut StdRng) {
    match rec {
        RawRecord::Syslog(s) => match rng.random_range(0u8..3) {
            0 => {
                // Truncate mid-line (at a char boundary).
                let mut cut = s.line.len() / 2;
                while cut > 0 && !s.line.is_char_boundary(cut) {
                    cut -= 1;
                }
                s.line.truncate(cut);
            }
            1 => {
                // Garble one digit of the year: the timestamp still
                // parses, but the instant lands centuries away — the
                // clock-plausibility guard must quarantine it before it
                // wedges the feed's watermark.
                s.line.replace_range(0..1, "9");
            }
            _ => s.line = "#CHAOS garbled frame".to_string(),
        },
        RawRecord::Snmp(x) => x.value = f64::NAN,
        RawRecord::Perf(x) => x.value = f64::INFINITY,
        RawRecord::CdnMon(x) => x.rtt_ms = f64::NAN,
        RawRecord::ServerLog(x) => x.load = f64::NAN,
        RawRecord::Workflow(x) => x.activity = "".into(),
        RawRecord::Tacacs(x) => x.router = "chaos-ghost".into(),
        RawRecord::L1Log(x) => x.device = "chaos-ghost".into(),
        RawRecord::OspfMon(x) => x.utc = Timestamp::from_unix(99_999_999_999),
        RawRecord::BgpMon(x) => x.egress_router = "chaos-ghost".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultRates, ScenarioConfig};
    use crate::scenario::run_scenario;
    use grca_net_model::gen::{generate, TopoGenConfig};

    fn schedule() -> (Topology, MicroBatches, usize) {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 11, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let n = out.records.len();
        let mb = MicroBatches::new(
            &topo,
            &out.records,
            cfg.start,
            cfg.end(),
            Duration::mins(30),
        );
        (topo, mb, n)
    }

    fn flat(delivery: &[Vec<RawRecord>]) -> Vec<String> {
        delivery
            .iter()
            .flatten()
            .map(|r| format!("{r:?}"))
            .collect()
    }

    #[test]
    fn bucketing_conserves_every_record() {
        let (_, mb, n) = schedule();
        let total: usize = (0..mb.cycles())
            .flat_map(|c| mb.feeds().into_iter().map(move |f| (c, f)))
            .map(|(c, f)| mb.batch(c, f).len())
            .sum();
        assert_eq!(total, n);
        assert!(mb.cycles() == 48, "{}", mb.cycles());
        assert!(mb.feeds().contains(&"syslog"));
    }

    #[test]
    fn delivery_is_deterministic_per_seed() {
        let (_, mb, _) = schedule();
        let chaos = FeedChaos::new(7)
            .with(ChaosOp::Stall {
                feed: "snmp",
                from: 5,
                cycles: 6,
            })
            .with(ChaosOp::Duplicate {
                feed: "syslog",
                period: 3,
            })
            .with(ChaosOp::Reorder {
                feed: "syslog",
                period: 2,
            })
            .with(ChaosOp::Corrupt {
                feed: "perf",
                period: 4,
            });
        assert_eq!(flat(&chaos.deliver(&mb)), flat(&chaos.deliver(&mb)));
        // A different seed perturbs differently (reorder draws differ).
        let other = FeedChaos {
            seed: 8,
            ops: chaos.ops.clone(),
        };
        assert_ne!(flat(&chaos.deliver(&mb)), flat(&other.deliver(&mb)));
    }

    #[test]
    fn stall_and_reorder_conserve_the_record_multiset() {
        let (_, mb, n) = schedule();
        let chaos = FeedChaos::new(3)
            .with(ChaosOp::Stall {
                feed: "syslog",
                from: 2,
                cycles: 40, // extends past the horizon → flushed at the end
            })
            .with(ChaosOp::Stall {
                feed: "snmp",
                from: 10,
                cycles: 8,
            })
            .with(ChaosOp::Reorder {
                feed: "perf",
                period: 1,
            });
        let delivered = chaos.deliver(&mb);
        assert_eq!(delivered.iter().map(Vec::len).sum::<usize>(), n);
        let mut a = flat(&delivered);
        let plain = FeedChaos::new(3).deliver(&mb);
        let mut b = flat(&plain);
        a.sort();
        b.sort();
        assert_eq!(a, b, "stall/reorder must only delay or permute");
        // During the stall window the stalled feed is silent.
        for batch in &delivered[11..18] {
            assert!(batch.iter().all(|r| r.feed() != "snmp"));
        }
        // Resume cycle carries the whole backlog.
        let backlog: usize = (10..18).map(|c| mb.batch(c, "snmp").len()).sum();
        let resumed = delivered[18].iter().filter(|r| r.feed() == "snmp").count();
        assert_eq!(resumed, backlog + mb.batch(18, "snmp").len());
    }

    #[test]
    fn duplicate_adds_copies_without_losing_originals() {
        let (_, mb, n) = schedule();
        let chaos = FeedChaos::new(5).with(ChaosOp::Duplicate {
            feed: "syslog",
            period: 2,
        });
        let delivered = chaos.deliver(&mb);
        let total: usize = delivered.iter().map(Vec::len).sum();
        assert!(total > n, "duplicates should add copies");
        // Deduplicated delivery equals the original record set.
        let mut a = flat(&delivered);
        a.sort();
        a.dedup();
        let mut b = flat(&FeedChaos::new(5).deliver(&mb));
        b.sort();
        b.dedup();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicates_respect_stall_order() {
        // A redelivery must never jump ahead of batches a stall is still
        // holding: per feed, everything delivered so far stays strictly
        // older than everything still undelivered — otherwise the feed's
        // watermark vouches for data that has not arrived.
        let (topo, mb, _) = schedule();
        let chaos = FeedChaos::new(7)
            .with(ChaosOp::Stall {
                feed: "snmp",
                from: 5,
                cycles: 12,
            })
            .with(ChaosOp::Duplicate {
                feed: "snmp",
                period: 1,
            });
        let delivered = chaos.deliver(&mb);
        let originals: usize = (0..mb.cycles()).map(|c| mb.batch(c, "snmp").len()).sum();
        let total: usize = delivered
            .iter()
            .flatten()
            .filter(|r| r.feed() == "snmp")
            .count();
        assert!(total > originals, "duplicates should fire during the stall");
        let mut seen: BTreeSet<i64> = BTreeSet::new();
        let all: BTreeSet<i64> = (0..mb.cycles())
            .flat_map(|c| {
                mb.batch(c, "snmp")
                    .iter()
                    .map(|r| approx_utc(&topo, r).unix())
            })
            .collect();
        for batch in &delivered {
            for r in batch.iter().filter(|r| r.feed() == "snmp") {
                seen.insert(approx_utc(&topo, r).unix());
            }
            let watermark = seen.iter().next_back().copied();
            let pending = all.difference(&seen).next().copied();
            if let (Some(w), Some(p)) = (watermark, pending) {
                assert!(w < p, "watermark {w} passed undelivered instant {p}");
            }
        }
    }

    #[test]
    fn outage_and_kill_drop_exactly_the_windowed_batches() {
        let (_, mb, _) = schedule();
        let chaos = FeedChaos::new(1)
            .with(ChaosOp::Outage {
                feed: "snmp",
                from: 4,
                cycles: 3,
            })
            .with(ChaosOp::Kill {
                feed: "perf",
                from: 20,
            });
        let delivered = chaos.deliver(&mb);
        let lost_outage: usize = (4..7).map(|c| mb.batch(c, "snmp").len()).sum();
        let lost_kill: usize = (20..mb.cycles()).map(|c| mb.batch(c, "perf").len()).sum();
        assert!(
            lost_outage > 0 && lost_kill > 0,
            "windows should be non-trivial"
        );
        let n_all: usize = FeedChaos::new(1).deliver(&mb).iter().map(Vec::len).sum();
        let n_chaos: usize = delivered.iter().map(Vec::len).sum();
        assert_eq!(n_chaos, n_all - lost_outage - lost_kill);
        for (c, batch) in delivered.iter().enumerate() {
            if c >= 20 {
                assert!(batch.iter().all(|r| r.feed() != "perf"));
            }
        }
    }

    #[test]
    fn corruption_mangles_but_never_drops() {
        let (_, mb, n) = schedule();
        let chaos = FeedChaos::new(9)
            .with(ChaosOp::Corrupt {
                feed: "syslog",
                period: 1,
            })
            .with(ChaosOp::Corrupt {
                feed: "snmp",
                period: 1,
            });
        let delivered = chaos.deliver(&mb);
        assert_eq!(delivered.iter().map(Vec::len).sum::<usize>(), n);
        assert_ne!(flat(&delivered), flat(&FeedChaos::new(9).deliver(&mb)));
    }

    /// Keyed bucketing (no `approx_utc`, no clones) and owned delivery
    /// (no ops) produce exactly the schedule and stream the borrowing
    /// path does.
    #[test]
    fn keyed_bucketing_and_owned_delivery_match_borrowing_path() {
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 11, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        let mb = MicroBatches::new(
            &topo,
            &out.records,
            cfg.start,
            cfg.end(),
            Duration::mins(30),
        );
        let mbk = MicroBatches::from_keyed(
            out.records,
            &out.delivery,
            cfg.start,
            cfg.end(),
            Duration::mins(30),
        );
        assert_eq!(mb.cycles(), mbk.cycles());
        for c in 0..mb.cycles() {
            for f in mb.feeds() {
                assert_eq!(mb.batch(c, f), mbk.batch(c, f), "cycle {c} feed {f}");
            }
        }
        let plain = FeedChaos::new(3);
        let (borrowed, owned) = (plain.deliver(&mb), plain.deliver_owned(mbk));
        assert_eq!(flat(&borrowed), flat(&owned));
        // Delivered cycles are sized exactly on both paths.
        for cycle in borrowed.iter().chain(&owned) {
            assert_eq!(cycle.capacity(), cycle.len());
        }
        // With ops configured the owned path falls back to full chaos.
        let mb2 = MicroBatches::new(
            &topo,
            &mb.batches
                .iter()
                .flat_map(|b| b.values().flatten().cloned())
                .collect::<Vec<_>>(),
            cfg.start,
            cfg.end(),
            Duration::mins(30),
        );
        let chaos = FeedChaos::new(3).with(ChaosOp::Kill {
            feed: "perf",
            from: 0,
        });
        let owned = chaos.deliver_owned(mb2.clone());
        assert_eq!(flat(&chaos.deliver(&mb2)), flat(&owned));
        assert!(owned.iter().flatten().all(|r| r.feed() != "perf"));
    }

    #[test]
    fn clock_advances_one_cycle_per_batch() {
        let (_, mb, _) = schedule();
        assert_eq!(mb.clock(0) - mb.clock(1), Duration::mins(-30));
        assert_eq!(
            mb.clock(mb.cycles() - 1),
            mb.clock(0) + Duration::mins(30 * 47)
        );
    }
}
