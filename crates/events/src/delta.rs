//! Incremental extraction over a growing collector database.
//!
//! The online pipeline re-extracts the whole event history every polling
//! cycle; with day-long histories that cost grows linearly even though
//! each cycle only appends a few seconds of telemetry. The
//! [`IncrementalExtractor`] avoids that for the **stateless** definitions
//! (see [`crate::singlepass::is_stateless`]): it remembers a per-table
//! watermark — row count and last timestamp — and on the next cycle
//! extracts only the rows strictly *after* the watermark (a binary-searched
//! suffix of each time-sorted table), appending the new instances to a
//! per-definition cache. Stateful definitions (down/up pairing, threshold
//! merging, trailing baselines, cost-state tracking, update dedup) are
//! re-extracted in full each cycle — an old row can change their output
//! retroactively, so no watermark is sound for them.
//!
//! **Soundness of the delta.** The cache-append path is taken only when
//! every table satisfies `new_len == old_len + rows_after(old_last)`.
//! Tables sort by the record's own clock, and feeds may deliver late
//! (arrival jitter): a late record landing at or before the watermark
//! breaks that identity — `rows_after` misses it — so the extractor falls
//! back to a full stateless re-extraction for that cycle. When the
//! identity holds, the new rows are exactly the suffix strictly after the
//! watermark, so cache + delta reproduces full-table row order and the
//! resulting store is *equal* to batch extraction — the online tests
//! assert store equality every cycle.

use crate::def::EventDefinition;
use crate::extract::ExtractCx;
use crate::instance::{EventInstance, EventStore};
use crate::singlepass::{is_stateless, run, Cut};
use grca_collector::Database;
use grca_types::Timestamp;

/// Per-table ingestion watermarks: row counts plus last timestamps, in
/// [`Database::row_counts`] order.
#[derive(Debug, Clone)]
struct Marks {
    counts: [usize; 10],
    last: [Option<Timestamp>; 10],
}

impl Marks {
    fn of(db: &Database) -> Marks {
        Marks {
            counts: db.row_counts(),
            last: db.feed_watermarks().map(|(_, last)| last),
        }
    }

    /// Do the new tables extend the marked state purely past the
    /// watermarks? (If not, late rows landed inside the marked range and
    /// a delta pass would miss them.)
    fn extended_by(&self, db: &Database) -> bool {
        let counts = db.row_counts();
        let after = db.rows_after(&self.last);
        (0..10).all(|i| counts[i] == self.counts[i] + after[i])
    }
}

/// Extracts a definition library repeatedly over a growing database,
/// re-reading only the new rows for stateless definitions.
pub struct IncrementalExtractor {
    defs: Vec<EventDefinition>,
    /// Indices into `defs` of the stateless / stateful definitions.
    stateless: Vec<usize>,
    stateful: Vec<usize>,
    marks: Option<Marks>,
    /// Cached instances per stateless definition (parallel to
    /// `stateless`), in table row order.
    cache: Vec<Vec<EventInstance>>,
    full_passes: usize,
    delta_passes: usize,
}

impl IncrementalExtractor {
    pub fn new(defs: Vec<EventDefinition>) -> Self {
        let (mut stateless, mut stateful) = (Vec::new(), Vec::new());
        for (i, def) in defs.iter().enumerate() {
            if is_stateless(def) {
                stateless.push(i);
            } else {
                stateful.push(i);
            }
        }
        let cache = vec![Vec::new(); stateless.len()];
        IncrementalExtractor {
            defs,
            stateless,
            stateful,
            marks: None,
            cache,
            full_passes: 0,
            delta_passes: 0,
        }
    }

    pub fn defs(&self) -> &[EventDefinition] {
        &self.defs
    }

    /// Cycles that re-extracted the stateless definitions in full.
    pub fn full_passes(&self) -> usize {
        self.full_passes
    }

    /// Cycles that extended the stateless cache from a delta slice only.
    pub fn delta_passes(&self) -> usize {
        self.delta_passes
    }

    /// Instances currently held in the stateless cache — the extractor's
    /// dominant state. Long online runs assert this plateaus once the
    /// online path starts pruning.
    pub fn cached_instances(&self) -> usize {
        self.cache.iter().map(Vec::len).sum()
    }

    /// Drop cached stateless instances whose window ends strictly before
    /// `cutoff`. Without pruning the cache grows for the life of the run;
    /// the online path calls this with its skip floor (symptoms older than
    /// it are never diagnosed again), so extraction output stays correct
    /// for every window the caller still cares about. Applies to future
    /// full passes too: a full re-extract rebuilds the cache from the
    /// whole database, so the caller re-prunes after each cycle.
    pub fn prune_before(&mut self, cutoff: Timestamp) {
        for cached in &mut self.cache {
            cached.retain(|inst| inst.window.end >= cutoff);
        }
    }

    /// The current per-table watermarks as `(row count, last unix)` pairs
    /// in [`Database::row_counts`] order, or `None` before the first
    /// extraction. Exported for checkpointing: restore does **not** feed
    /// these back (the first post-restore extract is a deliberate full
    /// pass over the restored database), it only cross-checks them against
    /// the restored row counts to detect a torn or mismatched checkpoint.
    pub fn marks(&self) -> Option<Vec<(u64, Option<i64>)>> {
        self.marks.as_ref().map(|m| {
            (0..10)
                .map(|i| (m.counts[i] as u64, m.last[i].map(|t| t.unix())))
                .collect()
        })
    }

    /// Extract the whole library against `cx.db`, equal to batch
    /// [`crate::singlepass::extract_all`] over the same database.
    pub fn extract(&mut self, cx: &ExtractCx) -> EventStore {
        let stateless_refs: Vec<&EventDefinition> =
            self.stateless.iter().map(|&i| &self.defs[i]).collect();
        match &self.marks {
            Some(marks) if marks.extended_by(cx.db) => {
                let outs = run(&stateless_refs, cx, Cut::After(&marks.last));
                for (cached, new) in self.cache.iter_mut().zip(outs) {
                    cached.extend(new);
                }
                self.delta_passes += 1;
            }
            _ => {
                self.cache = run(&stateless_refs, cx, Cut::Full);
                self.full_passes += 1;
            }
        }
        self.marks = Some(Marks::of(cx.db));

        let stateful_refs: Vec<&EventDefinition> =
            self.stateful.iter().map(|&i| &self.defs[i]).collect();
        let stateful_outs = run(&stateful_refs, cx, Cut::Full);

        // Reassemble in original definition order so the store is built
        // exactly as the batch extractors build it.
        let mut per_def: Vec<Vec<EventInstance>> = vec![Vec::new(); self.defs.len()];
        for (k, &i) in self.stateless.iter().enumerate() {
            per_def[i] = self.cache[k].clone();
        }
        for (out, &i) in stateful_outs.into_iter().zip(&self.stateful) {
            per_def[i] = out;
        }
        let mut store = EventStore::new();
        for v in per_def {
            store.add(v);
        }
        store
    }
}
