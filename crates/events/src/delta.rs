//! Incremental extraction over a growing collector database.
//!
//! The online pipeline needs the whole event history every polling cycle;
//! with day-long histories, re-reading it costs more each cycle even though
//! a cycle only appends a few seconds of telemetry. The
//! [`IncrementalExtractor`] re-reads as little as is sound, two ways.
//!
//! **Stateless definitions** (see [`crate::singlepass::is_stateless`])
//! extend a per-definition cache from a delta: the extractor remembers a
//! per-table watermark — row count and last timestamp — and on the next
//! cycle extracts only the rows strictly *after* it (a binary-searched
//! suffix of each time-sorted table).
//!
//! **Stateful definitions** (down/up pairing, threshold merging, trailing
//! baselines, cost-state tracking, update dedup) have no sound watermark —
//! an old row can change their output retroactively — so they are
//! *finished* over the whole history each cycle. But finishing needs only
//! what each row contributed, and most of the history sits in sealed
//! segments, which never change: every full pass goes through a
//! memo that holds each sealed run's part under the run's id, so a run
//! is decoded and collected once — for every definition, stateless ones
//! included — and afterwards only the unsealed tail (at most two segments'
//! worth of rows per table) is re-read. Per cycle the work is
//! O(tail + newly sealed runs) of reading plus the finish over the
//! accumulated parts, instead of O(retained history) of decoding.
//!
//! **Soundness of the delta.** The cache-append path is taken only when
//! every table satisfies `new_len == old_len + rows_after(old_last)`.
//! Tables sort by the record's own clock, and feeds may deliver late
//! (arrival jitter): a late record landing at or before the watermark
//! breaks that identity — `rows_after` misses it — so the extractor falls
//! back to a full stateless pass for that cycle (through the memo, like
//! the stateful one: one pass finishes both). When the identity holds, the
//! new rows are exactly the suffix strictly after the watermark, so cache +
//! delta reproduces full-table row order and the resulting store is *equal*
//! to batch extraction — the online tests assert store equality every
//! cycle.
//!
//! **Soundness of the memo.** A part is a pure function of its run's rows
//! (no collect loop carries state across rows), a run's rows never change,
//! and its id is never reused in the process — so the parts of the runs a
//! walk meets, in order, followed by the tail's, are what one collect over
//! [`grca_collector::Table::all`] would have produced. Retention and
//! reseals change which runs a walk meets; entries for runs it did not
//! meet are dropped that cycle. Handing the extractor another database is
//! safe for the same reason: it meets other ids.

use crate::def::EventDefinition;
use crate::extract::ExtractCx;
use crate::instance::{EventInstance, EventStore};
use crate::singlepass::{is_stateless, run, Cut, Memo};
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
/// re-reading only the new rows for stateless definitions and only the
/// unsealed rows for stateful ones.
///
/// One extractor serves one definition list over one topology (cached
/// instances and memoized parts are resolved against it); the database may
/// be any — the same one grown, a clone, one restored from a checkpoint.
pub struct IncrementalExtractor {
    defs: Vec<EventDefinition>,
    /// Indices into `defs` of the stateless definitions.
    stateless: Vec<usize>,
    marks: Option<Marks>,
    /// Cached instances per stateless definition (parallel to
    /// `stateless`), in table row order.
    cache: Vec<Vec<EventInstance>>,
    /// Every sealed run's part, for every definition.
    memo: Memo,
    full_passes: usize,
    delta_passes: usize,
}

impl IncrementalExtractor {
    pub fn new(defs: Vec<EventDefinition>) -> Self {
        let stateless: Vec<usize> = (0..defs.len())
            .filter(|&i| is_stateless(&defs[i]))
            .collect();
        let cache = vec![Vec::new(); stateless.len()];
        IncrementalExtractor {
            defs,
            stateless,
            marks: None,
            cache,
            memo: Memo::default(),
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

    /// Sealed runs whose parts the memo holds, and the heap bytes of
    /// those parts — the extractor's other state, bounded by what the
    /// database retains (an entry goes when its run does).
    pub fn memo_size(&self) -> (usize, usize) {
        self.memo.size()
    }

    /// Extract the whole library against `cx.db`, equal to batch
    /// [`crate::singlepass::extract_all`] over the same database.
    pub fn extract(&mut self, cx: &ExtractCx) -> EventStore {
        let delta = match &self.marks {
            Some(marks) if marks.extended_by(cx.db) => {
                let stateless_refs: Vec<&EventDefinition> =
                    self.stateless.iter().map(|&i| &self.defs[i]).collect();
                let outs = run(&stateless_refs, cx, Cut::After(&marks.last));
                for (cached, new) in self.cache.iter_mut().zip(outs) {
                    cached.extend(new);
                }
                self.delta_passes += 1;
                true
            }
            _ => {
                self.full_passes += 1;
                false
            }
        };
        self.marks = Some(Marks::of(cx.db));

        // One full pass through the memo, over every definition in its
        // original order (so the store is built exactly as the batch
        // extractors build it): it finishes the stateful ones, and the
        // stateless ones too when no delta was sound.
        let refs: Vec<&EventDefinition> = self.defs.iter().collect();
        let cut = Cut::Memo {
            memo: &mut self.memo,
            stateful_only: delta,
        };
        let mut per_def = run(&refs, cx, cut);
        for (cached, &i) in self.cache.iter_mut().zip(&self.stateless) {
            if delta {
                per_def[i] = cached.clone();
            } else {
                *cached = per_def[i].clone();
            }
        }
        let mut store = EventStore::new();
        for v in per_def {
            store.add(v);
        }
        store
    }
}
