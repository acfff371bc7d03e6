//! Incremental extraction over a growing collector database.
//!
//! The online pipeline needs the whole event history every polling cycle;
//! with day-long histories, re-reading it costs more each cycle even though
//! a cycle only appends a few seconds of telemetry. The
//! [`IncrementalExtractor`] re-reads only what is not settled.
//!
//! Every definition is *finished* over the whole history each cycle —
//! stateful ones (down/up pairing, threshold merging, trailing baselines,
//! cost-state tracking, update dedup) because an old row can change their
//! output, point events because the pass finishing the others costs them
//! little more. But finishing needs only what each row contributed, and
//! most of the history sits in sealed segments, which never change: every
//! pass goes through a memo that holds each sealed run's part under the
//! run's id, so a run is decoded and collected once, for every definition,
//! and afterwards only the unsealed tail (at most two segments' worth of
//! rows per table) is re-read. Per cycle the work is O(tail + newly sealed
//! runs) of reading plus the finish over the accumulated parts, instead of
//! O(retained history) of decoding, and the store is *equal* to batch
//! extraction whatever the database did in between — late rows, reseals,
//! retention — which the online tests assert every cycle.
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
use crate::instance::EventStore;
use crate::singlepass::{run, Memo};
use grca_types::Timestamp;

/// Extracts a definition library repeatedly over a growing database,
/// re-reading only the unsealed rows.
///
/// One extractor serves one definition list over one topology (memoized
/// parts are resolved against it); the database may be any — the same one
/// grown, a clone, one restored from a checkpoint.
pub struct IncrementalExtractor {
    defs: Vec<EventDefinition>,
    /// Every sealed run's part, for every definition.
    memo: Memo,
}

impl IncrementalExtractor {
    pub fn new(defs: Vec<EventDefinition>) -> Self {
        IncrementalExtractor {
            defs,
            memo: Memo::default(),
        }
    }

    pub fn defs(&self) -> &[EventDefinition] {
        &self.defs
    }

    /// Always 0: the extractor caches no instances. The method stays
    /// because `bench_pipeline` reports it as `events.cached_instances`; it
    /// goes when the benchmark drops the metric.
    pub fn cached_instances(&self) -> usize {
        0
    }

    /// A no-op: the extractor caches no instances to prune. The method
    /// stays because `bench_pipeline` times it as `events.prune`; it goes
    /// when the benchmark drops that span.
    pub fn prune_before(&mut self, _cutoff: Timestamp) {}

    /// Always `None`: the extractor keeps no per-table watermarks. The
    /// method stays because `bench_pipeline`'s staged checkpoint records it
    /// (so its restore checks nothing against it, as `OnlineRca`'s does
    /// not); it goes with the staged driver.
    pub fn marks(&self) -> Option<Vec<(u64, Option<i64>)>> {
        None
    }

    /// Sealed runs whose parts the memo holds, and the heap bytes of
    /// those parts — the extractor's whole state, bounded by what the
    /// database retains (an entry goes when its run does).
    pub fn memo_size(&self) -> (usize, usize) {
        self.memo.size()
    }

    /// Extract the whole library against `cx.db`, equal to batch
    /// [`crate::singlepass::extract_all`] over the same database.
    pub fn extract(&mut self, cx: &ExtractCx) -> EventStore {
        let refs: Vec<&EventDefinition> = self.defs.iter().collect();
        let mut store = EventStore::new();
        for out in run(&refs, cx, Some(&mut self.memo)) {
            store.add(out);
        }
        store
    }
}
