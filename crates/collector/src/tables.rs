//! The row storage under [`crate::Table`]: its flat tail and the shapes
//! its queries answer in.
//!
//! The paper's deployment lands normalized records in real-time database
//! tables (§II-A); the access patterns the RCA engine needs are "all rows
//! of feed F in time window W (optionally matching a predicate)" and "the
//! rows of one entity, in time order". A table (see [`crate::storage`])
//! keeps its newest rows — all of them, when it never seals — in a
//! [`FlatTable`]: one dense row vector, a **timestamp column** for
//! O(log n) binary-searched range cuts, and a **per-entity offset index**
//! (`BTreeMap` for deterministic group order) built by the first
//! per-entity lookup after a change, never by ingest. Rows are held in
//! canonical `(time, tiebreak)` order — for the collector's rows `(time,
//! fp)`, unique per row — which [`FlatTable::finalize`] restores with one
//! unstable in-place sort of each new batch on that stored key, merged
//! with the sorted prefix only where the two overlap.
//!
//! Because queries assemble rows from several decoded sealed segments
//! plus the flat tail, they return a [`RowSet`] — a small list of pinned
//! segment chunks plus a tail slice — instead of one borrowed slice. With
//! nothing sealed a `RowSet` is exactly the tail slice (no chunks, no
//! allocation).

use crate::rows::{EntityIndex, Row};
use crate::segment::{DecodedSeg, StoredRow};
use grca_types::{TimeWindow, Timestamp};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The unsealed tail
// ---------------------------------------------------------------------------

/// A `Vec`-backed run of rows, all resident, sorted by the canonical
/// `(time, tiebreak)` key after [`FlatTable::finalize`]: the unsealed
/// tail of a [`crate::Table`], where the ingest hot path and the
/// merge-finalize live.
#[derive(Debug, Clone)]
pub struct FlatTable<R: Row> {
    rows: Vec<R>,
    /// Columnar copy of each row's timestamp for `rows[..finalized]`.
    times: Vec<Timestamp>,
    /// Entity → offsets into the finalized `rows`: built by the first
    /// per-entity lookup, dropped by finalize and sealing.
    groups: EntityIndex<R::Entity>,
    /// Rows covered by the indexes; `rows[finalized..]` are raw pushes.
    finalized: usize,
}

impl<R: Row> Default for FlatTable<R> {
    fn default() -> Self {
        FlatTable {
            rows: Vec::new(),
            times: Vec::new(),
            groups: EntityIndex::default(),
            finalized: 0,
        }
    }
}

impl<R: Row> FlatTable<R> {
    pub fn push(&mut self, row: R) {
        self.rows.push(row);
    }

    /// Sort by the canonical `(time, tiebreak)` key, extend the timestamp
    /// column and drop the per-entity offset index (the next lookup
    /// rebuilds it). Must be called after ingestion, before querying.
    /// Keys are unique ([`Row::tiebreak`]), so one unstable sort gives an
    /// order that is a pure function of the row set: a database rebuilt
    /// from chaos-reordered feeds equals the batch one.
    ///
    /// Cost is proportional to the new suffix plus the merge overlap: the
    /// sorted prefix is *merged* with the sorted new batch rather than
    /// re-sorting the whole vector, and a batch that lands entirely past
    /// the prefix (the common in-order case) just extends the column.
    pub fn finalize(&mut self) {
        let n0 = self.finalized;
        let n = self.rows.len();
        if n0 == n {
            return;
        }
        self.rows[n0..].sort_unstable_by_key(Row::key);
        // Everything before `start` keeps its position and its indexes.
        let suffix_min = self.rows[n0].key();
        let start = self.rows[..n0].partition_point(|r| r.key() <= suffix_min);
        if start < n0 {
            let suffix = self.rows.split_off(n0);
            let prefix = self.rows.split_off(start);
            merge_sorted(&mut self.rows, prefix, suffix);
        }
        self.times.truncate(start);
        self.times
            .extend(self.rows[start..].iter().map(|r| r.time()));
        self.groups.clear();
        self.finalized = n;
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in time order.
    pub fn all_slice(&self) -> &[R] {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        &self.rows
    }

    /// Rows with `start <= time <= end` (closed window).
    pub fn range_slice(&self, w: TimeWindow) -> &[R] {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        let lo = self.times.partition_point(|&t| t < w.start);
        let hi = self.times.partition_point(|&t| t <= w.end);
        &self.rows[lo..hi]
    }

    /// Rows with `time >= t`.
    pub fn since_slice(&self, t: Timestamp) -> &[R] {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        &self.rows[self.times.partition_point(|&u| u < t)..]
    }

    /// The latest timestamp in the table.
    pub fn last_time(&self) -> Option<Timestamp> {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        self.times.last().copied()
    }

    /// One entity's row store and offsets (empty if unseen).
    pub(crate) fn rows_of_parts(&self, entity: &R::Entity) -> (&[R], &[u32]) {
        let rows = self.all_slice();
        (rows, self.groups.offsets_of(rows, entity))
    }

    /// Distinct entities, ascending.
    pub fn group_entities(&self) -> Vec<R::Entity> {
        self.groups.of(self.all_slice()).keys().copied().collect()
    }

    /// Build directly from rows already in canonical order.
    pub(crate) fn from_sorted_rows(rows: Vec<R>) -> Self {
        FlatTable {
            times: rows.iter().map(|r| r.time()).collect(),
            finalized: rows.len(),
            rows,
            groups: EntityIndex::default(),
        }
    }

    /// Consume the table, returning the canonical row vector.
    pub(crate) fn into_rows(self) -> Vec<R> {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        self.rows
    }

    /// Remove and return the first `n` rows (sealing cut); the remaining
    /// rows keep canonical order.
    pub(crate) fn take_prefix(&mut self, n: usize) -> Vec<R> {
        debug_assert!(self.finalized == self.rows.len(), "query before finalize()");
        let rest = self.rows.split_off(n);
        let sealed = std::mem::replace(&mut self.rows, rest);
        self.times.drain(..n);
        self.groups.clear();
        self.finalized = self.rows.len();
        sealed
    }
}

impl<R: StoredRow> FlatTable<R> {
    /// Estimated resident bytes: rows (plus string payloads), timestamp
    /// column, and the offset index once a lookup has built it.
    pub fn approx_bytes(&self) -> usize {
        let rows = self.rows.len() * std::mem::size_of::<R>()
            + self.rows.iter().map(StoredRow::heap_bytes).sum::<usize>();
        let times = self.times.len() * std::mem::size_of::<Timestamp>();
        rows + times + self.groups.approx_bytes()
    }
}

/// Append the two canonically sorted runs `a` and `b` to `out` in
/// canonical order, `a`'s row first on a key tie.
pub(crate) fn merge_sorted<R: Row>(out: &mut Vec<R>, a: Vec<R>, b: Vec<R>) {
    out.reserve(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let next = if x.key() <= y.key() {
            a.next()
        } else {
            b.next()
        };
        out.extend(next);
    }
    out.extend(a);
    out.extend(b);
}

// ---------------------------------------------------------------------------
// Query results
// ---------------------------------------------------------------------------

/// One pinned slice of a decoded segment inside a [`RowSet`]. The `Arc`
/// keeps the decoded form alive even if the LRU cache evicts it.
pub(crate) struct SegChunk<R: Row> {
    pub(crate) seg: Arc<DecodedSeg<R>>,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// The result of a time query: zero or more pinned segment chunks (in
/// time order) followed by a borrowed slice of the flat tail. With
/// nothing sealed there are no chunks, so a `RowSet` is a zero-cost
/// wrapper over the tail slice.
pub struct RowSet<'a, R: Row> {
    chunks: Vec<SegChunk<R>>,
    tail: &'a [R],
}

impl<'a, R: Row> RowSet<'a, R> {
    pub(crate) fn from_slice(tail: &'a [R]) -> Self {
        RowSet {
            chunks: Vec::new(),
            tail,
        }
    }

    pub(crate) fn from_parts(chunks: Vec<SegChunk<R>>, tail: &'a [R]) -> Self {
        RowSet { chunks, tail }
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.end - c.start).sum::<usize>() + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tail.is_empty() && self.chunks.iter().all(|c| c.start == c.end)
    }

    /// Rows in time order.
    pub fn iter(&self) -> impl Iterator<Item = &R> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.seg.rows[c.start..c.end].iter())
            .chain(self.tail.iter())
    }

    pub fn get(&self, mut i: usize) -> Option<&R> {
        for c in &self.chunks {
            let n = c.end - c.start;
            if i < n {
                return Some(&c.seg.rows[c.start + i]);
            }
            i -= n;
        }
        self.tail.get(i)
    }

    pub fn first(&self) -> Option<&R> {
        self.get(0)
    }

    pub fn last(&self) -> Option<&R> {
        self.tail.last().or_else(|| {
            self.chunks
                .iter()
                .rev()
                .find(|c| c.end > c.start)
                .map(|c| &c.seg.rows[c.end - 1])
        })
    }

    pub fn to_vec(&self) -> Vec<R>
    where
        R: Clone,
    {
        self.iter().cloned().collect()
    }
}

impl<'a, R: Row> std::ops::Index<usize> for RowSet<'a, R> {
    type Output = R;
    fn index(&self, i: usize) -> &R {
        self.get(i).expect("RowSet index out of bounds")
    }
}

impl<'a, 'b, R: Row> IntoIterator for &'b RowSet<'a, R> {
    type Item = &'b R;
    type IntoIter = Box<dyn Iterator<Item = &'b R> + 'b>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One entity's rows in time order: offsets into pinned decoded segments
/// followed by offsets into the flat tail.
pub struct EntityRows<'a, R: Row> {
    segs: Vec<Arc<DecodedSeg<R>>>,
    entity: R::Entity,
    rows: &'a [R],
    offsets: &'a [u32],
}

impl<'a, R: Row> Clone for EntityRows<'a, R> {
    fn clone(&self) -> Self {
        EntityRows {
            segs: self.segs.clone(),
            entity: self.entity,
            rows: self.rows,
            offsets: self.offsets,
        }
    }
}

impl<'a, R: Row> EntityRows<'a, R> {
    pub(crate) fn new(
        segs: Vec<Arc<DecodedSeg<R>>>,
        entity: R::Entity,
        rows: &'a [R],
        offsets: &'a [u32],
    ) -> Self {
        EntityRows {
            segs,
            entity,
            rows,
            offsets,
        }
    }

    pub fn len(&self) -> usize {
        let sealed: usize = self
            .segs
            .iter()
            .map(|s| s.offsets_of(&self.entity).len())
            .sum();
        sealed + self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = &R> + '_ {
        let e = self.entity;
        let rows = self.rows;
        self.segs
            .iter()
            .flat_map(move |s| s.offsets_of(&e).iter().map(move |&i| &s.rows[i as usize]))
            .chain(self.offsets.iter().map(move |&i| &rows[i as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegReader, SegWriter};
    use crate::storage::{SealedRun, StorageConfig, Table};

    #[derive(Debug, Clone, PartialEq)]
    struct TR(Timestamp, u32);
    impl Row for TR {
        type Entity = u32;
        fn time(&self) -> Timestamp {
            self.0
        }
        fn entity(&self) -> u32 {
            self.1 % 2
        }
        fn tiebreak(&self) -> u64 {
            self.1 as u64
        }
    }
    impl StoredRow for TR {
        fn encode_cols(rows: &[Self], w: &mut SegWriter) {
            for r in rows {
                w.varu(r.1 as u64);
            }
        }
        fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
            times.iter().map(|&t| TR(t, r.varu() as u32)).collect()
        }
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_unix(s)
    }

    /// The reference a table must answer like: every row pushed so far,
    /// sorted by `(time, tiebreak)`, with `keep` as the query.
    fn model(pushed: &[TR], keep: impl Fn(&TR) -> bool) -> Vec<TR> {
        let mut rows: Vec<TR> = pushed.iter().filter(|r| keep(r)).cloned().collect();
        rows.sort_by_key(Row::key);
        rows
    }

    #[test]
    fn range_is_closed_interval() {
        let mut t = Table::default();
        for s in [5, 1, 3, 9, 7] {
            t.push(TR(ts(s), s as u32));
        }
        t.finalize();
        let got: Vec<u32> = t
            .range(TimeWindow::new(ts(3), ts(7)))
            .iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(got, vec![3, 5, 7]);
        assert!(t.range(TimeWindow::new(ts(10), ts(20))).is_empty());
        assert_eq!(t.range(TimeWindow::new(ts(1), ts(9))).len(), 5);
    }

    /// Same-instant rows land in canonical `(time, tiebreak)` order
    /// regardless of arrival order.
    #[test]
    fn same_instant_rows_sort_canonically_with_tiebreak() {
        let mut a = Table::default();
        let mut b = Table::default();
        let rows = [TR(ts(5), 2), TR(ts(1), 9), TR(ts(5), 1), TR(ts(5), 7)];
        for r in rows.iter() {
            a.push(r.clone());
        }
        for r in rows.iter().rev() {
            b.push(r.clone());
        }
        a.finalize();
        b.finalize();
        assert_eq!(a, b, "delivery order must not leak into table order");
        let got: Vec<u32> = a.all().iter().map(|r| r.1).collect();
        assert_eq!(got, vec![9, 1, 2, 7]);
    }

    /// The timestamp column the time queries cut on stays aligned with the
    /// rows through a merge-finalize: `all()`'s times are the model's, and
    /// a cut at every instant returns the model's rows.
    #[test]
    fn timestamp_column_tracks_rows_through_resort() {
        let mut t = Table::default();
        let mut pushed = Vec::new();
        // The second batch arrives out of order and merges into the column.
        for batch in [vec![5, 1, 3], vec![2]] {
            for s in batch {
                t.push(TR(ts(s), s as u32));
                pushed.push(TR(ts(s), s as u32));
            }
            t.finalize();
            let times: Vec<Timestamp> = t.all().iter().map(|r| r.0).collect();
            let expect: Vec<Timestamp> = model(&pushed, |_| true).iter().map(|r| r.0).collect();
            assert_eq!(times, expect);
            assert_eq!(t.last_time(), expect.last().copied());
            for s in 0..7 {
                assert_eq!(t.since(ts(s)).to_vec(), model(&pushed, |r| r.0 >= ts(s)));
            }
        }
        let times: Vec<Timestamp> = t.all().iter().map(|r| r.0).collect();
        assert_eq!(times, [ts(1), ts(2), ts(3), ts(5)]);
    }

    #[test]
    fn since_cuts_at_the_watermark() {
        let mut t = Table::default();
        for s in [1, 3, 3, 5] {
            t.push(TR(ts(s), s as u32));
        }
        t.finalize();
        assert_eq!(t.since(ts(3)).len(), 3);
        assert_eq!(t.since(ts(0)).len(), 4);
    }

    #[test]
    fn entity_groups_are_time_ordered_and_deterministic() {
        let mut t = Table::default();
        // Entity = value % 2: evens and odds interleaved, out of order.
        for s in [5, 2, 9, 4, 1] {
            t.push(TR(ts(s), s as u32));
        }
        t.finalize();
        let groups: Vec<(u32, Vec<u32>)> = t
            .groups()
            .map(|(e, rows)| (e, rows.iter().map(|r| r.1).collect()))
            .collect();
        assert_eq!(groups, vec![(0, vec![2, 4]), (1, vec![1, 5, 9])]);
        assert_eq!(t.entity_count(), 2);
        let odds: Vec<u32> = t.rows_of(&1).iter().map(|r| r.1).collect();
        assert_eq!(odds, vec![1, 5, 9]);
        assert!(t.rows_of(&7).is_empty());
        // Incremental batches keep groups fresh after re-finalize.
        t.push(TR(ts(3), 3));
        t.finalize();
        let odds: Vec<u32> = t.rows_of(&1).iter().map(|r| r.1).collect();
        assert_eq!(odds, vec![1, 3, 5, 9]);
    }

    /// Ingest does not index: a finalized table nobody has looked an entity
    /// up in holds no per-entity index. The first lookup builds it (and
    /// `approx_bytes` starts counting it); the next finalize drops it.
    #[test]
    fn entity_index_is_built_by_the_first_lookup_not_by_finalize() {
        let mut t = Table::default();
        for s in [5, 2, 9, 4, 1] {
            t.push(TR(ts(s), s as u32));
        }
        t.finalize();
        let bare = t.approx_bytes();
        assert_eq!(t.rows_of(&1).len(), 3);
        // Five offsets under two entities.
        let index = 5 * 4 + 2 * std::mem::size_of::<(u32, Vec<u32>)>();
        assert_eq!(t.approx_bytes(), bare + index);
        t.push(TR(ts(7), 7));
        t.finalize();
        let row = std::mem::size_of::<TR>() + std::mem::size_of::<Timestamp>();
        assert_eq!(t.approx_bytes(), bare + row, "finalize kept a stale index");
        assert_eq!(t.rows_of(&1).len(), 4);
    }

    /// Merge-finalize must equal a full stable sort for every batch
    /// arrival pattern: in-order append, overlapping batch, fully-before
    /// batch, and same-instant ties across the batch boundary.
    #[test]
    fn merge_finalize_equals_full_sort_across_batches() {
        let batches: Vec<Vec<i64>> = vec![
            vec![10, 12, 14],
            vec![13, 15],     // overlaps the prefix tail
            vec![1, 2],       // entirely before the prefix
            vec![16, 17],     // pure append
            vec![14, 10, 15], // duplicates of earlier instants
        ];
        let mut t = Table::default();
        let mut pushed: Vec<TR> = Vec::new();
        for (bi, batch) in batches.iter().enumerate() {
            for (k, &s) in batch.iter().enumerate() {
                let row = TR(ts(s), (bi * 100 + k) as u32);
                t.push(row.clone());
                pushed.push(row);
            }
            t.finalize();
            assert_eq!(t.all().to_vec(), model(&pushed, |_| true), "batch {}", bi);
            // Indexes stay aligned after every merge.
            for s in [0, 10, 13, 14, 17] {
                assert_eq!(t.since(ts(s)).to_vec(), model(&pushed, |r| r.0 >= ts(s)));
            }
            let evens: Vec<TR> = t.rows_of(&0).iter().cloned().collect();
            assert_eq!(evens, model(&pushed, |r| r.1 % 2 == 0));
        }
    }

    /// The run walk is `all()` in pieces, and a run id names one immutable
    /// run of rows wherever it is met: in another table, in a clone that
    /// went its own way, after retention shifted the indexes, after a
    /// reseal rewrote the overlap.
    #[test]
    fn run_walk_matches_all_and_ids_never_alias() {
        fn check(t: &Table<TR>, seen: &mut std::collections::HashMap<u64, Vec<TR>>) {
            let (sealed, tail) = t.runs();
            let mut walked: Vec<TR> = Vec::new();
            for run in &sealed {
                let rows = run.rows().to_vec();
                let first_met = seen.entry(run.id()).or_insert_with(|| rows.clone());
                assert_eq!(*first_met, rows, "run id {} names two row sets", run.id());
                walked.extend(rows);
            }
            walked.extend(tail.to_vec());
            assert_eq!(walked, t.all().to_vec());
        }
        let cfg = StorageConfig {
            segment_rows: 4,
            cache_segments: 2,
            spill_dir: None,
            durable: false,
        };
        let fill = |t: &mut Table<TR>, times: std::ops::Range<i64>, tag: u32| {
            for s in times {
                t.push(TR(ts(s), tag + s as u32));
            }
            t.finalize();
        };
        let mut seen = std::collections::HashMap::new();
        let mut a = Table::new(cfg.clone());
        let mut other = Table::new(cfg);
        fill(&mut a, 0..20, 0);
        fill(&mut other, 0..20, 1000);
        check(&a, &mut seen);
        check(&other, &mut seen);
        assert!(a.runs().0.len() >= 3, "sealing must have happened");
        // A clone shares the runs it was born with, then seals its own.
        let mut b = a.clone();
        fill(&mut a, 20..40, 0);
        fill(&mut b, 20..40, 5000);
        check(&a, &mut seen);
        check(&b, &mut seen);
        // Retention drops a prefix: the survivors keep their ids.
        let before: Vec<u64> = a.runs().0.iter().map(SealedRun::id).collect();
        assert!(a.retain_before(ts(9)) > 0);
        let after: Vec<u64> = a.runs().0.iter().map(SealedRun::id).collect();
        assert!(after.len() < before.len() && before.ends_with(&after));
        check(&a, &mut seen);
        // A late row reseals the overlap under ids never used before.
        a.push(TR(ts(25), 77));
        a.finalize();
        assert!(a.stats().reseals > 0);
        check(&a, &mut seen);
        // A table that never seals is zero runs plus its rows.
        let mut unsealed = Table::default();
        fill(&mut unsealed, 0..5, 0);
        let (sealed, tail) = unsealed.runs();
        assert!(sealed.is_empty());
        assert_eq!(tail.len(), 5);
    }

    /// A sealing table answers every query as the model does, across
    /// sealing, late batches that force reseals, groups and retention.
    #[test]
    fn segmented_matches_flat_on_every_query() {
        let cfg = StorageConfig {
            segment_rows: 4,
            cache_segments: 2,
            spill_dir: None,
            durable: false,
        };
        let mut seg = Table::new(cfg);
        let mut pushed = Vec::new();
        let batches: Vec<Vec<i64>> = vec![
            vec![5, 1, 3, 9, 7, 2, 8, 4],
            vec![20, 11, 15, 13, 18, 12, 19, 14],
            vec![10, 6, 25, 22, 21, 24, 23, 26], // late rows force reseal
            vec![30, 31, 32, 33],
        ];
        for (bi, batch) in batches.iter().enumerate() {
            for (k, &s) in batch.iter().enumerate() {
                let row = TR(ts(s), (bi * 100 + k) as u32);
                pushed.push(row.clone());
                seg.push(row);
            }
            seg.finalize();
            let all = model(&pushed, |_| true);
            assert_eq!(seg.len(), all.len());
            assert_eq!(seg.last_time(), all.last().map(|r| r.0));
            assert_eq!(seg.all().to_vec(), all, "all rows after batch {}", bi);
            let w = TimeWindow::new(ts(3), ts(22));
            let in_w = |r: &TR| r.0 >= w.start && r.0 <= w.end;
            assert_eq!(seg.range(w).to_vec(), model(&pushed, in_w));
            assert_eq!(
                seg.since(ts(12)).to_vec(),
                model(&pushed, |r| r.0 >= ts(12))
            );
            assert_eq!(seg.entity_count(), 2);
            for e in [0u32, 1, 7] {
                let got: Vec<TR> = seg.rows_of(&e).iter().cloned().collect();
                let want = model(&pushed, |r| r.entity() == e);
                assert_eq!(got, want, "entity {} after batch {}", e, bi);
            }
        }
        let stats = seg.stats();
        assert!(stats.sealed_segments > 0, "sealing must have happened");
        assert!(stats.reseals > 0, "late batch must have forced a reseal");
        // Retention drops whole sealed segments, so what survives is the
        // model from the oldest kept row up.
        let before = seg.len();
        let dropped = seg.retain_before(ts(20));
        assert!(dropped > 0);
        assert_eq!(seg.len(), before - dropped);
        let min_kept = seg.all().first().unwrap().0;
        assert!(min_kept <= ts(20));
        assert_eq!(seg.all().to_vec(), model(&pushed, |r| r.0 >= min_kept));
    }
}
