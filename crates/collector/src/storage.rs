//! The memory-bounded segmented columnar table backend.
//!
//! [`crate::tables::Table`] is the enum facade the rest of the platform
//! talks to: each of its methods matches on the backend and calls either
//! [`crate::tables::FlatTable`] (the original implementation, kept
//! verbatim as the differential baseline) or [`SegmentedTable`] directly.
//! The backend choice is a construction-time decision
//! ([`crate::Database::with_storage`]), and the differential tests pin the
//! two backends query-identical: push, finalize, the binary-searched time
//! queries, the per-entity index, and retention.
//!
//! # Segment lifecycle
//!
//! Rows land in an **unsealed tail** (a `FlatTable`) on the ingest path.
//! `finalize` sorts the tail, then **seals** full chunks of
//! [`StorageConfig::segment_rows`] rows into immutable, time-ordered
//! segments — encoded blobs ([`crate::segment`]) plus always-resident
//! zone maps ([`SegmentMeta`]: min/max time key + sorted entity set). A
//! hysteresis of one full segment stays unsealed so arrival jitter lands
//! in the cheap flat merge instead of touching sealed data. A genuinely
//! late row (older than the sealed maximum) forces a **reseal**: the
//! overlapping sealed suffix is decoded, merged with the tail, and
//! resealed — rare by construction, counted in
//! [`StorageStats::reseals`].
//!
//! Queries prune on zone maps first (time ranges, entity membership),
//! then decode only surviving segments through an **LRU cache** of
//! [`StorageConfig::cache_segments`] hot decoded segments; query results
//! pin their segments via `Arc`, so eviction can never invalidate a live
//! [`RowSet`]. With [`StorageConfig::spill_dir`] set, sealed blobs live
//! on disk and only the zone maps stay resident.
//!
//! A reader that re-scans history every cycle does not have to decode it
//! every cycle: [`SegmentedTable::runs`] walks the table as its sealed
//! runs, each a [`SealedRun`] whose id names those immutable rows for the
//! life of the process, followed by the tail. What a run contributes can
//! be computed once and kept under its id; retention and reseals retire
//! ids and never reuse one. Incremental extraction reads history this
//! way, so the LRU is left to per-entity lookups and drill-down.
//!
//! **Retention** ([`SegmentedTable::retain_before`]) drops whole sealed
//! segments whose max time is below the floor — O(dropped), no row
//! copying — which is exactly what `OnlineRca`'s skip-floor pruning
//! wants: sealed history ages out; the live tail is never touched.

use crate::segment::{decode_segment, encode_segment, DecodedSeg, SegmentMeta, StoredRow};
use crate::tables::{EntityRows, FlatTable, RowSet, SegChunk};
use grca_types::{TimeWindow, Timestamp};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction-time knobs of the segmented backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Target rows per sealed segment. Sealing keeps one full segment of
    /// hysteresis unsealed, so the tail holds at most `2 * segment_rows`
    /// rows (modulo canonical-key ties, which never split).
    pub segment_rows: usize,
    /// Decoded segments kept hot (LRU). Memory ceiling per table is
    /// roughly `cache_segments * segment_rows * row size` plus the tail.
    pub cache_segments: usize,
    /// When set, sealed blobs spill to disk under this directory and only
    /// zone maps stay resident. Files are removed when the table drops
    /// unless [`StorageConfig::durable`] is set.
    pub spill_dir: Option<PathBuf>,
    /// Crash-consistent mode: spill writes are additionally `fsync`ed and
    /// spill files *survive* table drop, so a manifest written at a
    /// checkpoint barrier ([`crate::durable`]) can reference them after
    /// restart. Requires [`StorageConfig::spill_dir`].
    pub durable: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            segment_rows: 4096,
            cache_segments: 8,
            spill_dir: None,
            durable: false,
        }
    }
}

/// Counters a long-horizon benchmark reads: zone-map effectiveness,
/// decode traffic, lifecycle events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StorageStats {
    pub sealed_segments: usize,
    pub sealed_rows: usize,
    pub tail_rows: usize,
    /// Resident encoded bytes (0 for spilled blobs).
    pub encoded_bytes: usize,
    /// Bytes living in spill files on disk.
    pub spilled_bytes: usize,
    /// Segments consulted by queries after zone-map pruning.
    pub segments_scanned: u64,
    /// Segments skipped because their time range cannot intersect.
    pub pruned_by_time: u64,
    /// Segments skipped because the entity zone map excludes the key.
    pub pruned_by_entity: u64,
    /// Blob decodes (cache misses).
    pub decodes: u64,
    pub cache_hits: u64,
    /// Sealed segments re-opened because a late row predated them.
    pub reseals: u64,
    /// Rows dropped by retention (whole segments only).
    pub dropped_rows: u64,
    pub dropped_segments: u64,
    /// Spilled blobs that failed checksum/structural verification on
    /// read — quarantined (treated as rowless) instead of panicking.
    pub torn_blobs: u64,
}

impl StorageStats {
    /// Fold another table's counters in (all fields additive).
    pub fn merge(&mut self, o: &StorageStats) {
        self.sealed_segments += o.sealed_segments;
        self.sealed_rows += o.sealed_rows;
        self.tail_rows += o.tail_rows;
        self.encoded_bytes += o.encoded_bytes;
        self.spilled_bytes += o.spilled_bytes;
        self.segments_scanned += o.segments_scanned;
        self.pruned_by_time += o.pruned_by_time;
        self.pruned_by_entity += o.pruned_by_entity;
        self.decodes += o.decodes;
        self.cache_hits += o.cache_hits;
        self.reseals += o.reseals;
        self.dropped_rows += o.dropped_rows;
        self.dropped_segments += o.dropped_segments;
        self.torn_blobs += o.torn_blobs;
    }
}

/// A spill file owned by its segment. In the default (ephemeral) mode it
/// is removed from disk on drop; in durable mode it must outlive the
/// process so a restart can decode it back.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    keep: bool,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Where one sealed segment's encoded bytes live. Disk blobs are stored
/// framed ([`crate::durable::frame`]): checksum-verified on every read.
#[derive(Debug, Clone)]
enum Blob {
    Mem(Arc<Vec<u8>>),
    Disk { file: Arc<SpillFile>, bytes: usize },
}

impl Blob {
    /// The verified segment payload, or a [`BlobError`] for a torn or
    /// missing spill file (never a panic — satellite of the durability
    /// contract: corrupted history is quarantined, not fatal).
    fn read(&self) -> Result<std::borrow::Cow<'_, [u8]>, crate::durable::BlobError> {
        match self {
            Blob::Mem(b) => Ok(std::borrow::Cow::Borrowed(b)),
            Blob::Disk { file, .. } => {
                crate::durable::read_framed(&file.path).map(std::borrow::Cow::Owned)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct SealedSegment<R: StoredRow> {
    /// Names this immutable run of rows for the life of the process (see
    /// [`RUN_SEQ`]): the decode cache's key, and the key under which a
    /// reader may keep anything it derived from the run ([`SealedRun`]).
    id: u64,
    meta: SegmentMeta<R::Entity>,
    blob: Blob,
}

#[derive(Default)]
struct Counters {
    scanned: AtomicU64,
    pruned_time: AtomicU64,
    pruned_entity: AtomicU64,
    decodes: AtomicU64,
    cache_hits: AtomicU64,
    torn_blobs: AtomicU64,
}

struct Cache<R: StoredRow> {
    /// segment id → (last-use tick, decoded form).
    map: HashMap<u64, (u64, Arc<DecodedSeg<R>>)>,
    tick: u64,
}

/// Names spill files uniquely across every table in the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mints sealed-run ids, process-wide like [`SPILL_SEQ`] and for the same
/// reason: an id must name one immutable run of rows wherever it is met. A
/// per-table counter would hand the same number to different rows in two
/// tables, in a table and its diverged clone, or in a database restored
/// from a manifest — and whoever memoized by id would read the wrong run.
/// A clone shares its original's runs and their ids, which is sound (same
/// rows); whatever either seals afterwards gets a fresh one, as does
/// every run a reseal rewrites.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// The segmented columnar backend. See the module docs for the design.
pub struct SegmentedTable<R: StoredRow> {
    cfg: StorageConfig,
    /// Sealed segments in time order; pairwise `max_key <= next.min_key`.
    segs: Vec<SealedSegment<R>>,
    /// Unsealed rows, newest history — a flat table so the ingest path
    /// and the merge-finalize are shared with the baseline backend.
    tail: FlatTable<R>,
    reseals: u64,
    dropped_rows: u64,
    dropped_segments: u64,
    counters: Counters,
    cache: Mutex<Cache<R>>,
}

impl<R: StoredRow> SegmentedTable<R> {
    pub fn new(cfg: StorageConfig) -> Self {
        SegmentedTable {
            cfg,
            segs: Vec::new(),
            tail: FlatTable::default(),
            reseals: 0,
            dropped_rows: 0,
            dropped_segments: 0,
            counters: Counters::default(),
            cache: Mutex::new(Cache {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// Counter snapshot plus structural sizes.
    pub fn stats(&self) -> StorageStats {
        let (mut enc, mut spill) = (0usize, 0usize);
        for s in &self.segs {
            match &s.blob {
                Blob::Mem(b) => enc += b.len(),
                Blob::Disk { bytes, .. } => spill += bytes,
            }
        }
        StorageStats {
            sealed_segments: self.segs.len(),
            sealed_rows: self.segs.iter().map(|s| s.meta.rows).sum(),
            tail_rows: self.tail.len(),
            encoded_bytes: enc,
            spilled_bytes: spill,
            segments_scanned: self.counters.scanned.load(Ordering::Relaxed),
            pruned_by_time: self.counters.pruned_time.load(Ordering::Relaxed),
            pruned_by_entity: self.counters.pruned_entity.load(Ordering::Relaxed),
            decodes: self.counters.decodes.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            reseals: self.reseals,
            dropped_rows: self.dropped_rows,
            dropped_segments: self.dropped_segments,
            torn_blobs: self.counters.torn_blobs.load(Ordering::Relaxed),
        }
    }

    /// Every sealed segment's on-disk file (name relative to the spill
    /// dir) and row count, in time order — the table's contribution to a
    /// checkpoint manifest. `None` if any sealed blob is memory-resident
    /// (the table is not running in spill mode).
    pub fn segment_files(&self) -> Option<Vec<crate::durable::SegmentRecord>> {
        self.segs
            .iter()
            .map(|s| match &s.blob {
                Blob::Mem(_) => None,
                Blob::Disk { file, .. } => Some(crate::durable::SegmentRecord {
                    file: file.path.file_name()?.to_str()?.to_string(),
                    rows: s.meta.rows as u64,
                }),
            })
            .collect()
    }

    /// Force-seal the entire tail (no hysteresis): after this every row
    /// the table holds lives in a sealed segment — the precondition for
    /// a checkpoint barrier. Later arrivals older than the sealed
    /// maximum fall into the existing reseal path.
    pub fn seal_all(&mut self) {
        self.finalize();
        if !self.tail.is_empty() {
            let n = self.tail.len();
            let rows = self.tail.take_prefix(n);
            self.seal(&rows);
        }
        debug_assert!(self.tail.is_empty());
    }

    /// Decode segment `ix` through the LRU cache; the returned `Arc` pins
    /// the decoded form for as long as the caller's `RowSet` lives.
    fn decoded(&self, ix: usize) -> Arc<DecodedSeg<R>> {
        let seg = &self.segs[ix];
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.map.get_mut(&seg.id) {
            entry.0 = tick;
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return entry.1.clone();
        }
        let decoded = Arc::new(match seg.blob.read() {
            Ok(bytes) => match crate::segment::try_decode_segment::<R>(&bytes) {
                Ok(d) => d,
                Err(_) => {
                    // Structurally bad despite an intact checksum (e.g.
                    // version skew): quarantine as rowless, keep serving.
                    self.counters.torn_blobs.fetch_add(1, Ordering::Relaxed);
                    DecodedSeg::empty()
                }
            },
            Err(_) => {
                // Torn/missing spill file: quarantine, don't panic. The
                // caching of the empty form keeps the cost one read.
                self.counters.torn_blobs.fetch_add(1, Ordering::Relaxed);
                DecodedSeg::empty()
            }
        });
        self.counters.decodes.fetch_add(1, Ordering::Relaxed);
        cache.map.insert(seg.id, (tick, decoded.clone()));
        let cap = self.cfg.cache_segments.max(1);
        while cache.map.len() > cap {
            let coldest = cache
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&id, _)| id)
                .expect("non-empty cache");
            cache.map.remove(&coldest);
        }
        decoded
    }

    /// Seal `rows` (already canonical, non-empty) into a new segment.
    /// Spill writes are crash-safe: checksummed frame, unique temp file,
    /// atomic rename (+ `fsync` in durable mode) — a crash can leave a
    /// stray temp file, never a half-written blob under the final name.
    fn seal(&mut self, rows: &[R]) {
        let (meta, blob) = encode_segment(rows);
        let blob = match &self.cfg.spill_dir {
            None => Blob::Mem(Arc::new(blob)),
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create spill dir");
                let path = dir.join(format!(
                    "grca-seg-{}-{}.bin",
                    std::process::id(),
                    SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let bytes = blob.len();
                crate::durable::write_atomic(
                    &path,
                    &crate::durable::frame(&blob),
                    self.cfg.durable,
                )
                .expect("write spilled segment blob");
                Blob::Disk {
                    file: Arc::new(SpillFile {
                        path,
                        keep: self.cfg.durable,
                    }),
                    bytes,
                }
            }
        };
        let id = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        self.segs.push(SealedSegment { id, meta, blob });
    }

    /// Late rows predate the sealed maximum: decode the overlapping
    /// sealed suffix and merge it back into the tail (sealed rows first
    /// on canonical-key ties — they arrived earlier).
    fn reseal_overlap(&mut self) {
        let tail_min = match self.tail.min_key() {
            Some(k) => k,
            None => return,
        };
        let mut popped: Vec<SealedSegment<R>> = Vec::new();
        while let Some(last) = self.segs.last() {
            if last.meta.max_key > tail_min {
                popped.push(self.segs.pop().expect("checked non-empty"));
            } else {
                break;
            }
        }
        if popped.is_empty() {
            return;
        }
        popped.reverse();
        self.reseals += popped.len() as u64;
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        let mut sealed_rows: Vec<R> = Vec::with_capacity(popped.iter().map(|s| s.meta.rows).sum());
        for seg in &popped {
            cache.map.remove(&seg.id);
            match seg.blob.read() {
                Ok(bytes) => sealed_rows.extend(decode_segment::<R>(&bytes).rows),
                Err(_) => {
                    // Torn blob folded into a reseal: its rows are gone
                    // either way — count and continue with what survives.
                    self.counters.torn_blobs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(cache);
        let key = |r: &R| (r.time(), r.tiebreak());
        let tail_rows = std::mem::take(&mut self.tail).into_rows();
        let ka: Vec<_> = sealed_rows.iter().map(key).collect();
        let kb: Vec<_> = tail_rows.iter().map(key).collect();
        let mut out = Vec::with_capacity(ka.len() + kb.len());
        let (mut ia, mut ib) = (sealed_rows.into_iter(), tail_rows.into_iter());
        let (mut i, mut j) = (0, 0);
        while i < ka.len() && j < kb.len() {
            if ka[i] <= kb[j] {
                out.push(ia.next().expect("ka tracks ia"));
                i += 1;
            } else {
                out.push(ib.next().expect("kb tracks ib"));
                j += 1;
            }
        }
        out.extend(ia);
        out.extend(ib);
        self.tail = FlatTable::from_sorted_rows(out);
    }

    /// Chunks for every segment whose zone map admits `[lo, hi]`; sliced
    /// on the decoded timestamp column at the boundaries.
    fn time_chunks(
        &self,
        keep: impl Fn(&SegmentMeta<R::Entity>) -> bool,
        cut: impl Fn(&DecodedSeg<R>) -> (usize, usize),
    ) -> Vec<SegChunk<R>> {
        let mut chunks = Vec::new();
        for ix in 0..self.segs.len() {
            if !keep(&self.segs[ix].meta) {
                self.counters.pruned_time.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.counters.scanned.fetch_add(1, Ordering::Relaxed);
            let seg = self.decoded(ix);
            let (start, end) = cut(&seg);
            if start < end {
                chunks.push(SegChunk { seg, start, end });
            }
        }
        chunks
    }
}

/// One sealed run of a [`SegmentedTable`], met on a
/// [`SegmentedTable::runs`] walk. Its rows are immutable and its
/// [`id`](SealedRun::id) names them for the life of the process, so what a
/// reader derives from the rows once it may keep under that id; retention
/// and reseals retire ids, they never reuse one.
pub struct SealedRun<'a, R: StoredRow> {
    table: &'a SegmentedTable<R>,
    ix: usize,
}

impl<'a, R: StoredRow> SealedRun<'a, R> {
    pub fn id(&self) -> u64 {
        self.table.segs[self.ix].id
    }

    /// The run's rows, decoded through the table's LRU like any scan (a
    /// torn blob reads as rowless, as it does for every other query).
    pub fn rows(&self) -> RowSet<'a, R> {
        self.table.counters.scanned.fetch_add(1, Ordering::Relaxed);
        let seg = self.table.decoded(self.ix);
        let end = seg.rows.len();
        RowSet::from_parts(vec![SegChunk { seg, start: 0, end }], &[])
    }
}

/// The table operations [`crate::tables::Table`] dispatches to.
#[allow(clippy::len_without_is_empty)]
impl<R: StoredRow> SegmentedTable<R> {
    pub fn push(&mut self, row: R) {
        self.tail.push(row);
    }

    /// Sort the tail, merge late rows back through a reseal, and seal
    /// full chunks (see the module docs).
    pub fn finalize(&mut self) {
        self.tail.finalize();
        if !self.tail.is_empty() {
            if let Some(last) = self.segs.last() {
                if self.tail.min_key().expect("non-empty tail") < last.meta.max_key {
                    self.reseal_overlap();
                }
            }
        }
        // Seal full chunks, keeping one segment of hysteresis unsealed so
        // jittered arrivals merge in the flat tail, not against seals.
        let n = self.tail.len();
        let target = self.cfg.segment_rows.max(1);
        let mut cuts: Vec<usize> = Vec::new();
        let mut start = 0usize;
        while n - start >= 2 * target {
            let mut cut = start + target;
            // Never split canonical-key ties across a seal boundary.
            while cut < n && self.tail.key_at(cut) == self.tail.key_at(cut - 1) {
                cut += 1;
            }
            if cut >= n {
                break;
            }
            cuts.push(cut);
            start = cut;
        }
        if start > 0 {
            let sealed = self.tail.take_prefix(start);
            let mut lo = 0usize;
            for cut in cuts {
                self.seal(&sealed[lo..cut]);
                lo = cut;
            }
        }
        debug_assert!(self
            .segs
            .windows(2)
            .all(|p| p[0].meta.max_key <= p[1].meta.min_key));
    }

    pub fn len(&self) -> usize {
        self.segs.iter().map(|s| s.meta.rows).sum::<usize>() + self.tail.len()
    }

    pub fn all(&self) -> RowSet<'_, R> {
        let chunks = self.time_chunks(|_| true, |d| (0, d.rows.len()));
        RowSet::from_parts(chunks, self.tail.all_slice())
    }

    /// The table as its sealed runs, in time order, and the unsealed tail
    /// that follows them: the same rows in the same order as
    /// [`SegmentedTable::all`], but nothing decodes until a run is asked
    /// for its rows.
    pub fn runs(&self) -> (Vec<SealedRun<'_, R>>, RowSet<'_, R>) {
        let sealed = (0..self.segs.len())
            .map(|ix| SealedRun { table: self, ix })
            .collect();
        (sealed, RowSet::from_slice(self.tail.all_slice()))
    }

    /// Rows with `start <= time <= end` (closed window).
    pub fn range(&self, w: TimeWindow) -> RowSet<'_, R> {
        let chunks = self.time_chunks(
            |m| m.max_time() >= w.start && m.min_time() <= w.end,
            |d| {
                let lo = d.times.partition_point(|&t| t < w.start);
                let hi = d.times.partition_point(|&t| t <= w.end);
                (lo, hi)
            },
        );
        RowSet::from_parts(chunks, self.tail.range_slice(w))
    }

    /// Rows with `time >= t`.
    pub fn since(&self, t: Timestamp) -> RowSet<'_, R> {
        let chunks = self.time_chunks(
            |m| m.max_time() >= t,
            |d| (d.times.partition_point(|&u| u < t), d.rows.len()),
        );
        RowSet::from_parts(chunks, self.tail.since_slice(t))
    }

    /// Rows with `time > t` — the watermark cut.
    pub fn after(&self, t: Timestamp) -> RowSet<'_, R> {
        let chunks = self.time_chunks(
            |m| m.max_time() > t,
            |d| (d.times.partition_point(|&u| u <= t), d.rows.len()),
        );
        RowSet::from_parts(chunks, self.tail.after_slice(t))
    }

    pub fn last_time(&self) -> Option<Timestamp> {
        self.tail
            .last_time()
            .or_else(|| self.segs.last().map(|s| s.meta.max_time()))
    }

    pub fn rows_of(&self, entity: &R::Entity) -> EntityRows<'_, R> {
        let mut hot = Vec::new();
        for ix in 0..self.segs.len() {
            if self.segs[ix].meta.entities.binary_search(entity).is_err() {
                self.counters.pruned_entity.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.counters.scanned.fetch_add(1, Ordering::Relaxed);
            hot.push(self.decoded(ix));
        }
        let (rows, offsets) = self.tail.rows_of_parts(entity);
        EntityRows::segmented(hot, *entity, rows, offsets)
    }

    /// Distinct entities, ascending (drives deterministic group order).
    pub fn group_entities(&self) -> Vec<R::Entity> {
        let mut out: Vec<R::Entity> = Vec::new();
        for s in &self.segs {
            out.extend_from_slice(&s.meta.entities);
        }
        out.extend(self.tail.group_entities());
        out.sort_unstable();
        out.dedup();
        out
    }

    pub fn entity_count(&self) -> usize {
        self.group_entities().len()
    }

    /// Drop whole sealed segments whose newest row is older than `floor`
    /// (so slightly more than asked may be retained); returns how many
    /// rows were dropped.
    pub fn retain_before(&mut self, floor: Timestamp) -> usize {
        let k = self.segs.partition_point(|s| s.meta.max_time() < floor);
        if k == 0 {
            return 0;
        }
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        let mut dropped = 0usize;
        for seg in self.segs.drain(..k) {
            dropped += seg.meta.rows;
            cache.map.remove(&seg.id);
        }
        drop(cache);
        self.dropped_rows += dropped as u64;
        self.dropped_segments += k as u64;
        dropped
    }

    /// Estimated resident bytes (rows, encoded blobs, caches, and the
    /// per-entity indexes lookups have built).
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for s in &self.segs {
            bytes += match &s.blob {
                Blob::Mem(b) => b.len(),
                Blob::Disk { .. } => std::mem::size_of::<SpillFile>(),
            };
            bytes += s.meta.entities.len() * std::mem::size_of::<R::Entity>() + 64;
        }
        let cache = self.cache.lock().expect("segment cache poisoned");
        for (_, (_, d)) in cache.map.iter() {
            bytes += d.approx_bytes();
        }
        drop(cache);
        bytes + self.tail.approx_bytes()
    }
}

impl<R: StoredRow> Clone for SegmentedTable<R> {
    fn clone(&self) -> Self {
        SegmentedTable {
            cfg: self.cfg.clone(),
            segs: self.segs.clone(),
            tail: self.tail.clone(),
            reseals: self.reseals,
            dropped_rows: self.dropped_rows,
            dropped_segments: self.dropped_segments,
            counters: Counters::default(),
            cache: Mutex::new(Cache {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }
}

impl<R: StoredRow> std::fmt::Debug for SegmentedTable<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedTable")
            .field("segments", &self.segs.len())
            .field(
                "sealed_rows",
                &self.segs.iter().map(|s| s.meta.rows).sum::<usize>(),
            )
            .field("tail_rows", &self.tail.len())
            .finish()
    }
}
