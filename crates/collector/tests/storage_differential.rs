//! Differential property tests: a table must answer every query like a
//! plain sorted `Vec` under arbitrary arrival orders, repeated finalizes,
//! tiny segments/caches, on-disk spill, and retention floors. The model
//! is the executable specification; a table may only differ in *how much
//! pre-floor history retention keeps* (it drops whole sealed segments, so
//! it retains a superset of the exact cut), never in what any query at or
//! above the floor observes.

use grca_collector::segment::{SegReader, SegWriter};
use grca_collector::{Row, StorageConfig, StoredRow, Table};
use grca_types::{TimeWindow, Timestamp};
use proptest::prelude::*;

/// A minimal row whose tiebreak is its payload and entity, so equal-time
/// rows that differ have a deterministic canonical order every table must
/// reproduce bit for bit (rows tying on it are equal).
#[derive(Debug, Clone, PartialEq)]
struct TRow {
    t: Timestamp,
    e: u32,
    v: u64,
}

impl Row for TRow {
    type Entity = u32;
    fn time(&self) -> Timestamp {
        self.t
    }
    fn entity(&self) -> u32 {
        self.e
    }
    fn tiebreak(&self) -> u64 {
        self.v << 32 | self.e as u64
    }
}

impl StoredRow for TRow {
    fn encode_cols(rows: &[Self], w: &mut SegWriter) {
        for r in rows {
            w.varu(r.e as u64);
            w.varu(r.v);
        }
    }
    fn decode_cols(times: &[Timestamp], r: &mut SegReader) -> Vec<Self> {
        times
            .iter()
            .map(|&t| TRow {
                t,
                e: r.varu() as u32,
                v: r.varu(),
            })
            .collect()
    }
}

fn row_strategy() -> impl Strategy<Value = TRow> {
    (0i64..500, 0u32..6, 0u64..1000).prop_map(|(t, e, v)| TRow {
        t: Timestamp(t),
        e,
        v,
    })
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<TRow>>> {
    proptest::collection::vec(proptest::collection::vec(row_strategy(), 0..40), 1..6)
}

/// The reference: every row pushed, sorted by `(time, tiebreak)`; each
/// query is a filter over it.
#[derive(Default)]
struct Model {
    rows: Vec<TRow>,
}

impl Model {
    fn push(&mut self, r: TRow) {
        self.rows.push(r);
        self.rows.sort_by_key(|r| (r.time(), r.tiebreak()));
    }

    fn filter(&self, keep: impl Fn(&TRow) -> bool) -> Vec<TRow> {
        self.rows.iter().filter(|r| keep(r)).cloned().collect()
    }

    fn range(&self, w: TimeWindow) -> Vec<TRow> {
        self.filter(|r| r.t >= w.start && r.t <= w.end)
    }

    fn since(&self, t: Timestamp) -> Vec<TRow> {
        self.filter(|r| r.t >= t)
    }

    fn rows_of(&self, e: u32) -> Vec<TRow> {
        self.filter(|r| r.e == e)
    }

    fn entity_count(&self) -> usize {
        let mut es: Vec<u32> = self.rows.iter().map(|r| r.e).collect();
        es.sort_unstable();
        es.dedup();
        es.len()
    }
}

/// Assert every query shape agrees between the table and the model.
fn assert_query_identical(model: &Model, t: &Table<TRow>) {
    assert_eq!(t.len(), model.rows.len());
    assert_eq!(t.last_time(), model.rows.last().map(|r| r.t));
    assert_eq!(t.all().to_vec(), model.rows);
    assert_eq!(t.entity_count(), model.entity_count());
    for lo in (0..500).step_by(61) {
        for hi in (lo..500).step_by(97) {
            let w = TimeWindow::new(Timestamp(lo), Timestamp(hi));
            assert_eq!(t.range(w).to_vec(), model.range(w), "range {w:?}");
        }
        assert_eq!(t.since(Timestamp(lo)).to_vec(), model.since(Timestamp(lo)));
    }
    for e in 0u32..6 {
        let got: Vec<TRow> = t.rows_of(&e).iter().cloned().collect();
        assert_eq!(got, model.rows_of(e), "rows_of entity {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No retention: identical under arbitrary batch shapes, including
    /// late out-of-order rows that force reseals, with segments small
    /// enough that everything seals and a cache smaller than the segment
    /// count (constant decode churn) — and on a table that never seals.
    #[test]
    fn segmented_query_identical(batches in batches_strategy(), seg_rows in 2usize..12, cache in 1usize..4) {
        let mut model = Model::default();
        let mut tables = [
            Table::<TRow>::default(),
            Table::new(StorageConfig {
                segment_rows: seg_rows,
                cache_segments: cache,
                spill_dir: None,
                durable: false,
            }),
        ];
        for batch in &batches {
            for r in batch {
                model.push(r.clone());
            }
            for t in &mut tables {
                for r in batch {
                    t.push(r.clone());
                }
                t.finalize();
                assert_query_identical(&model, t);
            }
        }
    }

    /// Same property with sealed blobs spilled to disk: queries decode
    /// through the spill files and still agree exactly.
    #[test]
    fn segmented_query_identical_with_spill(batches in batches_strategy(), seg_rows in 2usize..8) {
        let dir = std::env::temp_dir()
            .join(format!("grca-storage-differential-{}", std::process::id()));
        let mut model = Model::default();
        let mut seg = Table::<TRow>::new(StorageConfig {
            segment_rows: seg_rows,
            cache_segments: 1,
            spill_dir: Some(dir.clone()),
            durable: false,
        });
        for batch in &batches {
            for r in batch {
                model.push(r.clone());
                seg.push(r.clone());
            }
            seg.finalize();
        }
        assert_query_identical(&model, &seg);
        drop(seg);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retention floors interleaved with ingest. Segment-granular
    /// retention may keep rows below the floor (it only drops whole
    /// sealed segments), so equality is asserted on what matters: every
    /// query whose bounds sit at or above the floor, and per-entity reads
    /// filtered to the floor. Below the floor the table holds a suffix of
    /// the model's history: a superset of the exact cut.
    #[test]
    fn segmented_retention_boundary(
        batches in batches_strategy(),
        seg_rows in 2usize..10,
        floors in proptest::collection::vec(0i64..500, 1..4),
    ) {
        let mut model = Model::default();
        let mut seg = Table::<TRow>::new(StorageConfig {
            segment_rows: seg_rows,
            cache_segments: 2,
            spill_dir: None,
            durable: false,
        });
        let mut floor = i64::MIN;
        for (i, batch) in batches.iter().enumerate() {
            for r in batch {
                model.push(r.clone());
                seg.push(r.clone());
            }
            seg.finalize();
            if let Some(f) = floors.get(i) {
                floor = floor.max(*f);
                seg.retain_before(Timestamp(floor));
            }
            let floor_t = Timestamp(floor);
            // The table never drops a row at or above the floor, and below
            // it keeps some of the model's rows, in the model's order.
            let (above, below): (Vec<TRow>, Vec<TRow>) =
                seg.all().iter().cloned().partition(|r| r.t >= floor_t);
            let model_above = model.since(floor_t);
            assert_eq!(above, model_above, "at-or-above-floor history diverged");
            let mut history = model.rows.iter();
            assert!(
                below.iter().all(|r| history.any(|m| m == r)),
                "pre-floor rows the model never held, or out of order"
            );
            // If anything at or above the floor exists, the table holds the
            // same newest row.
            if !model_above.is_empty() {
                assert_eq!(seg.last_time(), model.rows.last().map(|r| r.t));
            }
            // Bounded queries at or above the floor agree exactly.
            for lo in (floor.max(0)..500).step_by(73) {
                let w = TimeWindow::new(Timestamp(lo), Timestamp(lo + 50));
                assert_eq!(seg.range(w).to_vec(), model.range(w));
                assert_eq!(seg.since(Timestamp(lo)).to_vec(), model.since(Timestamp(lo)));
            }
            for e in 0u32..6 {
                let got: Vec<TRow> = seg
                    .rows_of(&e)
                    .iter()
                    .filter(|r| r.t >= floor_t)
                    .cloned()
                    .collect();
                let want: Vec<TRow> = model.rows_of(e).into_iter().filter(|r| r.t >= floor_t).collect();
                assert_eq!(got, want, "rows_of entity {e} above floor");
            }
        }
    }
}
