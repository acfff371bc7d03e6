//! The G-RCA Data Collector (§II-A of the paper).
//!
//! "G-RCA's Data Collector pulls all the data together, normalizes them so
//! that they can be readily correlated, and stores them in database tables
//! in real time. The normalization across naming conventions, time zones,
//! and identifiers takes place as data is ingested."
//!
//! * [`rows`] — the normalized schema (UTC times, canonical entity ids);
//! * [`storage`] — the one table type, [`Table`]: sealed columnar
//!   segments (LRU decode cache, optional on-disk spill,
//!   segment-granular retention) ahead of an unsealed tail, or only the
//!   tail when it never seals;
//! * [`tables`] — that tail: binary-searched range queries plus a
//!   per-entity offset index, and the row sets queries answer in;
//! * [`segment`] — the columnar codec for sealed segments (delta-encoded
//!   timestamps, interned strings, zone maps);
//! * [`db`] — the ingestion pipeline over all feeds, with per-feed
//!   accept/drop statistics;
//! * [`durable`] — crash-consistent durability: one checksummed pack
//!   file per checkpoint barrier and the rotated, versioned checkpoint
//!   manifest.

#![forbid(unsafe_code)]

pub mod db;
pub mod durable;
pub mod health;
pub mod rows;
pub mod segment;
pub mod storage;
pub mod tables;

pub use db::{
    record_fingerprint, Database, IngestStats, QuarantineReason, Quarantined, SeenEvent, FEEDS,
};
pub use durable::{
    frame, read_frame_at, read_framed, read_seen_log, unframe, write_atomic, BlobError,
    DurableStore, SaveStage, SeenLogRef, SegmentRecord, StatsManifest, StoreManifest,
    TableManifest, MANIFEST_VERSION,
};
pub use health::{FeedHealth, FeedRegistry, FeedState};
pub use rows::*;
pub use segment::{
    decode_segment, encode_segment, try_decode_segment, DecodedSeg, SegmentMeta, StoredRow,
};
pub use storage::{SealedRun, StorageConfig, StorageStats, Table};
pub use tables::{EntityRows, FlatTable, RowSet};
