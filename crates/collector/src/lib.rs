//! The G-RCA Data Collector (§II-A of the paper).
//!
//! "G-RCA's Data Collector pulls all the data together, normalizes them so
//! that they can be readily correlated, and stores them in database tables
//! in real time. The normalization across naming conventions, time zones,
//! and identifiers takes place as data is ingested."
//!
//! * [`rows`] — the normalized schema (UTC times, canonical entity ids);
//! * [`tables`] — time-indexed tables: binary-searched range queries plus
//!   a per-entity offset index, behind a pluggable storage facade;
//! * [`segment`] — the columnar codec for sealed segments (delta-encoded
//!   timestamps, interned strings, zone maps);
//! * [`storage`] — the storage backends: the flat `Vec` baseline and the
//!   memory-bounded segmented columnar store (LRU decode cache, optional
//!   on-disk spill, segment-granular retention);
//! * [`db`] — the ingestion pipeline over all feeds, with per-feed
//!   accept/drop statistics;
//! * [`durable`] — crash-consistent durability: checksummed atomic spill
//!   blobs and the rotated, versioned checkpoint manifest.

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
    frame, read_framed, read_seen_log, unframe, write_atomic, BlobError, DurableStore, SaveStage,
    SeenLogRef, SegmentRecord, StatsManifest, StoreManifest, TableManifest, MANIFEST_VERSION,
};
pub use health::{FeedHealth, FeedRegistry, FeedState};
pub use rows::*;
pub use segment::{
    decode_segment, encode_segment, try_decode_segment, DecodedSeg, SegmentMeta, StoredRow,
};
pub use storage::{SealedRun, SegmentedTable, StorageConfig, StorageStats};
pub use tables::{EntityRows, FlatTable, RowSet, Table};
