//! Crash-consistent pipeline checkpoints (§14 of DESIGN.md).
//!
//! A checkpoint is one atomic manifest write at a cycle boundary: the
//! collector's segment manifest (sealed segments in checksummed pack
//! files) plus this module's [`PipelineCheckpoint`] — the online path's
//! per-symptom state — embedded as the manifest's opaque `app_state` JSON. Restart is
//! *load + replay*: [`OnlineRca::restore_from`](crate::OnlineRca::restore_from)
//! rebuilds the database, feed watermarks, ingest stats, and emission
//! tables from the manifest, then the driver re-feeds the micro-batches of
//! every cycle **after** the checkpointed one. Because the pipeline is
//! deterministic (extraction is a pure function of the database; the
//! engine of its inputs; emission gating of watermarks and the cycle
//! clock), the replay regenerates exactly the emissions the crashed run
//! would have produced — with the *same* sequence numbers, since
//! [`PipelineCheckpoint::next_seq`] is restored too. Consumers therefore
//! get exactly-once delivery by deduplicating on
//! [`grca_core::Emission::seq`].
//!
//! What is deliberately **not** checkpointed: the incremental extractor's
//! instance cache. The first post-restore extraction is a full pass over
//! the restored database, which rebuilds the cache exactly (extraction is
//! pure). Nor are its watermarks: they date from the cycle's extraction,
//! before its retention, so they are no check on the restored tables —
//! the manifest's per-segment row counts are. This keeps the manifest
//! small and removes a whole class of cache/DB divergence bugs from the
//! recovery path.

use crate::online::OnlineRca;
use grca_collector::{DurableStore, SaveStage, StorageConfig, StoreManifest};
use std::path::Path;

/// Version tag for the `app_state` payload; bumped on incompatible layout
/// changes so a restore never misreads an old checkpoint.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The online path's per-symptom state at a cycle boundary, embedded in
/// the collector manifest's `app_state`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineCheckpoint {
    pub version: u32,
    /// The cycle this checkpoint closes; replay resumes at `cycle + 1`.
    pub cycle: u64,
    /// Next emission sequence number — the exactly-once cursor.
    pub next_seq: u64,
    /// Emitted-symptom table: `(location, window start, window end)`.
    pub emitted: Vec<(String, i64, i64)>,
    /// Degraded emissions still awaiting amendment, same shape.
    pub pending_amend: Vec<(String, i64, i64)>,
    /// Per-table `(row count, last unix)` watermarks. Written empty and
    /// never read: the manifest already pins every segment's row count,
    /// and restore checks each one (see module docs). Older checkpoints
    /// that carry the extractor's marks still decode.
    pub marks: Vec<(u64, Option<i64>)>,
    /// Derived hold-back of the graph that produced this checkpoint; a
    /// restore into a differently configured pipeline is refused (it
    /// would not replay deterministically).
    pub hold_back_secs: i64,
}

/// Write a checkpoint for `online` at the end of `cycle`: append the
/// dedup-fingerprint delta to the store's seen log, seal the collector's
/// tail segments, capture the manifest (with the pipeline state
/// embedded), persist it atomically, and garbage-collect packs and
/// log generations no longer referenced. Returns the saved manifest.
pub fn checkpoint(
    online: &mut OnlineRca,
    store: &DurableStore,
    cycle: u64,
) -> Result<StoreManifest, String> {
    checkpoint_with(online, store, cycle, &mut |_| false)
}

/// [`checkpoint`] with a crash-injection hook: `fail` is called at each
/// durability stage of the manifest rotation and aborts the save mid-way
/// when it returns `true` (the recovery tests kill the pipeline *inside*
/// the checkpoint write). Returns `Err` with a marker message when the
/// hook fired; the on-disk state is then whatever a real crash at that
/// stage would leave.
pub fn checkpoint_with(
    online: &mut OnlineRca,
    store: &DurableStore,
    cycle: u64,
    fail: &mut dyn FnMut(SaveStage) -> bool,
) -> Result<StoreManifest, String> {
    let m = online.checkpoint_manifest(store, cycle)?;
    let completed = store
        .save_with(&m, fail)
        .map_err(|e| format!("checkpoint save: {e}"))?;
    if !completed {
        return Err("checkpoint save aborted by fail hook".to_string());
    }
    store.gc(&m);
    Ok(m)
}

/// Load the latest manifest from `dir` and restore `online` from it.
/// `online` must be freshly built with the same topology, definitions,
/// graph, and tuning as the crashed instance, and must not have ingested
/// anything yet. Returns the checkpointed cycle (replay resumes after
/// it), or `None` for a cold start: no manifest on disk, or a manifest
/// whose referenced state fails validation — in which case `online` is
/// left untouched and the driver replays from cycle 0 (exactly-once is
/// still guaranteed by sequence-number dedup downstream).
pub fn restore(
    online: &mut OnlineRca,
    dir: &Path,
    cfg: &StorageConfig,
) -> Result<Option<u64>, String> {
    restore_explained(online, dir, cfg).map(Result::ok)
}

/// [`restore`], saying why it cold-starts: the inner `Err` is the reason
/// no checkpoint was resumed (none on disk, one of another version, or
/// one that failed validation — a torn segment or mismatched checkpoint
/// means the durable state cannot be trusted as a whole). The outer `Err` is a store that
/// could not be opened.
pub fn restore_explained(
    online: &mut OnlineRca,
    dir: &Path,
    cfg: &StorageConfig,
) -> Result<Result<u64, String>, String> {
    let store = DurableStore::open(dir).map_err(|e| format!("open durable store: {e}"))?;
    match store.load_explained() {
        Ok(m) => Ok(online.restore_from(&m, dir, cfg)),
        Err(why) => Ok(Err(why)),
    }
}
