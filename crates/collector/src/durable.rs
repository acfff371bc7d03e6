//! Crash-consistent durability for the collector: checksummed blob
//! frames, atomic file replacement, and the versioned store manifest.
//!
//! The paper's platform ran as a long-lived production service (§II);
//! ours must survive being killed at any instant. The durability model
//! has exactly two kinds of on-disk state, both written so that a crash
//! at any byte boundary leaves the store loadable:
//!
//! * **Segment blobs** — every sealed segment's encoded bytes, wrapped
//!   in a [`frame`] (magic + version + length + FNV-1a checksum) and
//!   written via temp file → `fsync` → atomic rename. A torn or
//!   bit-flipped blob fails checksum verification on read and is
//!   *quarantined* (reported as a [`BlobError`], counted by the storage
//!   layer), never `expect`-panicked.
//! * **The manifest** — one JSON document ([`StoreManifest`]) naming the
//!   sealed segments of every feed table, the dedup fingerprints, the
//!   retention floor, feed watermarks, ingest accounting, and an opaque
//!   application checkpoint. It is replaced atomically with a
//!   `MANIFEST` / `MANIFEST.prev` rotation: a crash mid-save leaves
//!   either the old manifest, the old manifest under its `.prev` name,
//!   or the new one — [`DurableStore::load`] tries them in order, so
//!   recovery always sees *some* consistent barrier.
//!
//! Anything not referenced by the loaded manifest (segments sealed after
//! the last checkpoint, temp files of a dying writer) is garbage — the
//! replay of the un-checkpointed input tail regenerates it — and is
//! swept by [`DurableStore::gc`] at the next successful save.

use crate::db::{
    each_table, feeds_by_name, Database, IngestStats, QuarantineReason, Quarantined, SeenEvent,
    FEEDS,
};
use crate::health::FeedRegistry;
use crate::segment::try_decode_segment;
use crate::storage::StorageConfig;
use crate::tables::Table;
use grca_types::Timestamp;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of every durable file.
pub const FRAME_MAGIC: [u8; 4] = *b"GRCA";
/// Frame layout version.
pub const FRAME_VERSION: u8 = 1;
/// Manifest schema version. v2 moved the dedup fingerprints out of the
/// manifest body into the append-only seen log ([`SeenLogRef`]); v3 is the
/// same layout holding [`crate::record_fingerprint`]'s one-pass values, so
/// that a v2 log's numbers are never restored into a map they mean nothing
/// in.
pub const MANIFEST_VERSION: u32 = 3;

const FRAME_HEADER: usize = 4 + 1 + 8 + 8;

/// FNV-1a 64-bit offset basis — the checksum of zero bytes, and the
/// starting state of every resumable checksum chain.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a state. Resumable: hashing a file
/// in arbitrary chunks yields the same value as hashing it whole, which
/// is what lets the seen log extend its checksum on every append instead
/// of re-reading the file.
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit — cheap, dependency-free, and plenty to detect torn or
/// bit-rotted writes (this is corruption *detection*, not authentication).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET_BASIS, bytes)
}

/// Why a durable blob could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The file is gone (or unreadable at the OS level).
    Missing(String),
    /// The file exists but fails structural or checksum verification —
    /// a torn write or bit rot.
    Torn(String),
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::Missing(m) => write!(f, "missing blob: {m}"),
            BlobError::Torn(m) => write!(f, "torn blob: {m}"),
        }
    }
}

/// Wrap `payload` in the durable frame:
/// `[magic 4][version 1][len u64 LE][fnv1a64 u64 LE][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify a framed file's bytes and return the payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], BlobError> {
    if bytes.len() < FRAME_HEADER {
        return Err(BlobError::Torn(format!(
            "{} bytes, shorter than the {FRAME_HEADER}-byte frame header",
            bytes.len()
        )));
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(BlobError::Torn("bad frame magic".to_string()));
    }
    if bytes[4] != FRAME_VERSION {
        return Err(BlobError::Torn(format!(
            "unknown frame version {}",
            bytes[4]
        )));
    }
    let len = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    let payload = &bytes[FRAME_HEADER..];
    if payload.len() != len {
        return Err(BlobError::Torn(format!(
            "payload is {} bytes, frame promised {len}",
            payload.len()
        )));
    }
    if fnv1a64(payload) != sum {
        return Err(BlobError::Torn("checksum mismatch".to_string()));
    }
    Ok(payload)
}

/// Read a framed file and return its verified payload.
pub fn read_framed(path: &Path) -> Result<Vec<u8>, BlobError> {
    let bytes =
        std::fs::read(path).map_err(|e| BlobError::Missing(format!("{}: {e}", path.display())))?;
    unframe(&bytes).map(|p| p.to_vec()).map_err(|e| match e {
        BlobError::Torn(m) => BlobError::Torn(format!("{}: {m}", path.display())),
        other => other,
    })
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    // Directory fsync makes the rename itself durable. Not all
    // filesystems support opening a directory for sync; best-effort.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Write `bytes` to `path` crash-atomically: unique temp file in the same
/// directory, optional `fsync`, atomic rename over the target, directory
/// `fsync`. Readers never observe a partial file under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync {
            f.sync_all()?;
        }
    }
    std::fs::rename(&tmp, path)?;
    if fsync {
        if let Some(parent) = path.parent() {
            fsync_dir(parent)?;
        }
    }
    Ok(())
}

/// One sealed segment referenced by the manifest.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SegmentRecord {
    /// File name relative to the store directory.
    pub file: String,
    /// Row count the decode must reproduce.
    pub rows: u64,
}

/// All sealed segments of one feed table, in time order.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TableManifest {
    pub feed: String,
    pub segments: Vec<SegmentRecord>,
}

/// A quarantined record, flattened to owned strings for the manifest.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuarantineEntry {
    pub feed: String,
    /// `unknown-entity` | `malformed` | `implausible`.
    pub tag: String,
    /// Entity kind / measurement name (interned back to the known
    /// static set on restore).
    pub what: String,
    pub detail: String,
}

/// Ingest accounting, keyed by feed name (owned for serialization).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StatsManifest {
    pub accepted: Vec<(String, u64)>,
    pub quarantined: Vec<(String, u64)>,
    pub deduplicated: Vec<(String, u64)>,
    pub expired: Vec<(String, u64)>,
    pub syslog_unparsed: u64,
}

/// The versioned checkpoint barrier: everything needed to rebuild the
/// collector (and, opaquely, the pipeline above it) exactly as it stood
/// when the manifest was written.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StoreManifest {
    pub version: u32,
    /// Last delivery cycle fully absorbed *and* checkpointed.
    pub cycle: u64,
    /// Next emission sequence number the pipeline would assign.
    pub next_seq: u64,
    pub retention_floor_unix: Option<i64>,
    /// Checksummed prefix of the append-only dedup fingerprint log this
    /// checkpoint is consistent with (the log itself lives next to the
    /// manifest; see [`DurableStore::persist_seen`]).
    pub seen_log: SeenLogRef,
    pub stats: StatsManifest,
    pub quarantine: Vec<QuarantineEntry>,
    /// Feed registry observations: `(feed, watermark unix, records)`.
    pub registry: Vec<(String, i64, u64)>,
    pub tables: Vec<TableManifest>,
    /// Opaque JSON blob owned by the layer above the collector (the
    /// online pipeline's `PipelineCheckpoint`).
    pub app_state: Option<String>,
}

/// Crash windows inside [`DurableStore::save_with`], exposed so recovery
/// tests can kill the process (or simulate a kill) at each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveStage {
    /// New manifest written under its temp name; `MANIFEST` still old.
    TmpWritten,
    /// Old `MANIFEST` rotated to `MANIFEST.prev`; no `MANIFEST` exists.
    Rotated,
    /// New `MANIFEST` renamed into place.
    Renamed,
}

/// A checksummed prefix of one generation of the append-only dedup
/// fingerprint log (`grca-seen-<gen>.log`).
///
/// The log is the one piece of collector state that grows with *history*
/// rather than with the retention window, so the manifest must not
/// re-serialize it at every barrier. Instead each checkpoint appends only
/// the journal delta since the previous barrier ([`Database::seen_log`])
/// and records here how much of the file it vouches for: the first
/// `bytes` bytes, whose running FNV-1a state is `fnv`. Anything past that
/// prefix is the un-manifested tail of a crashed writer and is ignored on
/// read (and truncated away by the next append). A compaction
/// ([`Database::retain_before`] pruning the journal) bumps the epoch,
/// and the next checkpoint rewrites the log into a fresh generation file.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeenLogRef {
    /// Log file name relative to the store directory; empty for a log
    /// with no entries (nothing to read).
    pub file: String,
    /// Journal epoch this prefix belongs to ([`Database::seen_log`]).
    pub epoch: u64,
    /// Event records in the vouched-for prefix.
    pub entries: u64,
    /// Prefix length in bytes (`entries * SEEN_RECORD_BYTES`).
    pub bytes: u64,
    /// Running FNV-1a state over the prefix, resumed on append.
    pub fnv: u64,
}

impl SeenLogRef {
    /// Reference to an empty log (cold manifests, tests).
    pub fn empty() -> SeenLogRef {
        SeenLogRef {
            file: String::new(),
            epoch: 0,
            entries: 0,
            bytes: 0,
            fnv: FNV_OFFSET_BASIS,
        }
    }
}

/// Fixed on-disk size of one seen-log event record:
/// `[tag u8][fp hi u64 LE][fp lo u64 LE][unix i64 LE]`.
pub const SEEN_RECORD_BYTES: usize = 1 + 8 + 8 + 8;

fn encode_seen_events(events: &[SeenEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * SEEN_RECORD_BYTES);
    for ev in events {
        match *ev {
            SeenEvent::Insert { fp, at } => {
                out.push(0u8);
                out.extend_from_slice(&((fp >> 64) as u64).to_le_bytes());
                out.extend_from_slice(&(fp as u64).to_le_bytes());
                out.extend_from_slice(&at.unix().to_le_bytes());
            }
            SeenEvent::Floor(floor) => {
                out.push(1u8);
                out.extend_from_slice(&[0u8; 16]);
                out.extend_from_slice(&floor.unix().to_le_bytes());
            }
        }
    }
    out
}

fn decode_seen_events(bytes: &[u8]) -> Result<Vec<SeenEvent>, BlobError> {
    if !bytes.len().is_multiple_of(SEEN_RECORD_BYTES) {
        return Err(BlobError::Torn(format!(
            "seen log prefix of {} bytes is not a whole number of records",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(bytes.len() / SEEN_RECORD_BYTES);
    for rec in bytes.chunks_exact(SEEN_RECORD_BYTES) {
        let hi = u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
        let lo = u64::from_le_bytes(rec[9..17].try_into().expect("8 bytes"));
        let unix = i64::from_le_bytes(rec[17..25].try_into().expect("8 bytes"));
        out.push(match rec[0] {
            0 => SeenEvent::Insert {
                fp: ((hi as u128) << 64) | lo as u128,
                at: Timestamp::from_unix(unix),
            },
            1 => SeenEvent::Floor(Timestamp::from_unix(unix)),
            tag => return Err(BlobError::Torn(format!("unknown seen log tag {tag}"))),
        });
    }
    Ok(out)
}

/// Read back the events a manifest's [`SeenLogRef`] vouches for: the
/// checksummed prefix of the named log file, ignoring any crashed-writer
/// tail beyond it. A missing file, short prefix, or checksum mismatch is
/// an error — the caller cold-starts rather than trusting partial dedup
/// state.
pub fn read_seen_log(dir: &Path, r: &SeenLogRef) -> Result<Vec<SeenEvent>, BlobError> {
    if r.entries == 0 && r.bytes == 0 {
        return Ok(Vec::new());
    }
    if r.bytes != r.entries * SEEN_RECORD_BYTES as u64 {
        return Err(BlobError::Torn(format!(
            "seen log ref: {} entries cannot span {} bytes",
            r.entries, r.bytes
        )));
    }
    let path = dir.join(&r.file);
    let bytes =
        std::fs::read(&path).map_err(|e| BlobError::Missing(format!("{}: {e}", path.display())))?;
    let Some(prefix) = bytes.get(..r.bytes as usize) else {
        return Err(BlobError::Torn(format!(
            "{}: {} bytes on disk, manifest vouches for {}",
            path.display(),
            bytes.len(),
            r.bytes
        )));
    };
    if fnv1a64(prefix) != r.fnv {
        return Err(BlobError::Torn(format!(
            "{}: seen log checksum mismatch",
            path.display()
        )));
    }
    decode_seen_events(prefix)
}

/// A directory of durable state: segment blobs plus the rotated manifest.
#[derive(Debug, Clone)]
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Open (creating if needed) the store directory. The directory must
    /// be private to one pipeline: [`DurableStore::gc`] deletes
    /// unreferenced segment files in it.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DurableStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DurableStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("MANIFEST.prev")
    }

    /// Atomically publish `m` as the current manifest.
    pub fn save(&self, m: &StoreManifest) -> std::io::Result<()> {
        self.save_with(m, &mut |_| false).map(|_| ())
    }

    /// [`DurableStore::save`] with a crash hook: `hook(stage)` is called
    /// at each crash window and may return `true` to stop mid-save (an
    /// in-process simulated kill) or abort the process outright. Returns
    /// `false` if the hook stopped the save.
    ///
    /// The stage order guarantees a loadable store at every window:
    /// after [`SaveStage::TmpWritten`] the old `MANIFEST` is untouched;
    /// after [`SaveStage::Rotated`] the old manifest survives as
    /// `MANIFEST.prev`; after [`SaveStage::Renamed`] the new manifest is
    /// live.
    pub fn save_with(
        &self,
        m: &StoreManifest,
        hook: &mut dyn FnMut(SaveStage) -> bool,
    ) -> std::io::Result<bool> {
        let payload = serde_json::to_string(m)
            .map_err(|e| std::io::Error::other(format!("serialize manifest: {e}")))?;
        let framed = frame(payload.as_bytes());
        let tmp = self.dir.join("MANIFEST.next");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        if hook(SaveStage::TmpWritten) {
            return Ok(false);
        }
        let manifest = self.manifest_path();
        if manifest.exists() {
            std::fs::rename(&manifest, self.prev_path())?;
            fsync_dir(&self.dir)?;
        }
        if hook(SaveStage::Rotated) {
            return Ok(false);
        }
        std::fs::rename(&tmp, &manifest)?;
        fsync_dir(&self.dir)?;
        if hook(SaveStage::Renamed) {
            return Ok(false);
        }
        Ok(true)
    }

    /// Load the newest consistent manifest: `MANIFEST` first, falling
    /// back to `MANIFEST.prev` if the current one is absent or torn.
    /// `None` means cold start (no usable checkpoint).
    pub fn load(&self) -> Option<StoreManifest> {
        for path in [self.manifest_path(), self.prev_path()] {
            let Ok(payload) = read_framed(&path) else {
                continue;
            };
            let Ok(text) = std::str::from_utf8(&payload) else {
                continue;
            };
            match serde_json::from_str::<StoreManifest>(text) {
                Ok(m) if m.version == MANIFEST_VERSION => return Some(m),
                _ => continue,
            }
        }
        None
    }

    /// Persist the database's seen-event journal and return the log
    /// reference to embed in the manifest. When `prev` (the reference the
    /// last saved manifest carried) is from the same journal epoch, only
    /// the delta since that barrier is appended to the existing
    /// generation file — after truncating any un-manifested tail a
    /// crashed writer left — and the checksum chain is resumed from
    /// `prev.fnv`. Otherwise (cold store, compacted journal, or a log
    /// file that went missing) the whole journal is rewritten into the
    /// next generation file. Either way the log bytes are fsynced before
    /// returning, so they are durable before the manifest that references
    /// them is rotated in.
    pub fn persist_seen(
        &self,
        db: &Database,
        prev: Option<&SeenLogRef>,
    ) -> std::io::Result<SeenLogRef> {
        let (epoch, events) = db.seen_log();
        if let Some(p) = prev {
            let appendable = p.epoch == epoch
                && (p.entries as usize) <= events.len()
                && !p.file.is_empty()
                && self
                    .dir
                    .join(&p.file)
                    .metadata()
                    .is_ok_and(|md| md.len() >= p.bytes);
            if appendable {
                return self.append_seen(p, &events[p.entries as usize..]);
            }
        }
        let generation = self.next_seen_generation();
        let file = format!("grca-seen-{generation}.log");
        let bytes = encode_seen_events(events);
        {
            let mut f = std::fs::File::create(self.dir.join(&file))?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fsync_dir(&self.dir)?;
        Ok(SeenLogRef {
            file,
            epoch,
            entries: events.len() as u64,
            bytes: bytes.len() as u64,
            fnv: fnv1a64(&bytes),
        })
    }

    fn append_seen(&self, p: &SeenLogRef, delta: &[SeenEvent]) -> std::io::Result<SeenLogRef> {
        if delta.is_empty() {
            return Ok(p.clone());
        }
        let bytes = encode_seen_events(delta);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(&p.file))?;
        // Drop whatever a dying writer appended past the last barrier,
        // then extend the vouched-for prefix.
        f.set_len(p.bytes)?;
        std::io::Seek::seek(&mut f, std::io::SeekFrom::Start(p.bytes))?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        Ok(SeenLogRef {
            file: p.file.clone(),
            epoch: p.epoch,
            entries: p.entries + delta.len() as u64,
            bytes: p.bytes + bytes.len() as u64,
            fnv: fnv1a64_continue(p.fnv, &bytes),
        })
    }

    fn next_seen_generation(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 1;
        };
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("grca-seen-")?
                    .strip_suffix(".log")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map_or(1, |g| g + 1)
    }

    /// Delete segment files in the store directory that `m` does not
    /// reference — seals from after the checkpoint barrier, leftovers of
    /// a previous incarnation — plus superseded seen-log generations and
    /// stray temp files. Returns how many files were removed.
    pub fn gc(&self, m: &StoreManifest) -> usize {
        let live: std::collections::HashSet<&str> = m
            .tables
            .iter()
            .flat_map(|t| t.segments.iter().map(|s| s.file.as_str()))
            .collect();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0usize;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_seg = name.starts_with("grca-seg-") && name.ends_with(".bin");
            let is_dead_log =
                name.starts_with("grca-seen-") && name.ends_with(".log") && name != m.seen_log.file;
            let is_tmp = name.ends_with(".tmp");
            if ((is_seg && !live.contains(name)) || is_dead_log || is_tmp)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }
}

/// The feeds counted at all, by name — what the manifest has always listed.
fn stats_to_vec(counts: &[usize; 10]) -> Vec<(String, u64)> {
    let counted = feeds_by_name().into_iter().filter(|&i| counts[i] > 0);
    counted
        .map(|i| (FEEDS[i].to_string(), counts[i] as u64))
        .collect()
}

fn stats_from_vec(v: &[(String, u64)]) -> [usize; 10] {
    let mut out = [0; 10];
    for (feed, n) in v {
        if let Some(i) = FEEDS.iter().position(|f| f == feed) {
            out[i] = *n as usize;
        }
    }
    out
}

/// Known `&'static str` tags used inside [`QuarantineReason`]; restore
/// interns manifest strings back through this set.
const QUARANTINE_WHATS: &[&str] = &[
    "router",
    "interface",
    "link",
    "l1-device",
    "cdn-node",
    "client-site",
    "server",
    "prefix",
    "record clock",
    "snmp measurement",
    "perf measurement",
    "cdn rtt",
    "server load",
    "entity",
];

fn intern_what(s: &str) -> &'static str {
    QUARANTINE_WHATS
        .iter()
        .find(|&&k| k == s)
        .copied()
        .unwrap_or("entity")
}

fn quarantine_to_entries(q: &[Quarantined]) -> Vec<QuarantineEntry> {
    q.iter()
        .map(|e| {
            let (tag, what, detail) = match &e.reason {
                QuarantineReason::UnknownEntity { kind, name } => {
                    ("unknown-entity", kind.to_string(), name.clone())
                }
                QuarantineReason::Malformed { error } => {
                    ("malformed", String::new(), error.clone())
                }
                QuarantineReason::Implausible { what, detail } => {
                    ("implausible", what.to_string(), detail.clone())
                }
            };
            QuarantineEntry {
                feed: e.feed.to_string(),
                tag: tag.to_string(),
                what,
                detail,
            }
        })
        .collect()
}

fn quarantine_from_entries(entries: &[QuarantineEntry]) -> Vec<Quarantined> {
    entries
        .iter()
        .filter_map(|e| {
            let feed = FEEDS.iter().find(|&&f| f == e.feed).copied()?;
            let reason = match e.tag.as_str() {
                "unknown-entity" => QuarantineReason::UnknownEntity {
                    kind: intern_what(&e.what),
                    name: e.detail.clone(),
                },
                "implausible" => QuarantineReason::Implausible {
                    what: intern_what(&e.what),
                    detail: e.detail.clone(),
                },
                _ => QuarantineReason::Malformed {
                    error: e.detail.clone(),
                },
            };
            Some(Quarantined { feed, reason })
        })
        .collect()
}

impl StoreManifest {
    /// Capture the checkpoint barrier: force-seal every table tail (so
    /// all rows live in durable segments), then snapshot the collector's
    /// full logical state. `seen_log` is the already-persisted dedup log
    /// prefix this barrier is consistent with
    /// ([`DurableStore::persist_seen`], called first). Requires the
    /// durable segmented backend — returns `Err` on in-memory tables.
    pub fn capture(
        db: &mut Database,
        stats: &IngestStats,
        registry: &FeedRegistry,
        cycle: u64,
        next_seq: u64,
        app_state: Option<String>,
        seen_log: SeenLogRef,
    ) -> Result<StoreManifest, String> {
        db.seal_all();
        let tables = db
            .segment_manifests()
            .ok_or("durable checkpoint requires the segmented spill backend")?;
        Ok(StoreManifest {
            version: MANIFEST_VERSION,
            cycle,
            next_seq,
            retention_floor_unix: db.retention_floor().map(|t| t.unix()),
            seen_log,
            stats: StatsManifest {
                accepted: stats_to_vec(&stats.accepted),
                quarantined: stats_to_vec(&stats.quarantined),
                deduplicated: stats_to_vec(&stats.deduplicated),
                expired: stats_to_vec(&stats.expired),
                syslog_unparsed: stats.syslog_unparsed as u64,
            },
            quarantine: quarantine_to_entries(&db.quarantine),
            registry: registry
                .export_seen()
                .into_iter()
                .map(|(f, w, n)| (f.to_string(), w.unix(), n as u64))
                .collect(),
            tables,
            app_state,
        })
    }

    /// Rebuild the collector exactly as captured: decode every
    /// referenced segment (checksum-verified by [`read_framed`]), refill
    /// the tables, and restore fingerprints, accounting, quarantine, and
    /// registry. Any missing/torn segment or row-count mismatch fails
    /// the whole restore (the caller cold-starts and replays instead —
    /// never serves silently truncated history).
    pub fn restore(
        &self,
        dir: &Path,
        cfg: &StorageConfig,
    ) -> Result<(Database, IngestStats, FeedRegistry), String> {
        if self.version != MANIFEST_VERSION {
            return Err(format!("unknown manifest version {}", self.version));
        }
        let mut db = Database::with_storage(cfg);
        db.restore_tables(dir, &self.tables)?;
        let seen_events = read_seen_log(dir, &self.seen_log).map_err(|e| e.to_string())?;
        db.import_seen_events(self.seen_log.epoch, seen_events);
        db.restore_retention_floor(self.retention_floor_unix.map(Timestamp::from_unix));
        db.quarantine = quarantine_from_entries(&self.quarantine);
        let stats = IngestStats {
            accepted: stats_from_vec(&self.stats.accepted),
            quarantined: stats_from_vec(&self.stats.quarantined),
            deduplicated: stats_from_vec(&self.stats.deduplicated),
            expired: stats_from_vec(&self.stats.expired),
            syslog_unparsed: self.stats.syslog_unparsed as usize,
        };
        let mut registry = FeedRegistry::new();
        for (feed, w, n) in &self.registry {
            if let Some(&f) = FEEDS.iter().find(|&&f| f == feed) {
                registry.observe(f, Timestamp::from_unix(*w), *n as usize);
            }
        }
        Ok((db, stats, registry))
    }
}

impl Database {
    /// Per-feed manifests of every sealed on-disk segment, in time
    /// order. `None` if any table is not on the durable spill backend.
    pub fn segment_manifests(&self) -> Option<Vec<TableManifest>> {
        let tables = each_table!(&self, |i, t| TableManifest {
            feed: FEEDS[i].to_string(),
            segments: t.segment_files()?,
        });
        Some(tables.into())
    }

    /// Refill every table from manifest-referenced segment files.
    pub fn restore_tables(&mut self, dir: &Path, tables: &[TableManifest]) -> Result<(), String> {
        fn fill<R: crate::segment::StoredRow>(
            t: &mut Table<R>,
            dir: &Path,
            m: &TableManifest,
        ) -> Result<(), String> {
            for seg in &m.segments {
                let payload = read_framed(&dir.join(&seg.file)).map_err(|e| e.to_string())?;
                let dec = try_decode_segment::<R>(&payload)?;
                if dec.rows.len() as u64 != seg.rows {
                    return Err(format!(
                        "{}: decoded {} rows, manifest promised {}",
                        seg.file,
                        dec.rows.len(),
                        seg.rows
                    ));
                }
                for row in dec.rows {
                    t.push(row);
                }
            }
            t.finalize();
            Ok(())
        }
        if let Some(m) = tables.iter().find(|m| !FEEDS.contains(&m.feed.as_str())) {
            return Err(format!("unknown feed {:?} in manifest", m.feed));
        }
        let filled = each_table!(&mut self, |i, t| tables
            .iter()
            .filter(|m| m.feed == FEEDS[i])
            .try_for_each(|m| fill(t, dir, m)));
        filled.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let payload = b"hello durable world".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);
        // Truncation at every byte boundary is detected, never panics.
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "cut at {cut} accepted");
        }
        // A single flipped payload bit is detected.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(unframe(&flipped), Err(BlobError::Torn(_))));
        // A wrong version is rejected.
        let mut vers = framed.clone();
        vers[4] = 99;
        assert!(unframe(&vers).is_err());
    }

    #[test]
    fn write_atomic_replaces_and_read_framed_verifies() {
        let dir = std::env::temp_dir().join(format!("grca-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        write_atomic(&path, &frame(b"v1"), true).unwrap();
        assert_eq!(read_framed(&path).unwrap(), b"v1");
        write_atomic(&path, &frame(b"v2 longer"), true).unwrap();
        assert_eq!(read_framed(&path).unwrap(), b"v2 longer");
        // Torn on disk → Torn error, not panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(read_framed(&path), Err(BlobError::Torn(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rotation_survives_simulated_crashes() {
        let dir = std::env::temp_dir().join(format!("grca-manifest-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DurableStore::open(&dir).unwrap();
        let m1 = StoreManifest {
            version: MANIFEST_VERSION,
            cycle: 1,
            next_seq: 10,
            retention_floor_unix: None,
            seen_log: SeenLogRef::empty(),
            stats: StatsManifest::default(),
            quarantine: Vec::new(),
            registry: vec![("syslog".to_string(), 100, 5)],
            tables: Vec::new(),
            app_state: Some("{\"x\":1}".to_string()),
        };
        store.save(&m1).unwrap();
        assert_eq!(store.load().unwrap(), m1);

        let mut m2 = m1.clone();
        m2.cycle = 2;
        // Crash after the temp write: old manifest still live.
        store
            .save_with(&m2, &mut |s| s == SaveStage::TmpWritten)
            .unwrap();
        assert_eq!(store.load().unwrap().cycle, 1);
        // Crash after rotation: no MANIFEST, .prev fallback restores m1.
        store
            .save_with(&m2, &mut |s| s == SaveStage::Rotated)
            .unwrap();
        assert!(!store.manifest_path().exists());
        assert_eq!(store.load().unwrap().cycle, 1);
        // Completed save: m2 live, m1 in .prev.
        store.save(&m2).unwrap();
        assert_eq!(store.load().unwrap().cycle, 2);
        // Torn current manifest falls back to .prev.
        let bytes = std::fs::read(store.manifest_path()).unwrap();
        std::fs::write(store.manifest_path(), &bytes[..bytes.len() / 2]).unwrap();
        let recovered = store.load().unwrap();
        assert_eq!(recovered.cycle, 1, "fallback to MANIFEST.prev");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_only_unreferenced_segments() {
        let dir = std::env::temp_dir().join(format!("grca-gc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DurableStore::open(&dir).unwrap();
        std::fs::write(dir.join("grca-seg-1-0.bin"), b"live").unwrap();
        std::fs::write(dir.join("grca-seg-1-1.bin"), b"dead").unwrap();
        std::fs::write(dir.join("grca-seen-1.log"), b"old gen").unwrap();
        std::fs::write(dir.join("grca-seen-2.log"), b"").unwrap();
        std::fs::write(dir.join("stray.tmp"), b"tmp").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep").unwrap();
        let m = StoreManifest {
            version: MANIFEST_VERSION,
            cycle: 0,
            next_seq: 0,
            retention_floor_unix: None,
            seen_log: SeenLogRef {
                file: "grca-seen-2.log".to_string(),
                epoch: 0,
                entries: 0,
                bytes: 0,
                fnv: FNV_OFFSET_BASIS,
            },
            stats: StatsManifest::default(),
            quarantine: Vec::new(),
            registry: Vec::new(),
            tables: vec![TableManifest {
                feed: "syslog".to_string(),
                segments: vec![SegmentRecord {
                    file: "grca-seg-1-0.bin".to_string(),
                    rows: 1,
                }],
            }],
            app_state: None,
        };
        assert_eq!(store.gc(&m), 3);
        assert!(dir.join("grca-seg-1-0.bin").exists());
        assert!(!dir.join("grca-seg-1-1.bin").exists());
        assert!(!dir.join("grca-seen-1.log").exists());
        assert!(dir.join("grca-seen-2.log").exists());
        assert!(dir.join("unrelated.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seen_log_appends_deltas_and_truncates_crashed_tails() {
        use grca_types::Timestamp;
        let dir = std::env::temp_dir().join(format!("grca-seenlog-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DurableStore::open(&dir).unwrap();
        let ev = |n: i64| SeenEvent::Insert {
            fp: ((n as u128) << 64) | 7,
            at: Timestamp::from_unix(n),
        };

        // Cold store: the full journal lands in generation 1.
        let mut db = Database::default();
        db.import_seen_events(0, vec![ev(1), ev(2)]);
        let r1 = store.persist_seen(&db, None).unwrap();
        assert_eq!(r1.file, "grca-seen-1.log");
        assert_eq!(r1.entries, 2);
        assert_eq!(read_seen_log(&dir, &r1).unwrap(), vec![ev(1), ev(2)]);

        // Same epoch: only the delta is appended, checksum chain resumed.
        db.import_seen_events(0, vec![ev(1), ev(2), ev(3), ev(4)]);
        let r2 = store.persist_seen(&db, Some(&r1)).unwrap();
        assert_eq!(r2.file, r1.file);
        assert_eq!(r2.entries, 4);
        assert_eq!(r2.fnv, {
            let whole = std::fs::read(dir.join(&r2.file)).unwrap();
            fnv1a64(&whole[..r2.bytes as usize])
        });
        assert_eq!(read_seen_log(&dir, &r2).unwrap().len(), 4);

        // A crashed writer's un-manifested tail is invisible to reads
        // against the old barrier and truncated by the next append.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(&r2.file))
            .unwrap();
        std::io::Write::write_all(&mut f, b"garbage tail").unwrap();
        drop(f);
        assert_eq!(read_seen_log(&dir, &r2).unwrap().len(), 4);
        db.import_seen_events(0, vec![ev(1), ev(2), ev(3), ev(4), ev(5)]);
        let r3 = store.persist_seen(&db, Some(&r2)).unwrap();
        assert_eq!(r3.entries, 5);
        assert_eq!(
            std::fs::metadata(dir.join(&r3.file)).unwrap().len(),
            r3.bytes
        );
        assert_eq!(read_seen_log(&dir, &r3).unwrap().len(), 5);

        // An epoch change (journal compaction) forces a fresh generation.
        db.import_seen_events(9, vec![ev(4), ev(5)]);
        let r4 = store.persist_seen(&db, Some(&r3)).unwrap();
        assert_eq!(r4.file, "grca-seen-2.log");
        assert_eq!(r4.epoch, 9);
        assert_eq!(read_seen_log(&dir, &r4).unwrap(), vec![ev(4), ev(5)]);

        // Floor events round-trip, and a short file is a Torn error.
        db.import_seen_events(9, vec![ev(4), SeenEvent::Floor(Timestamp::from_unix(99))]);
        let r5 = store.persist_seen(&db, None).unwrap();
        assert_eq!(
            read_seen_log(&dir, &r5).unwrap()[1],
            SeenEvent::Floor(Timestamp::from_unix(99))
        );
        let trunc = std::fs::read(dir.join(&r5.file)).unwrap();
        std::fs::write(dir.join(&r5.file), &trunc[..trunc.len() - 1]).unwrap();
        assert!(matches!(read_seen_log(&dir, &r5), Err(BlobError::Torn(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
