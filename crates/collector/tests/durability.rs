//! Durability regression tests: the barrier's pack write, torn-blob
//! quarantine, I/O failures that return errors instead of panicking, and
//! full capture → save → load → restore round-trips of the collector's
//! checkpoint manifest.

use grca_collector::{
    frame, read_frame_at, Database, DurableStore, FeedRegistry, IngestStats, SeenLogRef,
    SegmentRecord, StorageConfig, StoreManifest, Table, MANIFEST_VERSION,
};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::Topology;
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca_telemetry::records::RawRecord;
use grca_types::Duration;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grca-durtest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_cfg(dir: &Path) -> StorageConfig {
    StorageConfig {
        segment_rows: 64,
        cache_segments: 2,
        spill_dir: Some(dir.to_path_buf()),
        durable: true,
    }
}

/// Every file in `dir`, by name, with its size.
fn listing(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_str().unwrap().to_string();
            (name, e.metadata().unwrap().len())
        })
        .collect()
}

/// The pack files in `dir`, by name.
fn packs(dir: &Path) -> Vec<String> {
    let mut packs: Vec<String> = listing(dir)
        .into_keys()
        .filter(|n| n.starts_with("grca-pack-"))
        .collect();
    packs.sort();
    packs
}

/// Every segment record of a manifest's tables.
fn records(tables: &[grca_collector::TableManifest]) -> Vec<SegmentRecord> {
    tables.iter().flat_map(|t| t.segments.clone()).collect()
}

/// Overwrite `bytes` at `offset` of the file at `path`, in place.
fn write_at(path: &Path, offset: u64, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

/// A torn segment frame (simulated mid-write crash / bit rot) is
/// detected via the frame checksum and quarantined — queries keep working
/// with the segment treated as rowless, `torn_blobs` counts it, and
/// nothing `expect`-panics.
#[test]
fn torn_spill_blob_is_quarantined_not_panicked() {
    let dir = temp_dir("torn");
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 7, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);

    let mut db = Database::with_storage(&durable_cfg(&dir));
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, &out.records, &mut stats);
    db.seal_all().expect("barrier");
    let rows_before = db.syslog.len();
    assert!(rows_before > 0, "scenario produced no syslog rows");
    let full: Vec<_> = db.syslog.all().iter().cloned().collect();

    // Corrupt the middle of one syslog segment's frame inside the pack:
    // the atomic rename keeps a torn write from ever carrying the final
    // name, so this simulates the harsher case of corruption under it.
    let manifests = db.segment_manifests().expect("durable backend");
    let syslog_segs = &manifests[0].segments;
    // More segments than the LRU holds, so the victim is re-read from
    // disk (not served from cache) after corruption.
    assert!(syslog_segs.len() > 2, "need >2 segments for this test");
    let victim = &syslog_segs[0];
    let path = dir.join(&victim.file);
    let mid = victim.offset + victim.len / 2;
    let mut byte = [0u8; 1];
    let mut f = std::fs::File::open(&path).unwrap();
    f.seek(SeekFrom::Start(mid)).unwrap();
    std::io::Read::read_exact(&mut f, &mut byte).unwrap();
    write_at(&path, mid, &[byte[0] ^ 0xff]);

    // Queries survive: the torn segment contributes no rows, everything
    // else is intact, and the torn read is counted.
    let after: Vec<_> = db.syslog.all().iter().cloned().collect();
    assert_eq!(after.len(), full.len() - victim.rows as usize);
    let stats = db.syslog.stats();
    assert_eq!(stats.torn_blobs, 1, "torn blob counted exactly once");

    // And a restore that references the torn segment fails loudly
    // (whole-restore error → cold start), never silently truncates.
    let mut db2 = Database::with_storage(&durable_cfg(&dir));
    let err = db2.restore_tables(&dir, &manifests).unwrap_err();
    assert!(err.contains("torn"), "unexpected restore error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// After a barrier, a durable table's pack survives table drop; an
/// ephemeral table's per-segment spill files are removed with it.
#[test]
fn durable_spill_files_survive_drop_ephemeral_ones_do_not() {
    for durable in [true, false] {
        let dir = temp_dir(if durable { "keep" } else { "ephem" });
        let topo = generate(&TopoGenConfig::small());
        let cfg = ScenarioConfig::new(1, 11, FaultRates::bgp_study());
        let out = run_scenario(&topo, &cfg);
        {
            let mut db = Database::with_storage(&StorageConfig {
                durable,
                ..durable_cfg(&dir)
            });
            let mut stats = IngestStats::default();
            db.ingest_more(&topo, &out.records, &mut stats);
            db.seal_all().expect("barrier");
            assert!(!listing(&dir).is_empty(), "the barrier left no file");
            assert_eq!(packs(&dir).len(), usize::from(durable));
        }
        let remaining = std::fs::read_dir(&dir).unwrap().count();
        if durable {
            assert_eq!(remaining, 1, "the durable pack must survive drop");
        } else {
            assert_eq!(remaining, 0, "ephemeral spill files must be removed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Full checkpoint round-trip: capture the barrier, save the manifest,
/// reload it in a "new process" (fresh objects), restore, and require
/// the restored collector to be logically identical — tables, counts,
/// watermarks, fingerprints (exercised via re-delivery dedup), floor.
#[test]
fn manifest_capture_restore_roundtrip_is_identical() {
    let dir = temp_dir("roundtrip");
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 13, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let scfg = durable_cfg(&dir);

    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    let mut registry = FeedRegistry::new();
    let (first, rest) = out.records.split_at(out.records.len() / 2);
    db.ingest_more(&topo, first, &mut stats);
    registry.observe_db(&db);
    // Age out a slice of history so the floor and fingerprint pruning
    // are part of the round-trip.
    let floor = db.feed_watermarks()[0].1.unwrap() - Duration::hours(20);
    db.retain_before(floor);

    let store = DurableStore::open(&dir).unwrap();
    let seen_log = store.persist_seen(&db, None).expect("persist seen log");
    let m = StoreManifest::capture(
        &mut db,
        &stats,
        &registry,
        3,
        42,
        Some("{}".to_string()),
        seen_log,
    )
    .expect("capture");
    store.save(&m).unwrap();
    store.gc(&m);

    let loaded = store.load().expect("manifest loads");
    assert_eq!(loaded, m);
    assert_eq!(loaded.cycle, 3);
    assert_eq!(loaded.next_seq, 42);
    let (mut rdb, rstats, rreg) = loaded.restore(&dir, &scfg).expect("restore");

    assert_eq!(rdb.row_counts(), db.row_counts());
    assert_eq!(rdb.feed_watermarks(), db.feed_watermarks());
    assert_eq!(rdb.retention_floor(), db.retention_floor());
    assert_eq!(rdb.ingest_epoch(), db.ingest_epoch());
    assert_eq!(rstats, stats);
    assert_eq!(rreg.export_seen(), registry.export_seen());
    assert_eq!(rdb.quarantine.len(), db.quarantine.len());
    // Query-identical row contents, per table (Table::PartialEq is
    // row-content equality, however the rows are split into segments).
    fn eq<R: grca_collector::StoredRow + PartialEq>(a: &Table<R>, b: &Table<R>) -> bool {
        a == b
    }
    assert!(eq(&rdb.syslog, &db.syslog));
    assert!(eq(&rdb.snmp, &db.snmp));
    assert!(eq(&rdb.bgp, &db.bgp));
    assert!(eq(&rdb.perf, &db.perf));

    // The fingerprint map survived: continuing ingest on both sides
    // (including a full re-delivery of `first`) stays identical.
    let mut rstats2 = rstats.clone();
    let mut stats2 = stats.clone();
    let mut replay: Vec<_> = first.to_vec();
    replay.extend(rest.iter().cloned());
    rdb.ingest_more(&topo, &replay, &mut rstats2);
    db.ingest_more(&topo, &replay, &mut stats2);
    assert_eq!(rstats2, stats2);
    assert_eq!(rdb.row_counts(), db.row_counts());
    assert!(
        rstats2.total_deduplicated() >= first.len() - stats.total_dropped(),
        "re-delivered records must dedup via the restored fingerprints"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The seen log of a version-2 store holds the two-pass SipHash
/// fingerprints; today's records hash to other numbers, so restoring it
/// would dedup nothing and remember garbage. Such a store is refused whole
/// — `load` reads it as a cold start, `restore` as an error — and the very
/// same barrier under today's version restores.
#[test]
fn version_2_manifest_is_a_cold_start_never_a_restore() {
    let dir = temp_dir("v2");
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 17, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let scfg = durable_cfg(&dir);
    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, &out.records, &mut stats);
    let store = DurableStore::open(&dir).unwrap();
    let seen_log = store.persist_seen(&db, None).expect("persist seen log");
    assert!(seen_log.entries > 0);
    let registry = FeedRegistry::new();
    let current =
        StoreManifest::capture(&mut db, &stats, &registry, 1, 0, None, seen_log).expect("capture");
    assert_eq!(current.version, MANIFEST_VERSION);
    assert_eq!(MANIFEST_VERSION, 4);

    let old = StoreManifest {
        version: 2,
        ..current.clone()
    };
    store.save(&old).unwrap();
    assert_eq!(store.load(), None, "a version-2 manifest must cold-start");
    let err = old.restore(&dir, &scfg).unwrap_err();
    assert!(err.contains("version 2"), "unexpected refusal: {err}");

    store.save(&current).unwrap();
    let loaded = store.load().expect("today's version loads");
    let (rdb, rstats, _) = loaded.restore(&dir, &scfg).expect("and restores");
    assert_eq!(rdb.row_counts(), db.row_counts());
    assert_eq!(rstats, stats);
    std::fs::remove_dir_all(&dir).ok();
}

/// A segment sealed before rows carried their record's fingerprint
/// (segment version 1) cannot be decoded into today's rows: nothing in it
/// says how its same-instant rows order against new ones. A checkpoint
/// whose blobs are all intact but of that version is refused whole, with
/// the reason — what the pipeline's restore reports as its cold start —
/// and never restores with rows missing.
#[test]
fn version_1_segments_are_a_cold_start_with_a_reason() {
    let dir = temp_dir("segv1");
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 19, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);
    let scfg = durable_cfg(&dir);
    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, &out.records, &mut stats);
    let store = DurableStore::open(&dir).unwrap();
    let seen_log = store.persist_seen(&db, None).expect("persist seen log");
    let registry = FeedRegistry::new();
    let m =
        StoreManifest::capture(&mut db, &stats, &registry, 1, 0, None, seen_log).expect("capture");
    store.save(&m).unwrap();
    let (rdb, _, _) = store
        .load()
        .unwrap()
        .restore(&dir, &scfg)
        .expect("today's blobs restore");
    assert_eq!(rdb.row_counts(), db.row_counts());

    // Stamp every segment with the parent format's version byte inside
    // its pack, re-framed so the checksums hold: only the version tells
    // the two formats apart.
    let segs = records(&m.tables);
    assert!(segs.len() > 1, "too few segments sealed");
    for seg in &segs {
        let path = dir.join(&seg.file);
        let mut blob = read_frame_at(&path, seg.offset, seg.len).unwrap();
        assert_eq!(blob[0], 2, "today's segments are version 2");
        blob[0] = 1;
        let framed = frame(&blob);
        assert_eq!(framed.len() as u64, seg.len);
        write_at(&path, seg.offset, &framed);
    }
    let loaded = store.load().expect("the manifest itself is intact");
    let err = loaded.restore(&dir, &scfg).map(|_| ()).unwrap_err();
    assert!(
        err.contains("unknown segment version 1"),
        "unexpected refusal: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A two-day scenario's topology and records.
fn scenario(seed: u64) -> (Topology, Vec<RawRecord>) {
    let topo = generate(&TopoGenConfig::small());
    let out = run_scenario(
        &topo,
        &ScenarioConfig::new(2, seed, FaultRates::bgp_study()),
    );
    (topo, out.records)
}

/// Persist the seen log, capture the barrier, save the manifest and
/// collect garbage: the collector's half of a pipeline checkpoint.
fn checkpoint(
    store: &DurableStore,
    db: &mut Database,
    stats: &IngestStats,
    prev: Option<&SeenLogRef>,
) -> StoreManifest {
    let seen_log = store.persist_seen(db, prev).expect("persist seen log");
    let m = StoreManifest::capture(db, stats, &FeedRegistry::new(), 1, 0, None, seen_log)
        .expect("capture");
    store.save(&m).unwrap();
    store.gc(&m);
    m
}

/// A segment sealed after one barrier and retired (here by retention)
/// before the next is never written: the second barrier's pack holds
/// exactly the segments live at it.
#[test]
fn segments_retired_between_barriers_never_reach_the_store() {
    let dir = temp_dir("retired");
    let (topo, recs) = scenario(23);
    let (first, rest) = recs.split_at(recs.len() / 2);
    let mut db = Database::with_storage(&durable_cfg(&dir));
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, first, &mut stats);
    db.seal_all().expect("first barrier");
    let first_pack = packs(&dir);
    assert_eq!(first_pack.len(), 1);

    db.ingest_more(&topo, rest, &mut stats);
    let between = db.storage_stats().unwrap();
    assert!(between.encoded_bytes > 0, "nothing sealed between barriers");
    // Age out every sealed segment, persisted or not; the tails stay.
    let newest = db.feed_watermarks().iter().filter_map(|w| w.1).max();
    db.retain_before(newest.unwrap() + Duration::hours(1));
    let retired = db.storage_stats().unwrap();
    assert_eq!(retired.sealed_segments, 0);
    assert!(retired.tail_rows > 0);

    db.seal_all().expect("second barrier");
    let segs = records(&db.segment_manifests().unwrap());
    assert!(!segs.is_empty());
    let files = listing(&dir);
    assert_eq!(files.len(), 2, "two packs and nothing else: {files:?}");
    let second = packs(&dir).into_iter().find(|p| *p != first_pack[0]);
    let second = second.expect("a second pack");
    assert!(segs.iter().all(|s| s.file == second));
    assert_eq!(files[&second], segs.iter().map(|s| s.len).sum::<u64>());
    std::fs::remove_dir_all(&dir).ok();
}

/// Each barrier writes one pack, however many segments it persists, and
/// a barrier with nothing new to persist writes none.
#[test]
fn one_barrier_adds_exactly_one_pack() {
    let dir = temp_dir("onepack");
    let (topo, recs) = scenario(29);
    let mut db = Database::with_storage(&durable_cfg(&dir));
    let mut stats = IngestStats::default();
    let mut persisted = Vec::new();
    for (k, chunk) in recs.chunks(recs.len() / 4 + 1).enumerate() {
        let before = packs(&dir);
        db.ingest_more(&topo, chunk, &mut stats);
        db.seal_all().expect("barrier");
        let after = packs(&dir);
        assert_eq!(after.len(), k + 1, "barrier {k} wrote {after:?}");
        let new = after.iter().find(|p| !before.contains(p)).unwrap();
        let segs = records(&db.segment_manifests().unwrap());
        persisted.push(segs.iter().filter(|s| &s.file == new).count());
        db.seal_all().expect("idle barrier");
        assert_eq!(packs(&dir), after, "an idle barrier wrote a pack");
    }
    assert!(persisted.iter().all(|&n| n > 0));
    assert!(persisted.iter().any(|&n| n > 10), "{persisted:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A restore adopts the manifest's segments where they lie: the store's
/// listing (names and sizes) is unchanged by it, and the next barrier's
/// pack holds only segments sealed after the restore, while every other
/// segment keeps its place.
#[test]
fn restore_writes_nothing_and_the_next_barrier_packs_only_new_seals() {
    let dir = temp_dir("adopt");
    let (topo, recs) = scenario(31);
    let (first, rest) = recs.split_at(recs.len() / 2);
    let scfg = durable_cfg(&dir);
    let store = DurableStore::open(&dir).unwrap();
    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, first, &mut stats);
    let m = checkpoint(&store, &mut db, &stats, None);

    let before = listing(&dir);
    let loaded = store.load().expect("manifest loads");
    let (mut rdb, mut rstats, _) = loaded.restore(&dir, &scfg).expect("restore");
    assert_eq!(listing(&dir), before, "a restore wrote to the store");
    assert!(rdb == db, "the restored database differs");
    assert_eq!(rdb.segment_manifests().unwrap(), m.tables);

    rdb.ingest_more(&topo, rest, &mut rstats);
    let m2 = checkpoint(&store, &mut rdb, &rstats, Some(&m.seen_log));
    let old = records(&m.tables);
    let new_packs: Vec<String> = packs(&dir)
        .into_iter()
        .filter(|p| !before.contains_key(p))
        .collect();
    assert_eq!(new_packs.len(), 1, "{new_packs:?}");
    let (mut kept, mut packed) = (0, 0);
    for seg in records(&m2.tables) {
        if old.contains(&seg) {
            kept += 1;
        } else {
            assert_eq!(seg.file, new_packs[0], "{seg:?} moved");
            packed += seg.len;
        }
    }
    assert!(kept > 0, "no restored segment kept its place");
    assert_eq!(listing(&dir)[&new_packs[0]], packed);
    std::fs::remove_dir_all(&dir).ok();
}

/// `gc` keeps a pack while one segment of the manifest names it, and
/// removes it once none does.
#[test]
fn gc_drops_a_pack_no_segment_names_and_keeps_one_a_segment_does() {
    let dir = temp_dir("gcpack");
    let (topo, recs) = scenario(37);
    let (first, rest) = recs.split_at(recs.len() / 2);
    let store = DurableStore::open(&dir).unwrap();
    let mut db = Database::with_storage(&durable_cfg(&dir));
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, first, &mut stats);
    let m1 = checkpoint(&store, &mut db, &stats, None);
    db.ingest_more(&topo, rest, &mut stats);
    let m2 = checkpoint(&store, &mut db, &stats, Some(&m1.seen_log));
    let oldest = records(&m1.tables)[0].file.clone();
    let in_oldest: Vec<SegmentRecord> = records(&m2.tables)
        .into_iter()
        .filter(|s| s.file == oldest)
        .collect();
    assert!(in_oldest.len() > 1, "the second barrier retired the first");
    assert_eq!(packs(&dir).len(), 2);

    let keeping = |keep: &dyn Fn(&SegmentRecord) -> bool| {
        let mut m = m2.clone();
        for t in &mut m.tables {
            t.segments.retain(|s| s.file != oldest || keep(s));
        }
        m
    };
    store.gc(&keeping(&|s| *s == in_oldest[0]));
    assert_eq!(packs(&dir).len(), 2, "a pack with one live segment went");
    store.gc(&keeping(&|_| false));
    assert_eq!(packs(&dir).len(), 1);
    assert!(!dir.join(&oldest).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A version-3 manifest names a file per segment, which this build no
/// longer writes or reads: it is a cold start, and says so.
#[test]
fn version_3_manifest_is_refused_with_its_reason() {
    let dir = temp_dir("v3");
    let (topo, recs) = scenario(41);
    let scfg = durable_cfg(&dir);
    let store = DurableStore::open(&dir).unwrap();
    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, &recs, &mut stats);
    let current = checkpoint(&store, &mut db, &stats, None);
    let old = StoreManifest {
        version: 3,
        ..current.clone()
    };
    store.save(&old).unwrap();
    std::fs::remove_file(store.prev_path()).unwrap();
    assert_eq!(store.load(), None, "a version-3 manifest must cold-start");
    let why = store.load_explained().unwrap_err();
    assert!(
        why.contains("manifest version 3"),
        "unexpected reason: {why}"
    );
    let err = old.restore(&dir, &scfg).map(|_| ()).unwrap_err();
    assert!(err.contains("version 3"), "unexpected refusal: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pack names come from a store-wide generation, not from a process id
/// and a counter a restarted process would start again: a database built
/// before the store held any pack (so it would mint the very names the
/// first incarnation went on to write), and a restore followed by a
/// barrier, both leave every file the manifest relies on byte-identical.
#[test]
fn a_restart_never_overwrites_a_file_the_manifest_names() {
    let dir = temp_dir("names");
    let (topo, recs) = scenario(43);
    let (first, rest) = recs.split_at(recs.len() / 2);
    let scfg = durable_cfg(&dir);
    let store = DurableStore::open(&dir).unwrap();
    let mut stale = Database::with_storage(&scfg);
    let mut db = Database::with_storage(&scfg);
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, first, &mut stats);
    checkpoint(&store, &mut db, &stats, None);
    let files: BTreeMap<String, Vec<u8>> = listing(&dir)
        .into_keys()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    assert_eq!(packs(&dir).len(), 1);

    let loaded = store.load().expect("manifest loads");
    let (mut rdb, mut rstats, _) = loaded.restore(&dir, &scfg).expect("restore");
    rdb.ingest_more(&topo, rest, &mut rstats);
    rdb.seal_all().expect("barrier after restore");
    stale.ingest_more(&topo, rest, &mut IngestStats::default());
    stale.seal_all().expect("barrier of the stale database");
    for (name, bytes) in &files {
        assert_eq!(&std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
    }
    assert_eq!(packs(&dir).len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A spill directory that cannot be created (here: a regular file) is an
/// I/O failure, never a panic. An ephemeral table keeps each blob it
/// could not write resident and counts it; a durable barrier returns the
/// error, naming the path and the OS error, and keeps its blobs resident.
#[test]
fn a_spill_dir_that_is_a_file_fails_without_a_panic() {
    let dir = temp_dir("notadir");
    let plain_file = dir.join("plain");
    std::fs::write(&plain_file, b"x").unwrap();
    let (topo, recs) = scenario(47);
    let (reference, _) = Database::ingest(&topo, &recs);

    let mut ephemeral = Database::with_storage(&StorageConfig {
        spill_dir: Some(plain_file.clone()),
        durable: false,
        ..durable_cfg(&dir)
    });
    ephemeral.ingest_more(&topo, &recs, &mut IngestStats::default());
    let st = ephemeral.storage_stats().unwrap();
    assert!(st.sealed_segments > 0);
    assert_eq!(st.spill_failures as usize, st.sealed_segments);
    assert_eq!(st.spilled_bytes, 0);
    assert_eq!(ephemeral.row_counts(), reference.row_counts());
    assert!(ephemeral.syslog == reference.syslog);

    let mut durable = Database::with_storage(&StorageConfig {
        spill_dir: Some(plain_file.clone()),
        ..durable_cfg(&dir)
    });
    let mut stats = IngestStats::default();
    durable.ingest_more(&topo, &recs, &mut stats);
    let registry = FeedRegistry::new();
    let capture = StoreManifest::capture(
        &mut durable,
        &stats,
        &registry,
        1,
        0,
        None,
        SeenLogRef::empty(),
    );
    let err = capture.map(|_| ()).unwrap_err();
    let path = plain_file.display().to_string();
    assert!(err.contains(&path) && err.contains("os error"), "{err}");
    let st = durable.storage_stats().unwrap();
    assert_eq!(st.tail_rows, 0, "the barrier sealed every tail");
    assert!(st.encoded_bytes > 0 && st.spilled_bytes == 0);
    assert!(durable.syslog == reference.syslog);
    assert_eq!(std::fs::read(&plain_file).unwrap(), b"x");
    std::fs::remove_dir_all(&dir).ok();
}
