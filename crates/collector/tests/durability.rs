//! Durability regression tests: crash-safe spill writes, torn-blob
//! quarantine (satellite of ISSUE 10), and full capture → save → load →
//! restore round-trips of the collector's checkpoint manifest.

use grca_collector::{
    frame, read_framed, write_atomic, Database, DurableStore, FeedRegistry, IngestStats,
    StorageConfig, StoreManifest, Table, MANIFEST_VERSION,
};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca_types::Duration;
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

/// Satellite regression: a torn spill file (simulated mid-write crash /
/// bit rot) is detected via the frame checksum and quarantined — queries
/// keep working with the segment treated as rowless, `torn_blobs` counts
/// it, and nothing `expect`-panics.
#[test]
fn torn_spill_blob_is_quarantined_not_panicked() {
    let dir = temp_dir("torn");
    let topo = generate(&TopoGenConfig::small());
    let cfg = ScenarioConfig::new(1, 7, FaultRates::bgp_study());
    let out = run_scenario(&topo, &cfg);

    let mut db = Database::with_storage(&durable_cfg(&dir));
    let mut stats = IngestStats::default();
    db.ingest_more(&topo, &out.records, &mut stats);
    db.seal_all();
    let rows_before = db.syslog.len();
    assert!(rows_before > 0, "scenario produced no syslog rows");
    let full: Vec<_> = db.syslog.all().iter().cloned().collect();

    // Truncate every syslog segment file mid-frame: the classic torn
    // write a crash between `write` and `fsync` can leave behind would
    // be caught by the atomic-rename protocol; simulate the harsher
    // case of corruption under the final name.
    let manifests = db.segment_manifests().expect("durable backend");
    let syslog_segs = &manifests[0].segments;
    // More segments than the LRU holds, so the victim is re-read from
    // disk (not served from cache) after corruption.
    assert!(syslog_segs.len() > 2, "need >2 segments for this test");
    let victim = &syslog_segs[0];
    let path = dir.join(&victim.file);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

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

/// Durable spill files survive table drop (unlike the ephemeral default,
/// which removes them).
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
            db.seal_all();
        }
        let remaining = std::fs::read_dir(&dir).unwrap().count();
        if durable {
            assert!(remaining > 0, "durable spill files must survive drop");
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
    assert_eq!(MANIFEST_VERSION, 3);

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

    // Stamp every blob with the parent format's version byte, re-framed so
    // the checksums hold: only the version tells the two formats apart.
    let files: Vec<&str> = m
        .tables
        .iter()
        .flat_map(|t| &t.segments)
        .map(|s| s.file.as_str())
        .collect();
    assert!(files.len() > 1, "too few segments sealed");
    for file in &files {
        let path = dir.join(file);
        let mut blob = read_framed(&path).unwrap();
        assert_eq!(blob[0], 2, "today's segments are version 2");
        blob[0] = 1;
        write_atomic(&path, &frame(&blob), false).unwrap();
    }
    let loaded = store.load().expect("the manifest itself is intact");
    let err = loaded.restore(&dir, &scfg).map(|_| ()).unwrap_err();
    assert!(
        err.contains("unknown segment version 1"),
        "unexpected refusal: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
