//! Storage-backend differential: extraction over a database on the
//! segmented columnar backend must be *store-identical* to extraction over
//! the flat `Vec` baseline — every retrieval process reads through the
//! storage facade (range cuts, per-entity reads, full scans), so any
//! divergence in segment sealing, reseals on late rows, decode caching, or
//! zone-map pruning would surface here as a differing event instance.
//!
//! The same holds for the incremental extractor, which reads a segmented
//! table as its sealed runs and keeps what each run contributed under the
//! run's id: fed the stream in chunks — through reseals, retention and
//! checkpoint barriers, then handed other databases altogether — its store
//! must equal batch extraction over the same database every cycle.

use grca_collector::{
    Database, DurableStore, FeedRegistry, IngestStats, StorageConfig, StoreManifest,
};
use grca_events::{
    bgp_app_events, cdn_app_events, extract_all, extract_all_baseline, knowledge_library, names,
    pim_app_events, EventDefinition, ExtractCx, IncrementalExtractor, Retrieval,
};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{LocationType, RouteOracle, Topology};
use grca_routing::{OspfState, RoutingState, WeightEvent};
use grca_simnet::{FaultRates, ScenarioConfig};
use grca_telemetry::records::{BgpMonRecord, OspfMonRecord, RawRecord, SyslogLine};
use grca_telemetry::syslog::SyslogEvent;
use grca_types::{Duration, Timestamp};
use rand::{Rng, SeedableRng, StdRng};

/// Rebuild routing state from the collected monitor feeds (through the
/// storage facade, so this too is exercised per backend).
fn routing_from_db<'a>(topo: &'a Topology, db: &Database) -> RoutingState<'a> {
    let weights: Vec<WeightEvent> = db
        .ospf
        .all()
        .iter()
        .map(|r| WeightEvent {
            time: r.utc,
            link: r.link,
            weight: r.weight,
        })
        .collect();
    let ospf = OspfState::new(topo, weights);
    let baseline = topo
        .ext_nets
        .iter()
        .flat_map(|n| {
            n.egress_candidates
                .iter()
                .map(|&e| (n.prefix, e, grca_routing::RouteAttrs::default()))
        })
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let updates = db
        .bgp
        .all()
        .iter()
        .filter(|r| seen.insert((r.utc, r.prefix, r.egress, r.attrs)))
        .map(|r| grca_routing::BgpUpdate {
            time: r.utc,
            prefix: r.prefix,
            egress: r.egress,
            attrs: r.attrs.map(|(lp, asl)| grca_routing::RouteAttrs {
                local_pref: lp,
                as_path_len: asl,
            }),
        })
        .collect();
    let bgp = grca_routing::BgpState::new(baseline, updates);
    RoutingState::new(topo, ospf, bgp)
}

#[test]
fn extraction_identical_across_storage_backends() {
    for (rates, days) in [
        (FaultRates::bgp_study(), 3),
        (FaultRates::cdn_study(), 4),
        (FaultRates::pim_study(), 3),
    ] {
        let topo = generate(&TopoGenConfig::small());
        let mut cfg = ScenarioConfig::new(days, 17, rates);
        cfg.background.emit_baseline = true;
        let out = grca_simnet::run_scenario(&topo, &cfg);

        let (flat_db, stats) = Database::ingest(&topo, &out.records);
        assert_eq!(stats.total_dropped(), 0, "{}", stats.render());
        // Tiny segments + tiny cache: every table seals many segments and
        // queries constantly churn the decode cache.
        let mut seg_db = Database::with_storage(&StorageConfig {
            segment_rows: 128,
            cache_segments: 2,
            spill_dir: None,
            durable: false,
        });
        let mut seg_stats = IngestStats::default();
        seg_db.ingest_more(&topo, &out.records, &mut seg_stats);
        assert_eq!(seg_stats.total_dropped(), 0, "{}", seg_stats.render());
        assert_eq!(flat_db.row_counts(), seg_db.row_counts());
        assert!(
            seg_db.storage_stats().unwrap().sealed_segments > 0,
            "segmented database sealed nothing — test exercises nothing"
        );

        let ingresses: Vec<_> = topo.cdn_nodes.iter().map(|n| n.attach_router).collect();
        let mut defs = knowledge_library();
        defs.extend(bgp_app_events());
        defs.extend(cdn_app_events(ingresses));
        defs.extend(pim_app_events());

        let flat_routing = routing_from_db(&topo, &flat_db);
        let flat_cx = ExtractCx::new(&topo, &flat_db, Some(&flat_routing));
        let flat_store = extract_all(&defs, &flat_cx);

        let seg_routing = routing_from_db(&topo, &seg_db);
        let seg_cx = ExtractCx::new(&topo, &seg_db, Some(&seg_routing));
        let seg_store = extract_all(&defs, &seg_cx);

        assert_eq!(flat_store.total(), seg_store.total());
        assert!(
            flat_store == seg_store,
            "extraction diverges across storage backends"
        );
    }
}

/// Every definition of the three studies, egress changes emulated at the
/// CDN attachment routers.
fn all_defs(topo: &Topology) -> Vec<EventDefinition> {
    let ingresses: Vec<_> = topo.cdn_nodes.iter().map(|n| n.attach_router).collect();
    let mut defs = knowledge_library();
    defs.extend(bgp_app_events());
    defs.extend(cdn_app_events(ingresses));
    defs.extend(pim_app_events());
    defs
}

/// One cycle's contract: the incremental store equals batch extraction
/// over the database as it stands.
fn assert_cycle(
    inc: &mut IncrementalExtractor,
    defs: &[EventDefinition],
    topo: &Topology,
    db: &Database,
    what: &str,
) {
    let routing = routing_from_db(topo, db);
    let cx = ExtractCx::new(topo, db, Some(&routing));
    assert!(
        inc.extract(&cx) == extract_all(defs, &cx),
        "incremental store diverged from batch: {what}"
    );
}

/// One `IncrementalExtractor` over a 64-row-segment database, fed each
/// study's stream in uneven chunks — with an early slice held back and
/// delivered shuffled once later rows have sealed over its time range
/// (reseals), `retain_before` dropping sealed runs mid-stream, and
/// `seal_all` barriers — equal to batch extraction **every cycle**. Then
/// the same extractor is handed a fresh database, a clone that goes its own
/// way, and a manifest-restored one: its memo is keyed by run id, so this
/// fails if ids are not unique across databases (per-table counters
/// starting at 0 hand the fresh database the ids the memo already holds).
#[test]
fn incremental_matches_batch_over_segmented_storage_every_cycle() {
    for (tag, rates, days) in [
        ("bgp", FaultRates::bgp_study(), 3),
        ("cdn", FaultRates::cdn_study(), 4),
        ("pim", FaultRates::pim_study(), 3),
    ] {
        let topo = generate(&TopoGenConfig::small());
        let mut cfg = ScenarioConfig::new(days, 29, rates);
        cfg.background.emit_baseline = true;
        let mut records = grca_simnet::run_scenario(&topo, &cfg).records;
        let dir = std::env::temp_dir().join(format!("grca-memo-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let storage = StorageConfig {
            segment_rows: 64,
            cache_segments: 2,
            spill_dir: Some(dir.clone()),
            durable: true,
        };

        // The schedule: the last few records wait for the clone step; an
        // early slice is delivered late, shuffled; the rest in order, cut
        // unevenly.
        let n = records.len();
        let spare = records.split_off(n - n / 30);
        let mut late: Vec<RawRecord> = records.drain(n / 8..n / 8 + n / 25).collect();
        let mut rng = StdRng::seed_from_u64(7);
        for i in (1..late.len()).rev() {
            late.swap(i, rng.random_range(0..=i));
        }
        let n = records.len();
        let cuts = [0, 3, 10, 14, 30, 33, 50, 58, 75, 80, 97, 100].map(|pct| n * pct / 100);

        let defs = all_defs(&topo);
        let mut inc = IncrementalExtractor::new(defs.clone());
        let mut db = Database::with_storage(&storage);
        let mut stats = IngestStats::default();
        for (cycle, w) in cuts.windows(2).enumerate() {
            db.ingest_more(&topo, &records[w[0]..w[1]], &mut stats);
            assert_cycle(&mut inc, &defs, &topo, &db, &format!("{tag} cycle {cycle}"));
            match cycle {
                // Barriers: everything sealed, the next rows start a tail.
                3 | 8 => db.seal_all(),
                5 => {
                    db.ingest_more(&topo, &late, &mut stats);
                    assert_cycle(&mut inc, &defs, &topo, &db, &format!("{tag} late slice"));
                }
                6 => {
                    let dropped = db.retain_before(cfg.start + Duration::hours(20));
                    assert!(dropped > 0, "retention dropped nothing");
                    assert_cycle(&mut inc, &defs, &topo, &db, &format!("{tag} retention"));
                }
                _ => {}
            }
        }
        let st = db.storage_stats().unwrap();
        assert!(st.reseals > 0, "the late slice forced no reseal");
        assert!(st.dropped_segments > 0, "retention dropped no sealed run");
        assert!(inc.delta_passes() > 0 && inc.full_passes() > 1);
        let (entries, _) = inc.memo_size();
        assert_eq!(
            entries, st.sealed_segments,
            "one memo entry per sealed run of a table some definition reads (here: all)"
        );

        // A fresh database: the stream ingested in one piece seals other
        // runs (no reseal, no retention), as many as the first ever minted.
        let mut fresh = Database::with_storage(&StorageConfig {
            spill_dir: None,
            durable: false,
            ..storage.clone()
        });
        fresh.ingest_more(&topo, &records, &mut IngestStats::default());
        assert_cycle(
            &mut inc,
            &defs,
            &topo,
            &fresh,
            &format!("{tag} fresh database"),
        );
        assert_cycle(
            &mut inc,
            &defs,
            &topo,
            &db,
            &format!("{tag} back to the first"),
        );

        // A clone shares the runs it was born with and seals its own.
        let mut twin = db.clone();
        let (a, b) = spare.split_at(spare.len() / 2);
        twin.ingest_more(&topo, a, &mut stats.clone());
        twin.seal_all();
        db.ingest_more(&topo, b, &mut stats);
        db.seal_all();
        assert_cycle(&mut inc, &defs, &topo, &twin, &format!("{tag} clone"));
        assert_cycle(
            &mut inc,
            &defs,
            &topo,
            &db,
            &format!("{tag} original after clone"),
        );

        // A database restored from a checkpoint manifest.
        let store = DurableStore::open(&dir).unwrap();
        let seen_log = store.persist_seen(&db, None).expect("persist seen log");
        let mut registry = FeedRegistry::new();
        registry.observe_db(&db);
        let manifest = StoreManifest::capture(&mut db, &stats, &registry, 0, 0, None, seen_log)
            .expect("capture");
        let (mut restored, mut rstats, _) = manifest.restore(&dir, &storage).expect("restore");
        assert_eq!(restored.row_counts(), db.row_counts());
        assert_cycle(
            &mut inc,
            &defs,
            &topo,
            &restored,
            &format!("{tag} restored"),
        );
        restored.ingest_more(&topo, a, &mut rstats);
        assert_cycle(
            &mut inc,
            &defs,
            &topo,
            &restored,
            &format!("{tag} restored, grown"),
        );

        drop((db, twin, restored));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Tiny segments, so a handful of hand-built rows spans several sealed runs.
fn four_row_segments() -> Database {
    Database::with_storage(&StorageConfig {
        segment_rows: 4,
        cache_segments: 2,
        spill_dir: None,
        durable: false,
    })
}

/// Whether a weight update costs a link *in* depends on the link having
/// been costed out before it. With the cost-out in one sealed run and the
/// cost-in in the next, a collect that tracked link state per run would
/// miss the cost-in (an unseen link counts as alive): the alive-state
/// trajectory has to be replayed at finish, across the runs in order.
#[test]
fn link_cost_out_and_cost_in_in_different_sealed_runs() {
    let topo = generate(&TopoGenConfig::small());
    let addr = |k: usize| topo.interface(topo.links[k].a).ip.expect("numbered link");
    let t0 = Timestamp::from_civil(2010, 1, 2, 0, 0, 0);
    // Link 0 goes out in row 1 and comes back in row 6; other links' plain
    // weight changes fill the rows around them.
    let recs: Vec<RawRecord> = (0..12)
        .map(|i| {
            let (k, weight) = match i {
                1 => (0, None),
                6 => (0, Some(10)),
                _ => (1 + i % 3, Some(10 + i as u32)),
            };
            RawRecord::OspfMon(OspfMonRecord {
                utc: t0 + Duration::mins(i as i64),
                link_addr: addr(k),
                weight,
            })
        })
        .collect();
    let mut db = four_row_segments();
    db.ingest_more(&topo, &recs, &mut IngestStats::default());
    db.seal_all();
    let link0 = topo.link_by_slash30(addr(0)).unwrap();
    let (sealed, _) = db.ospf.runs();
    let run_of = |alive: bool| {
        sealed
            .iter()
            .position(|run| {
                run.rows()
                    .iter()
                    .any(|r| r.link == link0 && r.weight.is_some() == alive)
            })
            .unwrap()
    };
    assert!(run_of(false) < run_of(true), "both rows sealed in one run");

    let defs = knowledge_library();
    let cx = ExtractCx::new(&topo, &db, None);
    let want = extract_all_baseline(&defs, &cx);
    assert_eq!(want.instances(names::LINK_COST_OUT_DOWN).len(), 1);
    assert_eq!(want.instances(names::LINK_COST_IN_UP).len(), 1);
    let mut inc = IncrementalExtractor::new(defs);
    assert!(inc.extract(&cx) == want, "first pass (every run collected)");
    assert!(inc.extract(&cx) == want, "second pass (every run memoized)");
}

/// Two reflectors report one update; the copies are adjacent rows, the
/// seal boundary falls between them. A dedup set kept per run would count
/// the update twice and emit every egress change twice: the dedup has to
/// run at finish, across the runs in order.
#[test]
fn reflector_duplicate_straddling_a_seal_boundary() {
    let topo = generate(&TopoGenConfig::small());
    let nets: Vec<_> = topo
        .ext_nets
        .iter()
        .filter(|n| n.egress_candidates.len() >= 2)
        .collect();
    let ingress = topo
        .cdn_node(grca_net_model::CdnNodeId::new(0))
        .attach_router;
    let base = RoutingState::baseline(&topo);
    let best_of = |k: usize| {
        let best = base.egress_for(ingress, nets[k].prefix, Timestamp(0));
        topo.router(best.unwrap()).name.clone()
    };
    let t0 = Timestamp::from_civil(2010, 1, 2, 0, 0, 0);
    let update = |mins: i64, reflector: &str, k: usize, attrs| {
        RawRecord::BgpMon(BgpMonRecord {
            utc: t0 + Duration::mins(mins),
            reflector: reflector.into(),
            prefix: nets[k].prefix,
            egress_router: best_of(k).into(),
            attrs,
        })
    };
    // Rows 3 and 4 (of 10, in time order) are the two copies of the
    // withdrawal of net 0's best egress; four rows seal per run.
    let mut recs: Vec<RawRecord> = (0..3)
        .map(|i| update(i, "rr1", 1, Some((100, 3))))
        .collect();
    recs.push(update(10, "rr1", 0, None));
    recs.push(update(10, "rr2", 0, None));
    recs.extend((11..16).map(|i| update(i, "rr1", 1, Some((100, 3)))));
    let mut db = four_row_segments();
    db.ingest_more(&topo, &recs, &mut IngestStats::default());
    db.seal_all();
    let (sealed, _) = db.bgp.runs();
    let holding: Vec<usize> = (0..sealed.len())
        .filter(|&i| sealed[i].rows().iter().any(|r| r.attrs.is_none()))
        .collect();
    assert_eq!(holding.len(), 2, "the copies sealed into one run");

    let def = EventDefinition::new(
        names::BGP_EGRESS_CHANGE,
        LocationType::IngressDestination,
        Retrieval::BgpEgressChange {
            ingresses: vec![ingress],
        },
        "test",
        "bgp monitor",
    );
    let defs = vec![def];
    let routing = routing_from_db(&topo, &db);
    let cx = ExtractCx::new(&topo, &db, Some(&routing));
    let want = extract_all_baseline(&defs, &cx);
    let withdrawals = want
        .instances(names::BGP_EGRESS_CHANGE)
        .iter()
        .filter(|i| i.window.start == t0 + Duration::mins(10))
        .count();
    assert_eq!(withdrawals, 1, "one update, one egress change");
    let mut inc = IncrementalExtractor::new(defs);
    assert!(inc.extract(&cx) == want, "first pass (every run collected)");
    assert!(inc.extract(&cx) == want, "second pass (every run memoized)");
}

/// One interface goes down and comes up at one instant, and the seal
/// boundary falls between the two rows. Rows at one instant sort by
/// tiebreak, so either can be the last row of the first run; the collects
/// sort each run's transitions by (interface, instant, up), but when the up
/// row is the earlier one the interface's runs meet up-then-down and the
/// finish must sort them before pairing, or the flap is lost. Both ways
/// round, the memoized incremental store equals batch every cycle.
#[test]
fn same_instant_down_and_up_straddling_a_seal_boundary() {
    let topo = generate(&TopoGenConfig::small());
    let t = Timestamp::from_civil(2010, 1, 2, 0, 0, 0);
    let line = |iface: &grca_net_model::Interface, at: Timestamp, ev: SyslogEvent| {
        let router = iface.router;
        RawRecord::Syslog(SyslogLine {
            host: topo.router(router).name.to_lowercase().into(),
            line: ev.format_line(topo.router_tz(router).to_local(at)),
        })
    };
    let updown = |iface: &grca_net_model::Interface, up: bool| {
        let name = iface.name.clone();
        line(iface, t, SyslogEvent::LinkUpDown { iface: name, up })
    };
    // The first interface whose up row sorts before / after its down row.
    let first_up = |iface: &&grca_net_model::Interface| {
        let (db, _) = Database::ingest(&topo, &[updown(iface, false), updown(iface, true)]);
        let first = &db.syslog.all()[0];
        matches!(first.event, Some(SyslogEvent::LinkUpDown { up: true, .. }))
    };
    let up_first = topo.interfaces.iter().find(first_up).unwrap();
    let down_first = topo.interfaces.iter().find(|i| !first_up(i)).unwrap();

    let defs = knowledge_library();
    for (iface, up) in [(up_first, true), (down_first, false)] {
        let what = if up { "up row first" } else { "down row first" };
        // Three earlier rows, the pair, four later ones: with four-row
        // segments the pair straddles the first seal.
        let filler = |mins: i64| line(iface, t + Duration::mins(mins), SyslogEvent::Restart);
        let mut recs: Vec<RawRecord> = (-3..0).map(filler).collect();
        recs.extend([updown(iface, false), updown(iface, true)]);
        recs.extend((1..5).map(filler));

        let (mut db, mut stats) = (four_row_segments(), IngestStats::default());
        let mut inc = IncrementalExtractor::new(defs.clone());
        for (cycle, rec) in recs.chunks(1).enumerate() {
            db.ingest_more(&topo, rec, &mut stats);
            let cycle = format!("{what}, cycle {cycle}");
            assert_cycle(&mut inc, &defs, &topo, &db, &cycle);
        }
        db.seal_all();
        let (sealed, _) = db.syslog.runs();
        let (first, next) = (sealed[0].rows(), sealed[1].rows());
        let at_t = |row: &grca_collector::SyslogRow| match row.event {
            Some(SyslogEvent::LinkUpDown { up, .. }) if row.utc == t => up,
            _ => panic!("{what}: the pair does not straddle the seal"),
        };
        assert_eq!((first.len(), at_t(&first[3]), at_t(&next[0])), (4, up, !up));
        assert_cycle(&mut inc, &defs, &topo, &db, &format!("{what}, all sealed"));
        assert_cycle(&mut inc, &defs, &topo, &db, &format!("{what}, memoized"));
        let cx = ExtractCx::new(&topo, &db, None);
        let flaps = extract_all_baseline(&defs, &cx);
        assert_eq!(flaps.instances(names::INTERFACE_FLAP).len(), 1, "{what}");
    }
}
