//! Serving-layer correctness: every served verdict label-identical to a
//! batch `diagnose_all` at the same epoch — including reads racing a
//! publish — plus epoch-pinned session isolation and overlay
//! resolution. The torn-snapshot property tests live in
//! `tests/epoch_props.rs`.

use grca_apps::{bgp, cdn, e2e, pim};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::Topology;
use grca_serve::{Publisher, ServeConfig, Server, ServingSnapshot, TenantSpec};
use grca_simnet::{run_scenario, FaultRates, ScenarioConfig};
use grca_telemetry::records::RawRecord;
use std::sync::{Arc, Mutex};

/// The four paper studies as tenants over one shared platform.
fn tenant_specs(topo: &Topology) -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("bgp", bgp::diagnosis_graph()),
        TenantSpec::new("cdn", cdn::diagnosis_graph()),
        TenantSpec::new("pim", pim::diagnosis_graph()),
        TenantSpec::new("e2e", {
            let _ = topo;
            e2e::diagnosis_graph()
        }),
    ]
}

/// Union of every tenant's event definitions (shared registry).
fn union_defs(topo: &Topology) -> Vec<grca_events::EventDefinition> {
    let mut defs = bgp::event_definitions();
    defs.extend(cdn::event_definitions(topo));
    defs.extend(pim::event_definitions());
    defs.extend(e2e::event_definitions(topo));
    defs
}

/// Records from BGP-study and CDN-study fault mixes over one topology,
/// so several tenants see real symptoms.
fn mixed_records(topo: &Topology) -> Vec<RawRecord> {
    let mut records =
        run_scenario(topo, &ScenarioConfig::new(2, 3, FaultRates::bgp_study())).records;
    records.extend(run_scenario(topo, &ScenarioConfig::new(2, 7, FaultRates::cdn_study())).records);
    records
}

fn publisher(topo: &Arc<Topology>) -> Publisher {
    Publisher::new(topo.clone(), union_defs(topo), tenant_specs(topo))
}

/// Every verdict served through the admission queue + worker pool is
/// label-identical to batch `diagnose_all` against the same snapshot.
/// Every request is served before the batch reference runs, so the
/// server answers from the cold route caches a publish hands over.
#[test]
fn served_verdicts_match_batch_diagnose_all() {
    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let mut publisher = publisher(&topo);
    publisher.ingest(&mixed_records(&topo));
    let snap = publisher.publish().expect("tenants validate");
    let server = Server::start(snap.clone(), &ServeConfig::default());

    let tenants = 0..snap.tenants().len();
    let served: Vec<Vec<_>> = tenants
        .clone()
        .map(|tenant| {
            let tickets: Vec<_> = snap
                .symptoms(tenant)
                .iter()
                .map(|s| {
                    server
                        .submit(tenant, s.clone())
                        .expect("queue sized for test")
                })
                .collect();
            tickets.into_iter().map(|t| t.wait()).collect()
        })
        .collect();

    let mut total_symptoms = 0;
    for (tenant, served) in tenants.zip(served) {
        let batch = snap.diagnose_all(tenant);
        let symptoms = snap.symptoms(tenant);
        assert_eq!(batch.len(), symptoms.len());
        total_symptoms += symptoms.len();
        for (served, want) in served.iter().zip(&batch) {
            assert_eq!(served.epoch, snap.epoch);
            assert_eq!(served.diagnosis.verdict(), want.verdict());
        }
    }
    assert!(total_symptoms > 0, "scenario produced no symptoms at all");
    let stats = server.stats();
    assert_eq!(stats.served, total_symptoms as u64);
    assert!(stats.batches <= stats.served, "batching accounting broken");
}

/// A session pinned at epoch N answers from epoch N no matter how many
/// later epochs are published; unpinned requests see the latest.
#[test]
fn pinned_session_unaffected_by_later_publishes() {
    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let records = mixed_records(&topo);
    let half = records.len() / 2;
    let mut publisher = publisher(&topo);
    publisher.ingest(&records[..half]);
    let snap0 = publisher.publish().unwrap();
    let server = Server::start(snap0.clone(), &ServeConfig::default());

    let session = server.session();
    assert_eq!(session.epoch(), snap0.epoch);
    let bgp_id = snap0.tenant_id("bgp").unwrap();
    let before: Vec<_> = snap0
        .symptoms(bgp_id)
        .iter()
        .map(|s| session.diagnose(bgp_id, s).diagnosis.verdict())
        .collect();

    publisher.ingest(&records[half..]);
    let snap1 = publisher.publish().unwrap();
    assert!(snap1.epoch > snap0.epoch);
    assert_ne!(snap1.ingest_epoch, snap0.ingest_epoch);
    server.publish(snap1.clone());

    // The pinned session still serves epoch-0 verdicts...
    let after: Vec<_> = snap0
        .symptoms(bgp_id)
        .iter()
        .map(|s| session.diagnose(bgp_id, s).diagnosis.verdict())
        .collect();
    assert_eq!(session.epoch(), snap0.epoch);
    assert_eq!(before, after);
    // ...while queue-served requests answer at the new epoch.
    if let Some(sym) = snap1.symptoms(bgp_id).first() {
        let served = server.diagnose(bgp_id, sym.clone()).unwrap();
        assert_eq!(served.epoch, snap1.epoch);
    }
    assert_eq!(server.snapshot().epoch, snap1.epoch);
}

/// Clients hammering the server while the publisher storms through
/// epochs: every served verdict must match a batch diagnosis against
/// the exact epoch it was served at. This is the read-racing-a-publish
/// half of the correctness bar.
#[test]
fn serves_racing_publishes_stay_epoch_consistent() {
    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let records = mixed_records(&topo);
    let mut publisher = publisher(&topo);
    publisher.ingest(&records[..records.len() / 8]);
    let snap0 = publisher.publish().unwrap();
    let bgp_id = snap0.tenant_id("bgp").unwrap();
    // Query mix: symptoms known at epoch 0 (valid at every later epoch
    // too — diagnosis accepts any instance).
    let mix: Vec<_> = snap0.symptoms(bgp_id).to_vec();
    assert!(!mix.is_empty());

    let server = Server::start(snap0.clone(), &ServeConfig::default());
    let epochs = Mutex::new(vec![snap0]);
    std::thread::scope(|scope| {
        // Publisher: 7 more epochs while clients run.
        scope.spawn(|| {
            let chunk = records.len() / 8;
            for i in 1..8 {
                publisher.ingest(&records[i * chunk..((i + 1) * chunk).min(records.len())]);
                let snap = publisher.publish().unwrap();
                // Record the epoch before serving it: a client served at
                // the new epoch looks it up as soon as it is live.
                epochs.lock().unwrap().push(snap.clone());
                server.publish(snap);
            }
        });
        // Clients: rounds of the query mix, each verified against the
        // snapshot of the epoch it was actually served at.
        for _ in 0..3 {
            scope.spawn(|| {
                for round in 0..10 {
                    for sym in &mix {
                        let served = match server.submit(bgp_id, sym.clone()) {
                            Ok(t) => t.wait(),
                            Err(_) => continue, // queue full: load shed, fine
                        };
                        let reference: Arc<ServingSnapshot> = {
                            let eps = epochs.lock().unwrap();
                            eps.iter()
                                .find(|s| s.epoch == served.epoch)
                                .unwrap_or_else(|| {
                                    panic!("served at unknown epoch {}", served.epoch)
                                })
                                .clone()
                        };
                        assert_eq!(
                            served.diagnosis.verdict(),
                            reference.diagnose(bgp_id, sym).verdict(),
                            "round {round}: served verdict diverged from batch at epoch {}",
                            served.epoch
                        );
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.publishes, 7);
    assert!(stats.served > 0);
}

/// Overlays resolve once per publisher: the tenant's snapshot graph
/// carries the overlay rules, consecutive epochs share one resolution,
/// and an overlay that breaks validation fails every publish, not the
/// query.
#[test]
fn overlays_resolve_and_validate_at_publish() {
    use grca_core::DiagnosisRule;
    use grca_net_model::JoinLevel;

    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let base = bgp::diagnosis_graph();
    let base_rules = base.rules.len();
    let root = base.root.as_str().to_string();
    let overlay_rule = DiagnosisRule::new(
        root.clone(),
        "tenant-private-probe",
        grca_core::TemporalRule::symmetric(30),
        JoinLevel::Router,
        1,
    );
    let specs = vec![
        TenantSpec::new("plain", base.clone()),
        TenantSpec::new("extended", base.clone()).with_overlay(vec![overlay_rule]),
    ];
    let mut publisher = Publisher::new(topo.clone(), bgp::event_definitions(), specs);
    let snap = publisher.publish().unwrap();
    assert_eq!(snap.tenants()[0].graph.rules.len(), base_rules);
    assert_eq!(snap.tenants()[1].graph.rules.len(), base_rules + 1);
    let next = publisher.publish().unwrap();
    for (a, b) in snap.tenants().iter().zip(next.tenants()) {
        assert!(
            Arc::ptr_eq(&a.graph, &b.graph),
            "tenant {:?} re-resolved between epochs",
            a.name
        );
    }

    // A self-cycle overlay must fail the publish with a config error.
    let bad = vec![
        TenantSpec::new("cyclic", base.clone()).with_overlay(vec![DiagnosisRule::new(
            root.clone(),
            root,
            grca_core::TemporalRule::symmetric(30),
            JoinLevel::Router,
            u32::MAX,
        )]),
    ];
    let mut bad_pub = Publisher::new(topo.clone(), bgp::event_definitions(), bad);
    assert!(bad_pub.publish().is_err());
    // ...and every later one, with or without new ingest.
    assert!(bad_pub.publish().is_err());
    let records = run_scenario(&topo, &ScenarioConfig::new(1, 3, FaultRates::bgp_study())).records;
    bad_pub.ingest(&records);
    assert!(bad_pub.publish_if_changed().is_err());
}

/// `publish_if_changed` elides no-op republishes: unchanged ingest
/// state (including a fully deduplicated redelivery) publishes nothing.
#[test]
fn publish_elided_when_ingest_unchanged() {
    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let records = mixed_records(&topo);
    let mut publisher = publisher(&topo);
    publisher.ingest(&records[..records.len() / 2]);
    let first = publisher.publish_if_changed().unwrap();
    assert!(first.is_some());
    // Nothing new ingested → elided.
    assert!(publisher.publish_if_changed().unwrap().is_none());
    // A redelivered (fully deduplicated) batch is also a no-op.
    publisher.ingest(&records[..records.len() / 2]);
    assert!(publisher.publish_if_changed().unwrap().is_none());
    // Fresh records → a new epoch.
    publisher.ingest(&records[records.len() / 2..]);
    let second = publisher.publish_if_changed().unwrap().unwrap();
    assert!(second.epoch > first.unwrap().epoch);
}

/// Back-pressure through the public API: a one-worker server with a
/// tiny queue, flooded by a burst, sheds load instead of growing, and
/// every admitted request is still served. The exact admitted/rejected
/// split is pinned by the unit test in `server.rs`, which floods the
/// queue before any worker exists.
#[test]
fn bounded_queue_rejects_over_capacity() {
    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let mut publisher = publisher(&topo);
    publisher.ingest(&mixed_records(&topo));
    let snap = publisher.publish().unwrap();
    let bgp_id = snap.tenant_id("bgp").unwrap();
    let sym = snap.symptoms(bgp_id)[0].clone();
    let server = Server::start(
        snap,
        &ServeConfig {
            workers: 1,
            queue_cap: 4,
            max_batch: 2,
        },
    );
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..200 {
        match server.submit(bgp_id, sym.clone()) {
            Ok(t) => accepted.push(t),
            Err(grca_serve::SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected > 0, "queue of 4 never filled under a 200-burst");
    let n = accepted.len() as u64;
    for t in accepted {
        let served = t.wait();
        assert!(served.error.is_none());
        assert_eq!(served.diagnosis.symptom, sym);
    }
    assert_eq!(server.stats().served, n);
    assert_eq!(server.stats().rejected, rejected);
}

/// An out-of-range tenant id is refused at admission: never queued, not
/// counted as shed load, and not served as a "poisoned rule library".
#[test]
fn unknown_tenant_is_rejected_at_admission() {
    use grca_serve::SubmitError;

    let topo = Arc::new(generate(&TopoGenConfig::small()));
    let mut publisher = publisher(&topo);
    publisher.ingest(&mixed_records(&topo));
    let snap = publisher.publish().unwrap();
    let bgp_id = snap.tenant_id("bgp").unwrap();
    let sym = snap.symptoms(bgp_id)[0].clone();
    let server = Server::start(snap.clone(), &ServeConfig::default());

    for tenant in [snap.tenants().len(), usize::MAX] {
        assert!(
            matches!(
                server.submit(tenant, sym.clone()),
                Err(SubmitError::UnknownTenant(_))
            ),
            "tenant id {tenant} must not be admitted"
        );
        assert!(matches!(
            server.diagnose(tenant, sym.clone()),
            Err(SubmitError::UnknownTenant(_))
        ));
    }
    // The last valid id is still served, and nothing above left a trace.
    let last = snap.tenants().len() - 1;
    assert!(server.diagnose(last, sym.clone()).unwrap().error.is_none());
    assert!(server.diagnose(bgp_id, sym).unwrap().error.is_none());
    let stats = server.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.poisoned, 0);
    assert_eq!(stats.rejected, 0);
}
