//! Epoch-semantics property tests: interleaved publishes and concurrent
//! reads must never observe a *torn* snapshot (rule library from one
//! epoch, event store or ingest fingerprint from another), and a reader
//! pinned to epoch N must be completely unaffected by the publication
//! of N+1.
//!
//! The snapshots here are synthetic: every component — tenant graph
//! name, tenant name, the store's marker instance, the ingest
//! fingerprint — redundantly encodes the epoch number, so any
//! mixed-epoch view is detectable from the reader's side.

use grca_core::DiagnosisGraph;
use grca_events::{EventInstance, EventStore};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{Location, RouterId, Topology};
use grca_serve::{EpochCell, ServingSnapshot, Tenant, TenantSpec};
use grca_types::{TimeWindow, Timestamp};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A snapshot whose every component encodes `epoch`.
fn synthetic_snapshot(topo: &Arc<Topology>, epoch: u64) -> Arc<ServingSnapshot> {
    let graph = DiagnosisGraph::new(format!("g{epoch}"), "marker");
    let mut store = EventStore::new();
    let window = TimeWindow::new(Timestamp::from_unix(0), Timestamp::from_unix(60));
    store.add(vec![EventInstance::new(
        "marker",
        window,
        Location::Router(RouterId::new(0)),
    )
    .with_info(epoch.to_string())]);
    let routing = grca_apps::build_routing(topo, &grca_collector::Database::default());
    let tenant = Tenant::resolve(TenantSpec::new(format!("t{epoch}"), graph))
        .expect("zero-rule graph validates");
    Arc::new(ServingSnapshot::from_parts(
        epoch,
        epoch,
        topo.clone(),
        routing.freeze(),
        store,
        vec![tenant],
    ))
}

/// Panics if any component disagrees with the snapshot's epoch; returns
/// the epoch when fully coherent.
fn assert_coherent(snap: &ServingSnapshot) -> u64 {
    let e = snap.epoch;
    assert_eq!(
        snap.ingest_epoch, e,
        "ingest fingerprint from another epoch"
    );
    assert_eq!(
        snap.tenants()[0].graph.name,
        format!("g{e}"),
        "rule library from another epoch"
    );
    assert_eq!(snap.tenants()[0].name, format!("t{e}"));
    let marker = &snap.symptoms(0)[0];
    assert_eq!(
        marker.info(),
        e.to_string(),
        "event store from another epoch"
    );
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Reader threads loop on `load()` while the publisher storms
    /// through epochs: every observed snapshot is internally coherent
    /// and epochs never go backwards within a reader.
    #[test]
    fn concurrent_reads_never_observe_torn_snapshot(
        publishes in 1usize..40,
        readers in 1usize..4,
    ) {
        let topo = Arc::new(generate(&TopoGenConfig::small()));
        let cell = EpochCell::new(synthetic_snapshot(&topo, 0));
        let first = cell.load();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..readers {
                scope.spawn(|| {
                    let mut last = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let snap = cell.load();
                        let e = assert_coherent(&snap);
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        last = e;
                    }
                });
            }
            for e in 1..=publishes as u64 {
                cell.publish(synthetic_snapshot(&topo, e));
            }
            done.store(true, Ordering::Release);
        });
        prop_assert_eq!(cell.publish_count(), publishes as u64);
        // All readers gone and one more publish: nothing but the test
        // still holds the epoch the first publish superseded.
        cell.publish(synthetic_snapshot(&topo, publishes as u64 + 1));
        prop_assert_eq!(Arc::strong_count(&first), 1);
    }

    /// A snapshot pinned at epoch N stays byte-for-byte coherent at N
    /// while any number of later epochs publish over it.
    #[test]
    fn pinned_epoch_unaffected_by_later_publishes(later in 1usize..30) {
        let topo = Arc::new(generate(&TopoGenConfig::small()));
        let cell = EpochCell::new(synthetic_snapshot(&topo, 7));
        let pinned = cell.load();
        for e in 8..8 + later as u64 {
            cell.publish(synthetic_snapshot(&topo, e));
        }
        // The pinned epoch is untouched by every later publish...
        prop_assert_eq!(assert_coherent(&pinned), 7);
        // ...and its verdict surface still works against the old state.
        prop_assert_eq!(pinned.symptoms(0).len(), 1);
        prop_assert_eq!(pinned.diagnose_all(0).len(), 1);
        // Fresh loads see the newest epoch.
        let latest = cell.load();
        prop_assert_eq!(assert_coherent(&latest), 7 + later as u64);
    }

    /// Deterministic single-threaded interleaving of publishes and
    /// loads (complement to the racing test above): whatever the
    /// schedule, a load returns exactly the last-published epoch,
    /// fully coherent.
    #[test]
    fn interleaved_publish_load_schedule_is_sequentially_consistent(
        ops in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let topo = Arc::new(generate(&TopoGenConfig::small()));
        let cell = EpochCell::new(synthetic_snapshot(&topo, 0));
        let mut current = 0u64;
        for publish in ops {
            if publish {
                current += 1;
                cell.publish(synthetic_snapshot(&topo, current));
            } else {
                let snap = cell.load();
                prop_assert_eq!(assert_coherent(&snap), current);
            }
        }
        prop_assert_eq!(cell.publish_count(), current);
    }
}
