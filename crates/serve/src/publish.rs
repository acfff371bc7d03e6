//! [`EpochCell`]: epoch publication of an immutable value — an
//! `RwLock<Arc<T>>` and a publish counter.
//!
//! The serving layer's core primitive: ingest builds the next
//! [`crate::ServingSnapshot`] off to the side and [`EpochCell::publish`]es
//! it by swapping the `Arc` under the write lock; diagnosis workers and
//! sessions [`EpochCell::load`] the current one by cloning the `Arc`
//! under the read lock. Both critical sections are a pointer operation:
//! a reader holds the lock for one reference-count increment, the
//! publisher for one swap, and the superseded value is dropped only
//! *after* the write lock is released — dropping a snapshot frees an
//! event store and the frozen route maps, and no reader may wait on that.
//!
//! The traffic is one load per request batch and one publish per ingest
//! slot, which is why a lock is enough here.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, RwLock};

/// An epoch-published immutable value: readers clone the current `Arc`,
/// the publisher swaps it.
pub struct EpochCell<T> {
    current: RwLock<Arc<T>>,
    /// Total publishes.
    publishes: AtomicU64,
}

impl<T> EpochCell<T> {
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell {
            current: RwLock::new(initial),
            publishes: AtomicU64::new(0),
        }
    }

    /// Adopt the current value. Holds the read lock for one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        // Poisoning is ignored here and in `publish`: the only write
        // under the lock is a whole-`Arc` swap, so the cell is valid at
        // every step.
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publish `next` as the new current value. Readers that already
    /// loaded keep the value they hold. The write lock covers the swap
    /// only: this thread's reference to the superseded value is dropped
    /// after it is released.
    pub fn publish(&self, next: Arc<T>) {
        let superseded = {
            let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
            self.publishes.fetch_add(1, SeqCst);
            std::mem::replace(&mut *current, next)
        };
        drop(superseded);
    }

    /// Number of publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Weak;

    /// A payload whose clones count live instances, so the tests can
    /// assert the cell neither leaks nor double-frees publications.
    struct Tracked {
        epoch: u64,
        live: Arc<AtomicUsize>,
    }

    impl Tracked {
        fn new(epoch: u64, live: &Arc<AtomicUsize>) -> Arc<Self> {
            live.fetch_add(1, SeqCst);
            Arc::new(Tracked {
                epoch,
                live: live.clone(),
            })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_publish() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::new(Tracked::new(0, &live));
        assert_eq!(cell.load().epoch, 0);
        cell.publish(Tracked::new(1, &live));
        assert_eq!(cell.load().epoch, 1);
        assert_eq!(cell.publish_count(), 1);
        drop(cell);
        assert_eq!(live.load(SeqCst), 0, "publication counts leaked");
    }

    #[test]
    fn pinned_reader_survives_later_publishes() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::new(Tracked::new(0, &live));
        let pinned = cell.load();
        for e in 1..=10 {
            cell.publish(Tracked::new(e, &live));
        }
        // The pinned epoch is untouched by ten later publishes.
        assert_eq!(pinned.epoch, 0);
        assert_eq!(cell.load().epoch, 10);
        drop(pinned);
        drop(cell);
        assert_eq!(live.load(SeqCst), 0);
    }

    /// Readers hammering `load` while a publisher storms through epochs:
    /// every adopted value must be internally consistent and no
    /// publication may leak or double-free. This is the unit-level
    /// stress for the snapshot-isolation tentpole.
    #[test]
    fn concurrent_loads_racing_publishes_are_safe() {
        const EPOCHS: u64 = 500;
        const READERS: usize = 6;
        let live = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::new(Tracked::new(0, &live));
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    let mut last = 0u64;
                    loop {
                        let snap = cell.load();
                        // Epochs are published in order: a reader can
                        // never observe time going backwards.
                        assert!(snap.epoch >= last);
                        last = snap.epoch;
                        if snap.epoch == EPOCHS {
                            return;
                        }
                    }
                });
            }
            scope.spawn(|| {
                for e in 1..=EPOCHS {
                    cell.publish(Tracked::new(e, &live));
                }
            });
        });
        drop(cell);
        assert_eq!(live.load(SeqCst), 0, "leak or double-free detected");
    }

    /// A superseded value must be dropped after `publish` released the
    /// write lock: the payload's `Drop` probes the cell's lock and would
    /// find it held otherwise.
    #[test]
    fn publish_drops_the_superseded_value_outside_the_lock() {
        struct Probe {
            cell: Weak<EpochCell<Probe>>,
            dropped_unlocked: Arc<AtomicUsize>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                // `None` only when the cell itself is being dropped.
                if let Some(cell) = self.cell.upgrade() {
                    if cell.current.try_read().is_ok() {
                        self.dropped_unlocked.fetch_add(1, SeqCst);
                    }
                }
            }
        }
        let dropped_unlocked = Arc::new(AtomicUsize::new(0));
        let probe = |cell: &Weak<EpochCell<Probe>>| {
            Arc::new(Probe {
                cell: cell.clone(),
                dropped_unlocked: dropped_unlocked.clone(),
            })
        };
        let cell = Arc::new_cyclic(|weak| EpochCell::new(probe(weak)));
        cell.publish(probe(&Arc::downgrade(&cell)));
        assert_eq!(dropped_unlocked.load(SeqCst), 1);
        cell.publish(probe(&Arc::downgrade(&cell)));
        assert_eq!(dropped_unlocked.load(SeqCst), 2);
    }
}
