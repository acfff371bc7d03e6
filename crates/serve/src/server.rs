//! [`Server`]: bounded-queue admission and micro-batched execution of
//! diagnosis requests over the current [`ServingSnapshot`].
//!
//! Request flow: [`Server::submit`] enqueues a job (rejecting when the
//! bounded queue is full — back-pressure, never unbounded growth) and
//! returns a [`Ticket`]; a pool worker pops a *micro-batch* off the head
//! of the queue in arrival order (FIFO, whatever tenants the jobs name),
//! pins the current snapshot with one [`EpochCell::load`], and for each
//! job binds an engine for its tenant, diagnoses, and fulfills the ticket
//! with the verdict plus the epoch it was served at. A batch amortizes
//! one queue-mutex pop and one snapshot pin; the engine bind is a handful
//! of pointer copies, so it is paid per job.
//!
//! Two locks sit on the request path outside the diagnosis itself, both
//! held for a pointer-sized operation: the queue mutex (a push or a pop)
//! and the epoch cell's read lock (one `Arc` clone per batch). Inside it,
//! each route query takes one cache-shard read lock of the snapshot's
//! routing state (a write lock, for one insert, on a miss). A publish
//! holds the cell's write lock for one swap and frees the superseded
//! snapshot after releasing it, so it cannot stall a worker for longer
//! than that. A client that wants repeatable reads across several
//! queries pins an epoch with [`Server::session`] — later publishes are
//! invisible to it.

use crate::publish::EpochCell;
use crate::snapshot::ServingSnapshot;
use grca_core::Diagnosis;
use grca_events::EventInstance;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Serving-pool configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing diagnosis batches.
    pub workers: usize,
    /// Admission-queue capacity; submits beyond it are rejected.
    pub queue_cap: usize,
    /// Most requests one worker claims per queue pop.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 4096,
            max_batch: 16,
        }
    }
}

/// Why a submit was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed load or retry later.
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
    /// No such tenant: the id is outside the tenant set the server was
    /// started with.
    UnknownTenant(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
        }
    }
}

/// A served verdict: the diagnosis plus the epoch it was computed at.
#[derive(Debug, Clone)]
pub struct Served {
    pub epoch: u64,
    pub tenant: usize,
    pub diagnosis: Diagnosis,
    /// `Some` when the request could not be diagnosed because the
    /// tenant's rule evaluation panicked: the worker caught the panic,
    /// failed this request explicitly (the `diagnosis` is an empty
    /// UNKNOWN placeholder for the symptom), and kept serving. Never
    /// silently dropped — a ticket always resolves.
    pub error: Option<String>,
}

impl Served {
    /// An explicit failure verdict for a request whose diagnosis
    /// panicked: UNKNOWN with no evidence, plus the panic message.
    fn poisoned(epoch: u64, tenant: usize, symptom: &EventInstance, error: String) -> Self {
        Served {
            epoch,
            tenant,
            diagnosis: Diagnosis {
                symptom: symptom.clone(),
                evidence: Vec::new(),
                root_causes: Vec::new(),
            },
            error: Some(error),
        }
    }
}

/// One-shot response slot a worker fulfills and a client waits on.
struct ResponseCell {
    slot: Mutex<Option<Served>>,
    ready: Condvar,
}

impl ResponseCell {
    fn fulfill(&self, served: Served) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(served);
        self.ready.notify_one();
    }
}

/// Handle to a pending request; [`Ticket::wait`] blocks the *client*
/// (never a serving worker) until the verdict lands.
pub struct Ticket {
    cell: Arc<ResponseCell>,
}

impl Ticket {
    pub fn wait(self) -> Served {
        let mut slot = self.cell.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(served) = slot.take() {
                return served;
            }
            slot = self
                .cell
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Job {
    tenant: usize,
    symptom: EventInstance,
    cell: Arc<ResponseCell>,
}

struct Shared {
    cell: EpochCell<ServingSnapshot>,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    shutdown: AtomicBool,
    queue_cap: usize,
    max_batch: usize,
    /// Tenants in the initial snapshot; ids at or past it are refused at
    /// admission (tenant sets are stable across epochs).
    tenants: usize,
    served: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    poisoned: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The diagnosis server: an [`EpochCell`] of the current snapshot plus
/// a worker pool draining the admission queue. Dropping it drains
/// nothing: shutdown wakes the workers, which finish the jobs already
/// admitted before exiting.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `cfg.workers` workers serving `initial`.
    pub fn start(initial: Arc<ServingSnapshot>, cfg: &ServeConfig) -> Self {
        let mut server = Server::idle(initial, cfg);
        for _ in 0..cfg.workers.max(1) {
            server.spawn_worker();
        }
        server
    }

    /// A server with its queue and counters set up but no worker yet.
    fn idle(initial: Arc<ServingSnapshot>, cfg: &ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            tenants: initial.tenants().len(),
            cell: EpochCell::new(initial),
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap: cfg.queue_cap.max(1),
            max_batch: cfg.max_batch.max(1),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        });
        Server {
            shared,
            workers: Vec::new(),
        }
    }

    fn spawn_worker(&mut self) {
        let shared = self.shared.clone();
        self.workers
            .push(std::thread::spawn(move || worker_loop(&shared)));
    }

    /// Publish the next epoch. Readers mid-query keep the epoch they
    /// pinned; new batches see the new one.
    pub fn publish(&self, next: Arc<ServingSnapshot>) {
        self.shared.cell.publish(next);
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.shared.cell.load()
    }

    /// Pin the current epoch for repeatable reads across many queries.
    pub fn session(&self) -> Session {
        Session {
            snap: self.shared.cell.load(),
        }
    }

    /// Admit a diagnosis request for `tenant` (an id from the *current*
    /// snapshot's [`ServingSnapshot::tenant_id`]; tenant sets are stable
    /// across epochs in this platform, so an id no snapshot holds is
    /// refused here, before it reaches the queue).
    pub fn submit(&self, tenant: usize, symptom: EventInstance) -> Result<Ticket, SubmitError> {
        if self.shared.shutdown.load(SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        if tenant >= self.shared.tenants {
            return Err(SubmitError::UnknownTenant(format!("#{tenant}")));
        }
        let cell = Arc::new(ResponseCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut q = self.shared.lock_queue();
            if q.len() >= self.shared.queue_cap {
                self.shared.rejected.fetch_add(1, SeqCst);
                return Err(SubmitError::QueueFull);
            }
            q.push_back(Job {
                tenant,
                symptom,
                cell: cell.clone(),
            });
        }
        self.shared.not_empty.notify_one();
        Ok(Ticket { cell })
    }

    /// Convenience: submit and wait (one blocking round-trip).
    pub fn diagnose(&self, tenant: usize, symptom: EventInstance) -> Result<Served, SubmitError> {
        Ok(self.submit(tenant, symptom)?.wait())
    }

    /// The serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.shared.served.load(SeqCst),
            rejected: self.shared.rejected.load(SeqCst),
            batches: self.shared.batches.load(SeqCst),
            poisoned: self.shared.poisoned.load(SeqCst),
            publishes: self.shared.cell.publish_count(),
            load_retries: 0,
        }
    }
}

/// Serving counters, for reports and gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub served: u64,
    pub rejected: u64,
    /// Micro-batches executed (served / batches = achieved batch size).
    pub batches: u64,
    /// Requests fulfilled with an explicit error verdict because their
    /// diagnosis panicked (see [`Served::error`]).
    pub poisoned: u64,
    pub publishes: u64,
    /// Always 0: readers take the epoch cell's read lock and have nothing
    /// to retry. The field stays because `bench_pipeline` reports it as
    /// `serve.load_retries`; it goes when the benchmark drops the metric.
    pub load_retries: u64,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A session pinned to one epoch: every query answers against the same
/// snapshot no matter how many publishes happen meanwhile.
pub struct Session {
    snap: Arc<ServingSnapshot>,
}

impl Session {
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    pub fn snapshot(&self) -> &ServingSnapshot {
        &self.snap
    }

    pub fn diagnose(&self, tenant: usize, symptom: &EventInstance) -> Served {
        Served {
            epoch: self.snap.epoch,
            tenant,
            diagnosis: self.snap.diagnose(tenant, symptom),
            error: None,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim a micro-batch: up to max_batch jobs off the head of the
        // queue, in arrival order, so one queue pop and one snapshot pin
        // serve the whole batch.
        let batch: Vec<Job> = {
            let mut q = shared.lock_queue();
            loop {
                if !q.is_empty() {
                    let n = q.len().min(shared.max_batch);
                    break q.drain(..n).collect();
                }
                if shared.shutdown.load(SeqCst) {
                    return;
                }
                q = shared.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Pin the snapshot once per batch — the only epoch interaction.
        let snap = shared.cell.load();
        // Count before fulfilling: a client woken by the last fulfill
        // must already see this batch in the stats.
        shared.served.fetch_add(batch.len() as u64, SeqCst);
        shared.batches.fetch_add(1, SeqCst);
        for job in batch {
            // Panic isolation per job: a panic in the engine bind (a
            // poisoned rule library) or in the diagnosis itself fails only
            // that request, with an explicit error verdict. The worker
            // survives — a panic must never shrink the pool or leave a
            // ticket hanging.
            let served =
                match catch_unwind(AssertUnwindSafe(|| snap.diagnose(job.tenant, &job.symptom))) {
                    Ok(diagnosis) => Served {
                        epoch: snap.epoch,
                        tenant: job.tenant,
                        diagnosis,
                        error: None,
                    },
                    Err(payload) => {
                        shared.poisoned.fetch_add(1, SeqCst);
                        Served::poisoned(
                            snap.epoch,
                            job.tenant,
                            &job.symptom,
                            panic_message(payload.as_ref()),
                        )
                    }
                };
            job.cell.fulfill(served);
        }
    }
}

/// Human-readable panic payload (`panic!` with a message yields a `&str`
/// or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "diagnosis panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Tenant, TenantSpec};
    use grca_core::DiagnosisGraph;
    use grca_events::EventStore;
    use grca_net_model::gen::{generate, TopoGenConfig};
    use grca_net_model::{Location, RouterId};
    use grca_types::{TimeWindow, Timestamp};

    /// Back-pressure: the bounded queue rejects when full instead of
    /// growing; accepted work still completes. The burst lands before
    /// any worker exists, so nothing drains the queue meanwhile and the
    /// split between admitted and rejected is exact.
    #[test]
    fn bounded_queue_rejects_over_capacity() {
        let topo = Arc::new(generate(&TopoGenConfig::small()));
        let sym = EventInstance::new(
            "marker",
            TimeWindow::new(Timestamp::from_unix(0), Timestamp::from_unix(60)),
            Location::Router(RouterId::new(0)),
        );
        let mut store = EventStore::new();
        store.add(vec![sym.clone()]);
        let routing =
            grca_apps::build_routing(&topo, &grca_collector::Database::default()).freeze();
        let tenant = Tenant::resolve(TenantSpec::new("t", DiagnosisGraph::new("g", "marker")))
            .expect("zero-rule graph validates");
        let snap = ServingSnapshot::from_parts(0, 0, topo, routing, store, vec![tenant]);
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 4,
            max_batch: 2,
        };
        let mut server = Server::idle(Arc::new(snap), &cfg);

        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..200 {
            match server.submit(0, sym.clone()) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert_eq!(accepted.len(), cfg.queue_cap);
        assert_eq!(rejected, (200 - cfg.queue_cap) as u64);
        assert_eq!(server.stats().rejected, rejected);

        server.spawn_worker();
        for t in accepted {
            let served = t.wait();
            assert!(served.error.is_none());
            assert_eq!(served.diagnosis.symptom, sym);
        }
        let stats = server.stats();
        assert_eq!(stats.served, cfg.queue_cap as u64);
        assert_eq!(stats.rejected, rejected);
    }
}
