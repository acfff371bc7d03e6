//! grca-serve — snapshot-isolated concurrent diagnosis serving.
//!
//! The paper positions G-RCA as a shared *platform* hosting many SQM
//! applications at once (§III); this crate turns the batch engine into
//! that platform. The pieces:
//!
//! * [`publish`] — [`EpochCell`]: epoch publication of an immutable
//!   value as an `RwLock<Arc<T>>`; readers clone the `Arc`, the
//!   publisher swaps it and frees the old one outside the lock;
//! * [`snapshot`] — [`ServingSnapshot`]: one epoch's immutable world
//!   (per-tenant rule libraries with overlays resolved once per
//!   publisher, frozen route caches, extracted event store);
//! * [`publisher`] — [`Publisher`]: the ingest-side epoch builder
//!   (collector database + incremental extraction + routing freeze),
//!   running entirely off the query path;
//! * [`server`] — [`Server`]: bounded-queue admission, FIFO
//!   micro-batching of requests onto a worker pool, epoch-pinned
//!   [`Session`]s for repeatable reads.
//!
//! Correctness bar (tested differentially and under publish races):
//! every served verdict is label-identical to a batch
//! [`grca_core::Engine::diagnose_all`] run against the same epoch.

#![forbid(unsafe_code)]

pub mod publish;
pub mod publisher;
pub mod server;
pub mod snapshot;

pub use publish::EpochCell;
pub use publisher::Publisher;
pub use server::{ServeConfig, Served, Server, ServerStats, Session, SubmitError, Ticket};
pub use snapshot::{ServingSnapshot, Tenant, TenantSpec};
