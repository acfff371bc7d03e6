//! Common foundation types for the G-RCA platform.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`time`] — timestamps, time zones, durations and time windows. Raw
//!   telemetry in a large ISP arrives stamped in a mixture of device-local
//!   time, provider "network time" and GMT (G-RCA paper, Section II-A); the
//!   normalization into UTC performed by the Data Collector is built on the
//!   types defined here.
//! * [`error`] — the crate-spanning error type.
//! * [`hash`] — the cheap hasher for maps keyed by trusted, self-built keys.
//! * [`par`] — the one work-stealing parallel map the engine, the
//!   screening pool and the simulator share.
//! * [`seq`] — small typed index newtypes used by arena-style stores.
//! * [`sym`] — interned event-name symbols; the engine's hot loops
//!   compare and hash event names as 4-byte `Copy` ids.
//!
//! The crate is dependency-light by design: everything above it (network
//! model, routing, collector, RCA core) agrees on these definitions.

#![forbid(unsafe_code)]

pub mod error;
pub mod hash;
pub mod par;
pub mod seq;
pub mod sym;
pub mod time;

pub use error::{GrcaError, Result};
pub use hash::FxBuild;
pub use par::{batch_size, map_indexed};
pub use sym::{Symbol, SymbolTable};
pub use time::{Duration, TimeWindow, TimeZone, Timestamp};
