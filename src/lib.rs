//! G-RCA: a Generic Root Cause Analysis platform for service quality
//! management in large IP networks — a from-scratch Rust reproduction of
//! Yan, Breslau, Ge, Massey, Pei & Yates (CoNEXT 2010 / ToN 2012).
//!
//! This facade crate re-exports the whole workspace so examples and
//! integration tests can address the platform through one dependency:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `grca-types` | time, windows, errors |
//! | [`net_model`] | `grca-net-model` | topology, spatial/location model |
//! | [`routing`] | `grca-routing` | OSPF/BGP reconstruction, PIM structure |
//! | [`telemetry`] | `grca-telemetry` | raw feed formats, syslog catalog |
//! | [`simnet`] | `grca-simnet` | fault-injection network simulator |
//! | [`collector`] | `grca-collector` | normalization + tables |
//! | [`events`] | `grca-events` | event model + Table I library |
//! | [`correlation`] | `grca-correlation` | NICE correlation tester |
//! | [`core`] | `grca-core` | joins, graphs, DSL, reasoning, browser |
//! | [`apps`] | `grca-apps` | BGP / CDN / PIM applications |
//! | [`eval`] | `grca-eval` | golden scenarios, truth-join oracle, gate |
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and experiment index.

#![forbid(unsafe_code)]

pub use grca_apps as apps;
pub use grca_collector as collector;
pub use grca_core as core;
pub use grca_correlation as correlation;
pub use grca_eval as eval;
pub use grca_events as events;
pub use grca_net_model as net_model;
pub use grca_routing as routing;
pub use grca_simnet as simnet;
pub use grca_telemetry as telemetry;
pub use grca_types as types;
