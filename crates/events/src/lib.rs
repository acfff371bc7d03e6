//! The event model of G-RCA (§II-A).
//!
//! An *event* is a signature capturing a particular network condition. Each
//! event definition is the paper's `(event-name, location type, retrieval
//! process, description)` tuple; extraction runs the retrieval process over
//! the Data Collector's normalized tables and produces event instances
//! `(event-name, start, end, location, info)`.
//!
//! * [`def`] — definitions and typed retrieval processes;
//! * [`extract`](crate::extract()) / [`mod@extract`] — the retrieval interpreters (parsing, thresholds,
//!   route-derived events, anomaly detection), one table scan per
//!   definition — the reference semantics;
//! * [`singlepass`] — the production extractor: every definition
//!   registered up front, one pass per table ([`extract_all`]);
//! * [`delta`] — incremental extraction over a growing database
//!   ([`IncrementalExtractor`]);
//! * [`instance`] — instances and the indexed [`EventStore`];
//! * [`library`] — the Knowledge Library: Table I's 24 common events plus
//!   the application-specific constructors of Tables III, V and VII.

#![forbid(unsafe_code)]

pub mod def;
pub mod delta;
pub mod dsl;
pub mod extract;
pub mod instance;
#[cfg(test)]
mod kernel_oracle;
pub mod library;
pub mod singlepass;

pub use def::{AnomalySense, EventDefinition, PimScope, Retrieval, StateSel};
pub use delta::IncrementalExtractor;
pub use dsl::{parse_events, render_event, render_events};
pub use extract::{extract, extract_all_baseline, ExtractCx, MAX_FLAP_GAP, MERGE_GAP};
pub use instance::{EventInstance, EventStore};
pub use library::{
    bgp_app_events, cdn_app_events, knowledge_library, mnemonic_event, names, pim_app_events,
    workflow_event,
};
pub use singlepass::{extract_all, is_stateless};
