//! Fault-injection simulator for a synthetic tier-1 ISP.
//!
//! This crate is the substitute for the paper's live network (see
//! DESIGN.md §4): it injects root-cause faults into the topology from
//! `grca-net-model` and emits the *causally consistent* raw telemetry those
//! faults would leave across every feed — syslog, SNMP, layer-1 device
//! logs, OSPF/BGP monitors, TACACS and workflow logs, end-to-end probes and
//! CDN monitoring — including the protocol timers (180 s BGP hold timer),
//! the per-source clock and naming messiness, and the confounders the
//! paper's §IV is about (BGP-flap↔CPU reverse causality, the hidden
//! provisioning bug, the unobservable line-card crash).
//!
//! Ground truth (which fault caused which symptom) is recorded separately
//! and never shown to the RCA platform; experiments use it only to score
//! diagnoses and to compare recovered breakdowns against Tables IV, VI and
//! VIII of the paper.

#![forbid(unsafe_code)]

pub mod background;
pub mod chaos;
pub mod config;
pub mod inject;
pub mod inject_net;
pub mod kill;
pub mod names;
pub mod scenario;
pub mod sim;
pub mod soak;
pub mod truth;

pub use chaos::{ChaosOp, FeedChaos, MicroBatches};
pub use config::{BackgroundConfig, FaultRates, ScenarioConfig};
pub use kill::{KillPoint, KillSwitch};
pub use names::FeedNames;
pub use scenario::{run_scenario, run_scenario_threads, SimBuffers, SimOutput};
pub use sim::Sim;
pub use soak::{
    run_manifest, run_manifest_into, run_manifest_threads, SoakEntry, SoakFault, SoakManifest,
};
pub use truth::{breakdown, FaultInstance, RootCause, SymptomKind, TruthRecord};
