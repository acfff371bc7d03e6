//! Raw telemetry formats for G-RCA's data feeds.
//!
//! The paper's Data Collector ingests ~600 sources: router syslog, SNMP
//! counters, layer-1 device logs, OSPF/BGP route monitors, TACACS command
//! logs, workflow (provisioning) logs, end-to-end performance probes, CDN
//! monitoring and server logs (§II-A, Table I). Each source has its own
//! naming conventions and its own clock: syslog stamps device-local time,
//! SNMP pollers stamp provider "network time", route monitors stamp GMT.
//!
//! This crate defines the *raw* record shapes exactly as each source emits
//! them — canonical entity ids appear nowhere here; records carry hostnames,
//! SNMP system names, ifIndexes, circuit ids and textual message bodies.
//! Normalization into canonical ids and UTC is the Data Collector's job
//! (`grca-collector`), which uses the parsers in [`syslog`].

#![forbid(unsafe_code)]

pub mod records;
pub mod syslog;

pub use records::*;
pub use syslog::{parse_syslog_message, SyslogEvent};
