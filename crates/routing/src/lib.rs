//! Routing substrate for G-RCA: reconstruction of historical routing state
//! from proactively collected monitoring data.
//!
//! The paper stresses (§I, §II-B) that service-dependency relationships are
//! *time-varying* and must be reconstructed "as of" the moment of a symptom
//! event, using only data that was proactively collected — OSPF link-state
//! monitoring (OSPFMon) and BGP route-reflector feeds — never on-demand
//! probes like traceroute. This crate implements that reconstruction:
//!
//! * [`ospf`] — a time-versioned link-state database fed by weight-change
//!   events, plus Dijkstra SPF with full ECMP handling (the union of all
//!   equal-cost paths is considered, per §II-B item 3);
//! * [`bgp`] — per-prefix candidate egress sets fed by route-reflector
//!   updates, with the ingress router's best-path decision *emulated* from
//!   reflector-visible routes plus OSPF distances (the approximation the
//!   paper describes for item 1 of §II-B);
//! * [`pim`] — the PIM neighbor-adjacency structure of multicast VPNs;
//! * [`oracle`] — [`RoutingState`], tying the above together behind the
//!   [`grca_net_model::RouteOracle`] trait consumed by the spatial model.

#![forbid(unsafe_code)]

pub mod bgp;
pub mod oracle;
pub mod ospf;
pub mod pim;

pub use bgp::{BgpState, BgpUpdate, RouteAttrs};
pub use oracle::{FrozenOracle, FrozenRoutingState, RoutingState};
pub use ospf::{OspfState, SpfResult, WeightEvent};
pub use pim::{pim_adjacencies, uplink_adjacencies, PimAdjacency};
