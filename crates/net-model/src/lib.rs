//! Network model for G-RCA: the static structure of a synthetic tier-1 ISP
//! and the *spatial model* (location types + conversions) of the paper's
//! Fig. 2 / Section II-B.
//!
//! The model captures, bottom-up:
//!
//! * layer-1 devices (SONET ring nodes, optical mesh nodes) and the
//!   inventory mapping physical links to the layer-1 devices they traverse;
//! * physical links (circuits) and logical links, including 1:N
//!   logical-to-physical mappings (SONET APS protection pairs, multilink PPP
//!   bundles);
//! * routers (core, provider-edge, route reflectors), line cards and
//!   interfaces, with per-data-source naming conventions;
//! * customers, eBGP sessions, multicast VPNs, CDN nodes and client sites.
//!
//! On top of the structure sits the [`location`] module: the location types
//! an event can carry and the conversion utilities that let the RCA engine
//! compare events reported at different granularities ("spatial join").
//! Conversions that depend on dynamic routing state are abstracted behind
//! [`location::RouteOracle`], implemented by the `grca-routing` crate.

#![forbid(unsafe_code)]

pub mod config;
pub mod gen;
pub mod ids;
pub mod ip;
pub mod location;
pub mod tier;
pub mod topology;

pub use ids::*;
pub use ip::{Ipv4, Prefix};
pub use location::{JoinLevel, Location, LocationType, NullOracle, RouteOracle, SpatialModel};
pub use tier::TierConfig;
pub use topology::{
    Aggregation, Customer, EbgpSession, Interface, InterfaceKind, L1Device, L1Kind, LineCard,
    LogicalLink, Mvpn, PhysicalLink, Pop, Router, RouterRole, Topology,
};
