//! RCA applications built on the G-RCA platform (§III).
//!
//! Each application is *configuration*: a handful of app-specific event
//! definitions (Tables III, V, VII), a diagnosis graph combining Knowledge
//! Library rules with a few app-specific rules (Figs. 4–6), and priorities.
//! No application contains correlation or reasoning code of its own — that
//! is the paper's point.
//!
//! * [`bgp`] — customer eBGP session flaps (+ the Fig. 8 Bayesian config);
//! * [`cdn`] — CDN round-trip-time degradations;
//! * [`pim`] — PIM MVPN neighbor adjacency changes;
//! * [`e2e`] — in-network packet-loss RCA (the §I motivating scenario,
//!   pure Knowledge Library reuse);
//! * [`context`] — shared plumbing (routing reconstruction, app runner);
//! * [`report`] — paper-table category mapping and ground-truth scoring;
//! * [`Study`] — the application table: definitions, graph, batch run and
//!   online pipeline of each paper study, looked up by one enum.

#![forbid(unsafe_code)]

pub mod bgp;
pub mod cdn;
pub mod checkpoint;
pub mod context;
pub mod e2e;
pub mod online;
pub mod pim;
pub mod report;
mod study;

pub use checkpoint::{PipelineCheckpoint, CHECKPOINT_VERSION};
pub use context::{build_routing, run_app, run_app_differential, AppOutput, DiffOutput};
pub use online::OnlineRca;
pub use report::{
    category_breakdown, label_category, score, study_symptom, truth_category, Accuracy,
    CategoryScore, Study,
};
