//! grca-core — the Generic Root Cause Analysis platform itself.
//!
//! This crate is the paper's primary contribution: the abstraction of root
//! cause analysis into signature identification (delegated to
//! `grca-events`), temporal and spatial event correlation, and reasoning
//! and inference logic, plus the rule-specification language and the
//! knowledge-building tooling around them.
//!
//! * [`join`] — temporal expansion rules (Fig. 3) and spatial join rules;
//! * [`graph`] — diagnosis graphs / rules with priorities (Figs. 4–6);
//! * [`dsl`] — the rule specification language (parse + render);
//! * [`engine`] — the Generic RCA Engine: spatio-temporal correlation and
//!   rule-based priority reasoning (§II-C, §II-D.1);
//! * [`bayes`] — the Naive-Bayes inference engine with fuzzy parameters
//!   and multi-symptom joint inference (§II-D.2);
//! * [`library`] — the Table II diagnosis-rule Knowledge Library;
//! * [`browser`] — the Result Browser: breakdowns, trends, drill-down;
//! * [`discovery`] — blind correlation screening for new diagnosis rules
//!   (§II-E, §IV).

#![forbid(unsafe_code)]

pub mod bayes;
pub mod browser;
pub mod discovery;
pub mod dsl;
pub mod engine;
pub mod graph;
pub mod join;
pub mod library;
pub mod stream;

pub use bayes::{
    degraded_log_confidence, snap_to_fuzzy, train, BayesModel, ClassScore, ClassSpec, FeatureRatio,
    Fuzzy, TrainingExample,
};
pub use browser::{
    drill_down, render_diagnosis, render_trend, Breakdown, DrillDown, ResultBrowser,
};
pub use discovery::{
    candidate_series, screen, screen_baseline, screen_parallel, significant, CandidateCache,
    ScreenHit, Screening, SeriesGrid,
};
pub use dsl::{parse_graph, render_graph};
pub use engine::{Diagnosis, Engine, Evidence, RuleIndex, UNKNOWN};
pub use graph::{DiagnosisGraph, DiagnosisRule};
pub use join::{ExpandOption, Expansion, SpatialRule, TemporalRule};
pub use library::knowledge_rules;
pub use stream::{fold_stream, Emission, EmissionMode};
