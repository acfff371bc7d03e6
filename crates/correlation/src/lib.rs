//! Statistical correlation testing for G-RCA (the Correlation Tester of
//! Fig. 1 / §II-E).
//!
//! G-RCA validates every diagnosis rule — and discovers new ones — by
//! testing whether symptom and diagnostic event series are statistically
//! correlated. The implementation follows NICE [Mahimkar et al., CoNEXT
//! 2008]: Pearson correlation scored against a *circular-permutation* null
//! distribution, which is robust to the autocorrelation that pervades
//! network event series.

#![forbid(unsafe_code)]

pub mod nice;
pub mod series;
pub mod sparse;

pub use nice::{CorrelationResult, CorrelationTester};
pub use series::{pearson, EventSeries};
pub use sparse::SparseBinary;
