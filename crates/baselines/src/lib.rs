//! Comparison strategies for the paper's evaluation (§3's table and the
//! surrounding discussion):
//!
//! * [`mod@hn`] — the Henschen–Naqvi iterative node-set method \[7\];
//! * [`mod@counting`] — the counting and reverse-counting methods \[3\];
//! * [`mod@magic`] — magic sets over adorned programs \[3, 5\];
//! * [`mod@hunt`] — the Hunt–Szymanski–Ullman preconstructed-graph
//!   evaluator \[8\] that the paper's demand-driven algorithm improves on;
//! * [`mod@qsq`] — the query/subquery method \[24\] (memoized top-down);
//! * [`mod@sld`] — Prolog-style SLD resolution (unmemoized top-down, the
//!   paper's "duplication of work" exemplar).
//!
//! Naive and seminaive evaluation live in `rq-datalog`; the paper's own
//! algorithm lives in `rq-engine`.  All strategies charge the same
//! [`rq_common::Counters`], so the E1 harness can put them side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binreach;
pub mod counting;
pub mod hn;
pub mod hunt;
pub mod magic;
pub mod qsq;
pub mod sld;

pub use binreach::{bin_reach, BinReachError, BinReachOutcome};
pub use counting::{counting, reverse_counting, CountingOutcome};
pub use hn::{henschen_naqvi, HnOutcome};
pub use hunt::HuntGraph;
pub use magic::{magic_sets, MagicOutcome};
pub use qsq::{qsq, QsqOutcome};
pub use sld::{sld, SldOutcome};
