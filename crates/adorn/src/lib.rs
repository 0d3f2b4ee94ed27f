//! §4 of the paper: evaluating a subset of n-ary linearly recursive
//! queries by transformation to binary-chain programs.
//!
//! * [`mod@adornment`] — adorned programs (sideways information passing,
//!   conditions (1)–(5)) and the chain condition of Lemma 6;
//! * [`mod@transform`] — the `bin-p^a` / `base-r` / `in-r` / `out-r`
//!   construction producing a binary-chain equation system over tuple
//!   constants;
//! * [`mod@source`] — demand-driven retrieval of the virtual relations by
//!   joining the original database with the query bindings instantiated;
//! * [`mod@api`] — planning and evaluation of one `(predicate,
//!   adornment)`: [`plan_nary_query`] and [`evaluate_nary`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adornment;
pub mod api;
pub mod source;
pub mod transform;

pub use adornment::{
    adorn, adorn_for, chain_violations, condition3_violations, display_adorned, AdornError,
    AdornedBody, AdornedPred, AdornedProgram, AdornedRule, Adornment,
};
pub use api::{
    bottom_up_counters, evaluate_nary, evaluate_nary_shared, oracle_rows, plan_nary_query,
    plan_nary_query_unchecked, NaryPlan, QueryError,
};
pub use source::{delta_pairs, ProbeSpace, ProbeStats, VirtualSource, DEFAULT_PROBE_ENTRIES};
pub use transform::{transform, BinaryProgram, VirtualKind, VirtualRel};
