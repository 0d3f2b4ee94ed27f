//! The paper's core contribution: demand-driven graph-traversal
//! evaluation of queries over regularly and linearly recursive
//! binary-chain Datalog programs (§3, Figures 4–5).
//!
//! The pipeline is: Datalog program → equation system (`rq-relalg`,
//! Lemma 1) → automata `M(e_p)` (`rq-automata`) → traversal of the
//! interpretation graph `G(p, a, i)` over a [`TupleSource`].
//!
//! ```
//! use rq_datalog::parse_program;
//! use rq_relalg::{lemma1, Lemma1Options};
//! use rq_engine::{EdbSource, EvalOptions, Evaluator};
//!
//! let program = parse_program(
//!     "tc(X,Y) :- e(X,Y).\n\
//!      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
//!      e(a,b). e(b,c).",
//! ).unwrap();
//! let db = rq_datalog::Database::from_program(&program);
//! let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
//! let tc = program.pred_by_name("tc").unwrap();
//! let a = program.consts.get(&rq_common::ConstValue::Str("a".into())).unwrap();
//! let source = EdbSource::new(&db);
//! let evaluator = Evaluator::new(&system, &source);
//! let outcome = evaluator.evaluate(tc, a, &EvalOptions::default());
//! assert_eq!(outcome.answers.len(), 2); // {b, c}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod image;
#[cfg(test)]
mod kernel_props;
mod nodeset;
pub mod query;
pub mod source;
pub mod traversal;

pub use context::{EvalContext, EvalContextStats, DEFAULT_CONTEXT_ENTRIES};
pub use image::{image, image_of};
pub use query::{
    all_pairs_min_side, all_pairs_per_source, all_pairs_scc, candidate_sources,
    cyclic_iteration_bound, evaluate_guarded, evaluate_with_cyclic_guard, query_bb, query_diagonal,
    AllPairsOutcome, EvalSide,
};
pub use source::{EdbSource, TupleSource};
pub use traversal::repair::RepairOutcome;
pub use traversal::{CompiledPlan, EvalOptions, EvalOutcome, Evaluator, IterationStat};
