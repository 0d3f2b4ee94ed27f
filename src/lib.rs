//! # recursive-queries
//!
//! A Rust implementation of Grahne, Sippu & Soisalon-Soininen,
//! *Efficient Evaluation for a Subset of Recursive Queries*
//! (PODS 1987; JLP 1991, 10:301–332): graph-traversal evaluation of
//! regularly and linearly recursive binary-chain Datalog programs, and
//! the transformation that reduces a subset of n-ary linear queries to
//! binary-chain queries while propagating the query bindings.
//!
//! The crates compose as a pipeline:
//!
//! ```text
//! rq-datalog  →  rq-relalg (Lemma 1)  →  rq-automata (M(e): ε-free, EM(p,i))
//!            →  rq-engine (Figures 4–5)   ← rq-adorn (§4, n-ary queries)
//! ```
//!
//! with `rq-baselines` (naive/seminaive live in `rq-datalog`;
//! Henschen–Naqvi, magic sets, counting, reverse counting, Hunt et al.
//! here) and `rq-workloads` supporting the benchmark harness.
//!
//! The simplest entry point is [`solve`]: a single-threaded
//! [`rq_service::QueryService`] around the program, asked through the
//! same text entry ([`rq_service::QueryService::answer_text`]) that
//! `rqc`, the REPL and the HTTP server use — there is one route from
//! query text to answer rows, and `solve` is its smallest client.
//!
//! ```
//! use recursive_queries::solve;
//!
//! let program = rq_datalog::parse_program(
//!     "sg(X,Y) :- flat(X,Y).\n\
//!      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
//!      up(a,a1). flat(a1,b1). down(b1,b). flat(a,z).",
//! ).unwrap();
//! let solution = solve(&program, "sg(a, Y)").unwrap();
//! assert_eq!(solution.rows(&program), vec!["b", "z"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use rq_adorn;
pub use rq_automata;
pub use rq_baselines;
pub use rq_common;
pub use rq_datalog;
pub use rq_engine;
pub use rq_relalg;
pub use rq_service;
pub use rq_workloads;

use rq_common::{Const, Counters};
use rq_datalog::Program;
use rq_engine::EvalOptions;
use rq_service::{QueryService, ServiceConfig};

/// Which pipeline answered the query: §3 binary-chain traversal or the
/// §4 transformation (the service's [`rq_service::Route`]).
pub use rq_service::Route as Strategy;
/// Errors from [`solve`]: the service's, so every front end rejects a
/// query with the same message.
pub use rq_service::ServiceError as SolveError;

/// A solved query.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Answer rows over the query's free positions, sorted.
    pub answers: Vec<Vec<Const>>,
    /// Unit-cost instrumentation of the run that produced the answers
    /// (zero when none ran: a memo root hit, an answer that is empty by
    /// construction).
    pub counters: Counters,
    /// Whether evaluation converged naturally (`false` means an
    /// iteration bound or node budget cut it off).
    pub converged: bool,
    /// Which pipeline ran; `None` when the answer is empty by
    /// construction (the query names a constant the data never
    /// mentions), so nothing had to.
    pub strategy: Option<Strategy>,
}

impl Solution {
    /// Answer rows rendered with the program's constant names.
    pub fn rows(&self, program: &Program) -> Vec<String> {
        self.answers
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| program.consts.display(c))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }
}

/// Answer a query with the default options.
pub fn solve(program: &Program, query_text: &str) -> Result<Solution, SolveError> {
    solve_with(program, query_text, &EvalOptions::default())
}

/// Answer a query through a one-shot service: the §3 binary-chain
/// pipeline when it applies, the §4 transformation otherwise — the
/// service's routing, cyclic guard and node budget, not a copy of them.
pub fn solve_with(
    program: &Program,
    query_text: &str,
    options: &EvalOptions,
) -> Result<Solution, SolveError> {
    solve_on(&single_threaded(program.clone(), options), query_text)
}

/// A service that runs everything on the caller's thread, evaluating
/// with `options` — what `solve` and the REPL ask their queries of.
pub(crate) fn single_threaded(program: Program, options: &EvalOptions) -> QueryService {
    QueryService::with_config(
        program,
        ServiceConfig {
            options: options.clone(),
            ..ServiceConfig::default()
        },
    )
}

/// Answer one query text on `service`'s current snapshot.
pub(crate) fn solve_on(service: &QueryService, query_text: &str) -> Result<Solution, SolveError> {
    let answer = service.answer_text(&service.snapshot(), query_text)?.answer;
    Ok(Solution {
        answers: answer.rows.to_vecs(),
        counters: answer.counters,
        converged: answer.converged,
        strategy: answer.route,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    #[test]
    fn solve_picks_binary_chain_for_sg() {
        let p = parse_program(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). flat(a1,b1). down(b1,b).",
        )
        .unwrap();
        let s = solve(&p, "sg(a, Y)").unwrap();
        assert_eq!(s.strategy, Some(Strategy::BinaryChain));
        assert_eq!(s.rows(&p), vec!["b"]);
    }

    #[test]
    fn solve_picks_section4_for_nary() {
        let p = parse_program(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,540,ams,690). flight(ams,720,cdg,810). is_deptime(540). is_deptime(720).",
        )
        .unwrap();
        let s = solve(&p, "cnx(hel, 540, D, AT)").unwrap();
        assert_eq!(s.strategy, Some(Strategy::Section4));
        assert_eq!(s.rows(&p), vec!["ams,690", "cdg,810"]);
    }

    #[test]
    fn solve_all_query_forms() {
        let src = "tc(X,Y) :- e(X,Y).\n\
                   tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                   e(a,b). e(b,c).";
        let p = parse_program(src).unwrap();
        assert_eq!(solve(&p, "tc(a, Y)").unwrap().rows(&p), vec!["b", "c"]);
        assert_eq!(solve(&p, "tc(X, c)").unwrap().rows(&p), vec!["a", "b"]);
        assert_eq!(solve(&p, "tc(a, c)").unwrap().rows(&p), vec![""]);
        assert!(solve(&p, "tc(c, a)").unwrap().rows(&p).is_empty());
        assert_eq!(solve(&p, "tc(X, Y)").unwrap().answers.len(), 3);
    }

    #[test]
    fn solve_diagonal_query() {
        // tc(X, X) is the diagonal — the members of cycles — with one
        // answer column, not all pairs.
        let p = parse_program(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,a). e(b,c).",
        )
        .unwrap();
        let s = solve(&p, "tc(X, X)").unwrap();
        assert_eq!(s.rows(&p), vec!["a", "b"]);
        // Distinct variables still mean all pairs.
        assert_eq!(solve(&p, "tc(X, Y)").unwrap().answers.len(), 6);
        // The anonymous variable never constrains.
        assert_eq!(solve(&p, "tc(_, _)").unwrap().answers.len(), 6);
    }

    #[test]
    fn solve_repeated_vars_through_section4() {
        // A 3-ary program queried with a repeated variable: walk(X, X, T)
        // asks for round trips.  The edge relation is cyclic (that is
        // what makes round trips exist), so the §4 traversal needs an
        // iteration bound — the paper's noted cyclic-data limitation.
        // The tick chain ends at t3, so depth 8 covers every answer.
        let p = parse_program(
            "walk(A,B,T) :- edge(A,B), t0(T).\n\
             walk(A,B,T) :- edge(A,C), walk(C,B,T1), tick(T1,T).\n\
             edge(a,b). edge(b,a). edge(b,c).\n\
             t0(t0). tick(t0,t1). tick(t1,t2). tick(t2,t3).",
        )
        .unwrap();
        let options = EvalOptions {
            max_iterations: Some(8),
            ..EvalOptions::default()
        };
        let s = solve_with(&p, "walk(a, a, T)", &options).unwrap();
        // Bound-bound round trip from a: a→b→a at t1 (and longer at t3).
        assert_eq!(s.rows(&p), vec!["t1", "t3"]);
        // Repeated free variable: all round trips, projected to one
        // endpoint column plus the tick.
        let s = solve_with(&p, "walk(X, X, T)", &options).unwrap();
        let oracle = rq_datalog::seminaive_eval(&p).unwrap();
        let walk = p.pred_by_name("walk").unwrap();
        let mut expected: Vec<Vec<Const>> = oracle
            .tuples(walk)
            .into_iter()
            .filter(|t| t[0] == t[1])
            .map(|t| vec![t[0], t[2]])
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(s.answers, expected);
        assert!(!s.answers.is_empty());
    }

    #[test]
    fn node_budget_stops_divergent_section4_queries() {
        // Without a bound this query diverges (cyclic edge data through
        // §4 — the paper's noted limitation); the node budget turns the
        // divergence into a clean incomplete result.
        let p = parse_program(
            "walk(A,B,T) :- edge(A,B), t0(T).\n\
             walk(A,B,T) :- edge(A,C), walk(C,B,T1), tick(T1,T).\n\
             edge(a,b). edge(b,a).\n\
             t0(t0). tick(t0,t1).",
        )
        .unwrap();
        let options = EvalOptions {
            node_budget: Some(10_000),
            ..EvalOptions::default()
        };
        let s = solve_with(&p, "walk(a, a, T)", &options).unwrap();
        assert!(!s.converged, "budget stop must report non-convergence");
        // The answers found within the budget are sound: a→b→a at t1.
        assert!(s.rows(&p).contains(&"t1".to_string()));
    }

    #[test]
    fn solve_cyclic_terminates() {
        let p = parse_program(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a0,a1). up(a1,a0). flat(a0,b0).\n\
             down(b0,b1). down(b1,b2). down(b2,b0).",
        )
        .unwrap();
        let s = solve(&p, "sg(a0, Y)").unwrap();
        assert_eq!(s.rows(&p).len(), 3);
    }

    #[test]
    fn solve_reports_query_errors() {
        // The service's rules, not a second parser's: a base predicate
        // has nothing to derive, and `a b` is not a constant.
        let p = parse_program("tc(X,Y) :- e(X,Y).\ne(a,b).").unwrap();
        for (query, kind) in [
            ("nosuch(a, Y)", "unknown predicate"),
            ("e(a, Y)", "base predicate"),
            ("tc(a b, Y)", "malformed query"),
        ] {
            let message = solve(&p, query).unwrap_err().to_string();
            assert!(message.contains(kind), "{query}: {message}");
        }
        // A constant the data never mentions: empty, and nothing ran.
        let unseen = solve(&p, "tc(zz, Y)").unwrap();
        assert!(unseen.answers.is_empty() && unseen.strategy.is_none());
    }
}
