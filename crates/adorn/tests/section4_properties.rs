//! Property tests for the §4 pipeline: on randomized databases for a
//! family of chain programs, plan + `evaluate_nary` must agree with
//! bottom-up evaluation for every binding pattern that passes the chain
//! check.

use proptest::prelude::*;
use rq_adorn::{evaluate_nary, oracle_rows, plan_nary_query, Adornment, QueryError};
use rq_datalog::{parse_program, Database, Query};
use rq_engine::EvalOptions;

/// Facts over a small constant pool for the given binary predicates.
fn facts_strategy(preds: &'static [&'static str]) -> impl Strategy<Value = String> {
    proptest::collection::vec((0..preds.len(), 0..7u8, 0..7u8), 4..28).prop_map(move |v| {
        let mut out = String::new();
        for (p, x, y) in v {
            out.push_str(&format!("{}(k{x},k{y}).\n", preds[p]));
        }
        // Keep every predicate nonempty so arities are declared.
        for p in preds {
            out.push_str(&format!("{p}(k0,k1).\n"));
        }
        out
    })
}

/// 3-ary facts.
fn facts3_strategy(pred: &'static str) -> impl Strategy<Value = String> {
    proptest::collection::vec((0..6u8, 0..6u8, 0..6u8), 4..24).prop_map(move |v| {
        let mut out = String::new();
        for (x, y, z) in v {
            out.push_str(&format!("{pred}(k{x},k{y},k{z}).\n"));
        }
        out
    })
}

fn check_query(src: &str, query: &str) -> Result<(), TestCaseError> {
    let mut program = parse_program(src).expect("generated program parses");
    let q = Query::parse(&mut program, query).expect("query parses");
    let db = Database::from_program(&program);
    let options = EvalOptions {
        // Random data can be cyclic; bound generously (well above any
        // |D1|·|D2| for 7 constants).
        max_iterations: Some(200),
        ..EvalOptions::default()
    };
    match plan_nary_query(&program, q.pred, Adornment::of_query(&q)) {
        Ok(plan) => {
            let (rows, _) = evaluate_nary(&program, &db, &plan, &q.bound_values(), &options);
            let oracle = oracle_rows(&program, &q);
            prop_assert_eq!(
                &rows.to_vecs(),
                &oracle,
                "query {} on\n{}\nsystem:\n{}",
                query,
                src,
                plan.binary.display_system(&program)
            );
        }
        Err(QueryError::NotChain(_)) => {
            // Acceptable: the binding pattern falls outside the class.
        }
        Err(e) => prop_assert!(false, "unexpected error {e} for {query}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Same generation, all four binding patterns.
    #[test]
    fn sg_all_patterns(facts in facts_strategy(&["up", "down", "flat"])) {
        let src = format!(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n{facts}"
        );
        for q in ["sg(k0, Y)", "sg(X, k1)", "sg(k0, k1)", "sg(X, Y)"] {
            check_query(&src, q)?;
        }
    }

    /// Naughton's argument-swapping recursion (generates two mutually
    /// recursive adornments).
    #[test]
    fn naughton_swapped_recursion(facts in facts_strategy(&["b0", "b1"])) {
        let src = format!(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n{facts}"
        );
        for q in ["p(k0, Y)", "p(X, k1)", "p(k2, k3)"] {
            check_query(&src, q)?;
        }
    }

    /// A 3-ary graded reachability program.
    #[test]
    fn three_ary_graded(facts in facts_strategy(&["edge"]), facts3 in facts3_strategy("tri")) {
        let src = format!(
            "r(A,B,N) :- tri(A,B,N).\n\
             r(A,B,N) :- edge(A,C), r(C,B,M), step(M,N).\n\
             {facts}{facts3}\
             step(k0,k1). step(k1,k2). step(k2,k3). step(k3,k4).\n"
        );
        for q in ["r(k0, B, N)", "r(k1, B, N)"] {
            check_query(&src, q)?;
        }
    }

    /// A 4-ary program shaped like the flight example (without built-ins
    /// so any data works).
    #[test]
    fn four_ary_flightlike(facts in proptest::collection::vec((0..5u8, 0..5u8, 0..5u8, 0..5u8), 4..20)) {
        let mut fact_src = String::new();
        for (a, b, c, d) in facts {
            fact_src.push_str(&format!("hop(k{a},k{b},k{c},k{d}).\n"));
        }
        let src = format!(
            "go(S,T,D,U) :- hop(S,T,D,U).\n\
             go(S,T,D,U) :- hop(S,T,D1,U1), go(D1,U1,D,U).\n{fact_src}"
        );
        for q in ["go(k0, k1, D, U)", "go(k2, k0, D, U)"] {
            check_query(&src, q)?;
        }
    }
}
