//! Property tests: the traversal engine must agree with the bottom-up
//! oracles (naive/seminaive Datalog evaluation) on randomly generated
//! linear binary-chain programs and databases, for every query form.

use proptest::prelude::*;
use rq_common::{Const, FxHashSet};
use rq_datalog::{parse_program, Database, Program};
use rq_engine::{all_pairs_per_source, EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, EqSystem, Lemma1Options};

/// A small generated workload: a right-, left-, or middle-linear chain
/// program over `nb` base relations with random facts over `nc`
/// constants.
#[derive(Debug, Clone)]
struct Workload {
    src: String,
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    // shape: 0 = right-linear tc, 1 = left-linear tc, 2 = same-generation
    // (middle linear), 3 = two-predicate mutual recursion.
    let shape = 0..4u8;
    let edges = proptest::collection::vec((0..8u8, 0..8u8), 1..25);
    let edges2 = proptest::collection::vec((0..8u8, 0..8u8), 1..25);
    let edges3 = proptest::collection::vec((0..8u8, 0..8u8), 1..25);
    (shape, edges, edges2, edges3).prop_map(|(shape, e1, e2, e3)| {
        let mut src = String::new();
        match shape {
            0 => {
                src.push_str("p(X,Y) :- e(X,Y).\np(X,Z) :- e(X,Y), p(Y,Z).\n");
            }
            1 => {
                src.push_str("p(X,Y) :- e(X,Y).\np(X,Z) :- p(X,Y), e(Y,Z).\n");
            }
            2 => {
                src.push_str("p(X,Y) :- f(X,Y).\np(X,Z) :- e(X,X1), p(X1,Y1), g(Y1,Z).\n");
            }
            _ => {
                src.push_str(
                    "p(X,Z) :- e(X,Y), q(Y,Z).\n\
                     q(X,Y) :- f(X,Y).\n\
                     q(X,Z) :- p(X,Y), g(Y,Z).\n",
                );
            }
        }
        for (a, b) in &e1 {
            src.push_str(&format!("e(c{a},c{b}).\n"));
        }
        for (a, b) in &e2 {
            src.push_str(&format!("f(c{a},c{b}).\n"));
        }
        for (a, b) in &e3 {
            src.push_str(&format!("g(c{a},c{b}).\n"));
        }
        Workload { src }
    })
}

fn oracle_pairs(program: &Program, pred: rq_common::Pred) -> FxHashSet<(Const, Const)> {
    let res = rq_datalog::seminaive_eval(program).unwrap();
    res.tuples(pred).into_iter().map(|t| (t[0], t[1])).collect()
}

fn build(src: &str) -> Option<(Program, Database, EqSystem)> {
    let program = parse_program(src).ok()?;
    let db = Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default()).ok()?.system;
    Some((program, db, sys))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_bf_matches_seminaive(w in workload_strategy()) {
        let (program, db, sys) = build(&w.src).expect("generated programs are valid");
        let p = program.pred_by_name("p").unwrap();
        let expected = oracle_pairs(&program, p);
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        // All generated data is over constants c0..c7; query each.
        for i in 0..8u8 {
            let Some(a) = program.consts.get(&rq_common::ConstValue::Str(format!("c{i}"))) else {
                continue;
            };
            // The generated up/e relations can be cyclic, making the
            // middle-linear shapes nonterminating; use a generous bound
            // (identical answers require depth ≤ |D1|·|D2| ≤ 64 + 1).
            let out = ev.evaluate(p, a, &EvalOptions { max_iterations: Some(80), ..EvalOptions::default() });
            let got: FxHashSet<Const> = out.answers.into_iter().collect();
            let want: FxHashSet<Const> = expected
                .iter()
                .filter(|(x, _)| *x == a)
                .map(|&(_, y)| y)
                .collect();
            prop_assert_eq!(&got, &want, "bf query from c{} in\n{}", i, w.src);
        }
    }

    #[test]
    fn engine_fb_matches_seminaive(w in workload_strategy()) {
        let (program, db, sys) = build(&w.src).expect("generated programs are valid");
        let p = program.pred_by_name("p").unwrap();
        let expected = oracle_pairs(&program, p);
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        for i in 0..8u8 {
            let Some(b) = program.consts.get(&rq_common::ConstValue::Str(format!("c{i}"))) else {
                continue;
            };
            let out = ev.evaluate_inverse(p, b, &EvalOptions { max_iterations: Some(80), ..EvalOptions::default() });
            let got: FxHashSet<Const> = out.answers.into_iter().collect();
            let want: FxHashSet<Const> = expected
                .iter()
                .filter(|(_, y)| *y == b)
                .map(|&(x, _)| x)
                .collect();
            prop_assert_eq!(&got, &want, "fb query to c{} in\n{}", i, w.src);
        }
    }

    #[test]
    fn engine_all_pairs_matches_seminaive(w in workload_strategy()) {
        let (program, db, sys) = build(&w.src).expect("generated programs are valid");
        let p = program.pred_by_name("p").unwrap();
        let expected = oracle_pairs(&program, p);
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = all_pairs_per_source(
            &ev,
            &source,
            p,
            &EvalOptions { max_iterations: Some(80), ..EvalOptions::default() },
        );
        prop_assert_eq!(&out.pairs, &expected, "all-pairs in\n{}", w.src);
    }

    #[test]
    fn scc_all_pairs_matches_on_regular(edges in proptest::collection::vec((0..10u8, 0..10u8), 1..40)) {
        let mut src = String::from("p(X,Y) :- e(X,Y).\np(X,Z) :- e(X,Y), p(Y,Z).\n");
        for (a, b) in &edges {
            src.push_str(&format!("e(c{a},c{b}).\n"));
        }
        let (program, db, sys) = build(&src).expect("valid");
        let p = program.pred_by_name("p").unwrap();
        let expected = oracle_pairs(&program, p);
        let source = EdbSource::new(&db);
        let got = rq_engine::all_pairs_scc(&sys, &source, p, &EvalOptions::default());
        prop_assert_eq!(&got.pairs, &expected);
    }

    #[test]
    fn cyclic_guard_is_complete(m in 1..5usize, n in 1..5usize) {
        // Figure 8 generalized: up cycle of length m, down cycle of
        // length n, flat at the cycle anchor.
        let mut src = String::from(
            "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n",
        );
        for i in 0..m {
            src.push_str(&format!("up(a{}, a{}).\n", i, (i + 1) % m));
        }
        src.push_str("flat(a0, b0).\n");
        for i in 0..n {
            src.push_str(&format!("down(b{}, b{}).\n", i, (i + 1) % n));
        }
        let (program, db, sys) = build(&src).expect("valid");
        let sg = program.pred_by_name("sg").unwrap();
        let a0 = program.consts.get(&rq_common::ConstValue::Str("a0".into())).unwrap();
        let expected: FxHashSet<Const> = oracle_pairs(&program, sg)
            .into_iter()
            .filter(|(x, _)| *x == a0)
            .map(|(_, y)| y)
            .collect();
        let out = rq_engine::evaluate_with_cyclic_guard(&sys, &db, sg, a0, &EvalOptions::default());
        let got: FxHashSet<Const> = out.answers.into_iter().collect();
        prop_assert_eq!(&got, &expected, "m={} n={}", m, n);
    }
}
