//! Property test for the plan cache (satellite of the service work):
//! answering through a **cached** compile for `(program, predicate,
//! adornment)` must be indistinguishable from a **fresh** `lemma1` +
//! `Evaluator` run, across the `rq-workloads` generators (fig7, fig8,
//! randprog) and both adornments.

use proptest::prelude::*;
use rq_common::Const;
use rq_engine::{cyclic_iteration_bound, EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_service::{QueryService, QuerySpec, ServiceConfig};
use rq_workloads::randprog::{random_program, RandProgConfig, RecursionStyle};
use rq_workloads::{fig7, fig8, Workload};

/// Fresh pipeline (no caches anywhere) for one point query: its rows,
/// and whether it converged before the `m·n` bound cut it (only such
/// an answer is complete as traversed, and so memoized).
fn fresh_rows(workload: &Workload, spec: &QuerySpec) -> (Vec<Vec<Const>>, bool) {
    let db = rq_datalog::Database::from_program(&workload.program);
    let system = lemma1(&workload.program, &Lemma1Options::default())
        .expect("binary-chain")
        .system;
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&system, &source);
    let constant = spec.bound_values()[0];
    let inverse = spec.free_positions() == vec![0];
    let max_iterations =
        cyclic_iteration_bound(&system, &db, spec.pred, constant, inverse).map(|b| b + 1);
    let options = EvalOptions {
        max_iterations,
        ..EvalOptions::default()
    };
    let outcome = if inverse {
        evaluator.evaluate_inverse(spec.pred, constant, &options)
    } else {
        evaluator.evaluate(spec.pred, constant, &options)
    };
    let mut rows: Vec<Vec<Const>> = outcome.answers.into_iter().map(|c| vec![c]).collect();
    rows.sort_unstable();
    (rows, outcome.converged)
}

/// Ask the service the same query twice — a plan-cache miss, then a
/// plan-cache hit that the epoch memo answers without a traversal
/// unless the `m·n` bound cut the first run — and require both to
/// equal the fresh run.
fn check_cached_equals_fresh(workload: &Workload, pred_name: &str) {
    let service = QueryService::with_config(workload.program.clone(), ServiceConfig::default());
    let snapshot = service.snapshot();
    let pred = snapshot.program().pred_by_name(pred_name).unwrap();
    let constants: Vec<Const> = (0..snapshot.program().consts.len().min(12))
        .map(Const::from_index)
        .collect();
    for constant in constants {
        for spec in [
            QuerySpec::bound_free(pred, constant),
            QuerySpec::free_bound(pred, constant),
        ] {
            let (fresh, natural) = fresh_rows(workload, &spec);
            let first = service.query(&spec).unwrap();
            assert!(!first.from_cache);
            assert_eq!(
                first.rows.to_vecs(),
                fresh,
                "{}: first {:?}",
                workload.name,
                spec
            );
            let memoized = service.query(&spec).unwrap();
            assert_eq!(memoized.from_cache, natural, "{}: {spec:?}", workload.name);
            assert_eq!(
                memoized.rows.to_vecs(),
                fresh,
                "{}: memoized {:?}",
                workload.name,
                spec
            );
        }
    }
    // Everything above compiled the program exactly once.
    assert_eq!(service.plan_cache().programs(), 1, "{}", workload.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fig7_cached_plans_answer_like_fresh_compiles(
        sample in 0usize..3,
        n in 2usize..10,
    ) {
        let workload = [fig7::sample_a, fig7::sample_b, fig7::sample_c][sample](n);
        check_cached_equals_fresh(&workload, "sg");
    }

    #[test]
    fn fig8_cached_plans_answer_like_fresh_compiles(
        m in 1usize..5,
        n in 1usize..5,
    ) {
        check_cached_equals_fresh(&fig8::cyclic(m, n), "sg");
    }

    #[test]
    fn randprog_cached_plans_answer_like_fresh_compiles(
        seed in 0u64..500,
        style_pick in 0usize..3,
        groups in 1usize..3,
        domain in 4usize..10,
        facts in 4usize..16,
    ) {
        let style = [
            RecursionStyle::Regular,
            RecursionStyle::MiddleLinear,
            RecursionStyle::Mixed,
        ][style_pick];
        let rp = random_program(&RandProgConfig {
            seed,
            groups,
            style,
            domain,
            facts_per_base: facts,
            ..RandProgConfig::default()
        });
        let workload = Workload {
            name: format!("randprog(seed={seed})"),
            program: rp.program.clone(),
            query: format!("{}(n0, Y)", rp.derived[0]),
            expected_answers: None,
        };
        for name in &rp.derived {
            check_cached_equals_fresh(&workload, name);
        }
    }
}
