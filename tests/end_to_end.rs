//! Cross-crate integration tests: every strategy must produce the same
//! answers on the paper's workloads, and the high-level `solve` API must
//! agree with the bottom-up oracles on all generators.

use recursive_queries::{solve, Strategy};
use rq_baselines::{counting, henschen_naqvi, magic_sets, reverse_counting, HuntGraph};
use rq_common::{Const, ConstValue, Counters, FxHashSet};
use rq_datalog::{naive_eval, Database, Query};
use rq_engine::{EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_workloads::{fig7, fig8, flights, graphs, Workload};

fn oracle_answers(w: &Workload) -> Vec<String> {
    let mut program = w.program.clone();
    let q = Query::parse(&mut program, &w.query).unwrap();
    let res = naive_eval(&program).unwrap();
    let tuples: Vec<Vec<Const>> = res.db.relation(q.pred).iter().map(|t| t.to_vec()).collect();
    q.answer_from_relation(&tuples)
        .into_iter()
        .map(|row| {
            row.iter()
                .map(|&c| program.consts.display(c))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

fn solve_answers(w: &Workload) -> (Vec<String>, Strategy) {
    let s = solve(&w.program, &w.query).unwrap();
    (s.rows(&w.program), s.strategy.expect("a pipeline ran"))
}

#[test]
fn solve_matches_oracle_on_all_generators() {
    let workloads = vec![
        fig7::sample_a(12),
        fig7::sample_b(12),
        fig7::sample_c(12),
        fig8::cyclic(2, 3),
        fig8::cyclic(3, 4),
        fig8::cyclic(2, 4),
        graphs::chain(15),
        graphs::binary_tree(4),
        graphs::grid(4, 4),
        graphs::layered_dag(4, 4, 0.35, 11),
        graphs::sg_tree(4),
        graphs::sg_random(4, 3, 0.4, 5),
        flights::paper_example(),
        flights::network(8, 3, 3),
    ];
    for w in workloads {
        let expected = oracle_answers(&w);
        let (got, _) = solve_answers(&w);
        assert_eq!(got, expected, "workload {}", w.name);
        if let Some(n) = w.expected_answers {
            assert_eq!(got.len(), n, "expected answer count for {}", w.name);
        }
    }
}

#[test]
fn flights_use_section4_pipeline() {
    let w = flights::paper_example();
    let (_, strategy) = solve_answers(&w);
    assert_eq!(strategy, Strategy::Section4);
    let w = graphs::chain(5);
    let (_, strategy) = solve_answers(&w);
    assert_eq!(strategy, Strategy::BinaryChain);
}

/// All five §3-table strategies plus Hunt et al. and seminaive agree on
/// every Figure 7 sample.
#[test]
fn all_strategies_agree_on_fig7() {
    for w in [fig7::sample_a(10), fig7::sample_b(10), fig7::sample_c(10)] {
        let mut program = w.program.clone();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let src_name = w
            .query
            .split('(')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let a = program
            .consts
            .get(&ConstValue::Str(src_name.into()))
            .unwrap();

        let source = EdbSource::new(&db);
        let engine: FxHashSet<Const> = Evaluator::new(&system, &source)
            .evaluate(sg, a, &EvalOptions::default())
            .answers
            .into_iter()
            .collect();
        let hn = henschen_naqvi(&system, &db, sg, a, None).answers;
        let cnt = counting(&system, &db, sg, a, None).answers;
        let rev = reverse_counting(&system, &db, sg, a, None).answers;
        let q = Query::parse(&mut program, &w.query).unwrap();
        let magic: FxHashSet<Const> = magic_sets(&program, &q)
            .unwrap()
            .rows
            .into_iter()
            .map(|row| row[0])
            .collect();

        assert_eq!(hn, engine, "HN vs engine on {}", w.name);
        assert_eq!(cnt, engine, "counting vs engine on {}", w.name);
        assert_eq!(rev, engine, "reverse counting vs engine on {}", w.name);
        assert_eq!(magic, engine, "magic vs engine on {}", w.name);
    }
}

#[test]
fn all_strategies_agree_on_cyclic_fig8() {
    for (m, n) in [(2, 3), (3, 5), (2, 4)] {
        let w = fig8::cyclic(m, n);
        let program = w.program.clone();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a0 = program.consts.get(&ConstValue::Str("a0".into())).unwrap();
        let bound = fig8::sufficient_levels(m, n) + 1;

        let engine: FxHashSet<Const> =
            rq_engine::evaluate_with_cyclic_guard(&system, &db, sg, a0, &EvalOptions::default())
                .answers
                .into_iter()
                .collect();
        let hn = henschen_naqvi(&system, &db, sg, a0, Some(bound)).answers;
        let cnt = counting(&system, &db, sg, a0, Some(bound)).answers;
        assert_eq!(hn, engine, "HN on {}", w.name);
        assert_eq!(cnt, engine, "counting on {}", w.name);
        assert_eq!(engine.len(), w.expected_answers.unwrap());
    }
}

#[test]
fn hunt_agrees_with_engine_on_regular_workloads() {
    for w in [
        graphs::chain(20),
        graphs::binary_tree(4),
        graphs::grid(4, 4),
    ] {
        let program = w.program.clone();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let graph = HuntGraph::build(&db, &system.rhs[&tc]);
        let src_name = w
            .query
            .split('(')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let a = program
            .consts
            .get(&ConstValue::Str(src_name.into()))
            .unwrap();
        let mut counters = Counters::new();
        let hunt = graph.query(a, &mut counters);
        let source = EdbSource::new(&db);
        let engine: FxHashSet<Const> = Evaluator::new(&system, &source)
            .evaluate(tc, a, &EvalOptions::default())
            .answers
            .into_iter()
            .collect();
        assert_eq!(hunt, engine, "{}", w.name);
    }
}

/// Lemma 2(2): running extra iterations after convergence never changes
/// the answer set.
#[test]
fn extra_iterations_are_harmless() {
    let w = fig7::sample_c(10);
    let program = w.program.clone();
    let db = Database::from_program(&program);
    let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    let sg = program.pred_by_name("sg").unwrap();
    let a0 = program.consts.get(&ConstValue::Str("a0".into())).unwrap();
    let source = EdbSource::new(&db);
    let ev = Evaluator::new(&system, &source);
    let natural = ev.evaluate(sg, a0, &EvalOptions::default());
    assert!(natural.converged);
    // A tighter bound below the natural iteration count truncates; a
    // looser one is identical.
    let looser = ev.evaluate(
        sg,
        a0,
        &EvalOptions {
            max_iterations: Some(natural.counters.iterations + 50),
            ..EvalOptions::default()
        },
    );
    assert_eq!(looser.answers, natural.answers);
    assert_eq!(looser.counters.iterations, natural.counters.iterations);
}

/// The engine's §3 pipeline and the §4 pipeline must agree on binary
/// queries that both can answer.
#[test]
fn section3_and_section4_agree_on_binary_queries() {
    for w in [fig7::sample_a(8), fig7::sample_c(8), graphs::sg_tree(3)] {
        let mut program = w.program.clone();
        let q = Query::parse(&mut program, &w.query).unwrap();
        let db = Database::from_program(&program);

        // §4 path.
        let plan =
            rq_adorn::plan_nary_query(&program, q.pred, rq_adorn::Adornment::of_query(&q)).unwrap();
        let (s4, _) = rq_adorn::evaluate_nary(
            &program,
            &db,
            &plan,
            &q.bound_values(),
            &EvalOptions::default(),
        );
        // §3 path.
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let src_name = w
            .query
            .split('(')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let a = program
            .consts
            .get(&ConstValue::Str(src_name.into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let s3 = Evaluator::new(&system, &source).evaluate(q.pred, a, &EvalOptions::default());
        let s4_set: FxHashSet<Const> = s4.iter().map(|row| row[0]).collect();
        let s3_set: FxHashSet<Const> = s3.answers.into_iter().collect();
        assert_eq!(s4_set, s3_set, "{}", w.name);
    }
}
