//! Properties of the epoch-scoped [`EvalContext`]: a shared context
//! never changes any answer — it only removes work — and only
//! complete, converged runs are ever recorded into it.

use rq_common::Const;
use rq_engine::{EdbSource, EvalContext, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};

/// Answers arrive sorted and duplicate-free; say so while comparing.
fn sorted(answers: &[Const]) -> &[Const] {
    assert!(answers.windows(2).all(|w| w[0] < w[1]));
    answers
}

#[test]
fn context_reuses_whole_traversals_and_sub_traversals() {
    // up-chain of depth 3 over a same-generation program: sg(a0, Y)
    // expands child copies from a1 and deeper.  Priming the context
    // with sg(a1, Y) must let sg(a0, Y) skip that whole sub-traversal.
    let src = "sg(X,Y) :- flat(X,Y).\n\
               sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
               up(a0,a1). up(a1,a2). up(a2,a3).\n\
               flat(a0,c0). flat(a1,c1). flat(a2,c2). flat(a3,c3).\n\
               down(c1,d1). down(c2,e2). down(e2,d2). down(c3,f3). down(f3,f4). down(f4,d3).";
    let program = rq_datalog::parse_program(src).unwrap();
    let db = rq_datalog::Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    let sg = program.pred_by_name("sg").unwrap();
    let konst = |s: &str| {
        program
            .consts
            .get(&rq_common::ConstValue::Str(s.into()))
            .unwrap()
    };
    let source = EdbSource::new(&db);

    let cold = Evaluator::new(&sys, &source);
    let cold_a0 = cold.evaluate(sg, konst("a0"), &EvalOptions::default());
    assert!(cold_a0.converged);

    let ctx = EvalContext::new();
    let warm = Evaluator::new(&sys, &source).with_context(&ctx);
    // Prime with the sub-query.
    let a1_first = warm.evaluate(sg, konst("a1"), &EvalOptions::default());
    assert!(a1_first.converged);
    assert_eq!(ctx.entries(), 1);
    // Root-level reuse: the repeat costs nothing.
    let a1_again = warm.evaluate(sg, konst("a1"), &EvalOptions::default());
    assert_eq!(sorted(&a1_again.answers), sorted(&a1_first.answers));
    assert_eq!(
        a1_again.counters.nodes_inserted, 0,
        "root memo hit builds no graph"
    );
    // Sub-traversal reuse: sg(a0, Y) teleports through the memoized
    // sg(a1, ·) answers instead of splicing that child's sub-machine.
    let warm_a0 = warm.evaluate(sg, konst("a0"), &EvalOptions::default());
    assert_eq!(sorted(&warm_a0.answers), sorted(&cold_a0.answers));
    assert!(
        warm_a0.counters.nodes_inserted < cold_a0.counters.nodes_inserted,
        "warm {} !< cold {}",
        warm_a0.counters.nodes_inserted,
        cold_a0.counters.nodes_inserted
    );
    assert!(ctx.stats().hits >= 2);
}

#[test]
fn context_never_records_truncated_or_early_stopped_runs() {
    let src = "sg(X,Y) :- flat(X,Y).\n\
               sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
               up(a1,a2). up(a2,a1). flat(a1,b1).\n\
               down(b1,b2). down(b2,b3). down(b3,b1).";
    let program = rq_datalog::parse_program(src).unwrap();
    let db = rq_datalog::Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    let sg = program.pred_by_name("sg").unwrap();
    let a1 = program
        .consts
        .get(&rq_common::ConstValue::Str("a1".into()))
        .unwrap();
    let b1 = program
        .consts
        .get(&rq_common::ConstValue::Str("b1".into()))
        .unwrap();
    let source = EdbSource::new(&db);
    let ctx = EvalContext::new();
    let evaluator = Evaluator::new(&sys, &source).with_context(&ctx);
    // Iteration-bounded on cyclic data: truncated, must not record.
    let bounded = evaluator.evaluate(
        sg,
        a1,
        &EvalOptions {
            max_iterations: Some(2),
            ..EvalOptions::default()
        },
    );
    assert!(!bounded.converged);
    assert_eq!(ctx.entries(), 0, "truncated runs must not be memoized");
    // Early-stopped membership: partial by design, must not record.
    let stopped = evaluator.evaluate(
        sg,
        a1,
        &EvalOptions {
            max_iterations: Some(100),
            stop_on_answer: Some(b1),
            ..EvalOptions::default()
        },
    );
    assert!(stopped.converged);
    assert_eq!(ctx.entries(), 0, "early-stopped runs must not be memoized");
}

#[test]
fn context_entry_cap_bounds_recording_without_changing_answers() {
    let src = "tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b). e(b,c). e(c,d).";
    let program = rq_datalog::parse_program(src).unwrap();
    let db = rq_datalog::Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    let tc = program.pred_by_name("tc").unwrap();
    let ctx = EvalContext::with_capacity(1);
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&sys, &source).with_context(&ctx);
    let uncapped = Evaluator::new(&sys, &source);
    for name in ["a", "b", "c"] {
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str(name.into()))
            .unwrap();
        let capped_out = evaluator.evaluate(tc, a, &EvalOptions::default());
        let plain_out = uncapped.evaluate(tc, a, &EvalOptions::default());
        assert_eq!(sorted(&capped_out.answers), sorted(&plain_out.answers));
    }
    assert_eq!(ctx.entries(), 1, "the cap refuses keys beyond the first");
}
