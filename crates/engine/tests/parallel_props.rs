//! Properties of the parallel machine-instance expansion and the
//! epoch-scoped [`EvalContext`]:
//!
//! * the parallel traversal phase produces **byte-identical** answer
//!   sets to the single-threaded path, on random programs, on cyclic
//!   data, and under iteration bounds (the per-iteration traversal is
//!   exhaustive in both modes, so nothing about the answer set may
//!   depend on thread scheduling);
//! * a shared [`EvalContext`] never changes any answer — it only
//!   removes work — and only complete, converged runs are ever
//!   recorded into it.

use proptest::prelude::*;
use rq_common::Const;
use rq_engine::{EdbSource, EvalContext, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_workloads::randprog::{seeded, RecursionStyle};

/// Answers arrive sorted and duplicate-free; say so while comparing.
fn sorted(answers: &[Const]) -> &[Const] {
    assert!(answers.windows(2).all(|w| w[0] < w[1]));
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random binary-chain programs: every derived predicate evaluated
    /// from every constant agrees between 1 and 4 expansion threads,
    /// in both orientations.
    #[test]
    fn parallel_expansion_matches_sequential(seed in 0u64..400, style_pick in 0u8..2) {
        let style = if style_pick == 0 { RecursionStyle::Mixed } else { RecursionStyle::Regular };
        let rp = seeded(seed, style);
        let db = rq_datalog::Database::from_program(&rp.program);
        let sys = lemma1(&rp.program, &Lemma1Options::default()).unwrap().system;
        let source = EdbSource::new(&db);
        let evaluator = Evaluator::new(&sys, &source);
        let sequential = EvalOptions { max_iterations: Some(64), ..EvalOptions::default() };
        let parallel = EvalOptions { expand_threads: 4, ..sequential.clone() };
        for &p in &sys.lhs {
            for c in 0..rp.program.consts.len() {
                let a = Const::from_index(c);
                let seq = evaluator.evaluate(p, a, &sequential);
                let par = evaluator.evaluate(p, a, &parallel);
                prop_assert_eq!(sorted(&seq.answers), sorted(&par.answers));
                prop_assert_eq!(seq.converged, par.converged);
                prop_assert_eq!(seq.graph_nodes, par.graph_nodes);
                let seq_inv = evaluator.evaluate_inverse(p, a, &sequential);
                let par_inv = evaluator.evaluate_inverse(p, a, &parallel);
                prop_assert_eq!(sorted(&seq_inv.answers), sorted(&par_inv.answers));
            }
        }
    }
}

/// Skewed graphs are the work-stealing scheduler's reason to exist: a
/// round-robin seed deal strands all the work on whichever worker drew
/// the heavy region.  Each shape below concentrates almost all
/// reachable nodes behind one seed; answers, convergence, and graph
/// sizes must still match the sequential path exactly, with and
/// without publish-time compact stores.
#[test]
fn work_stealing_matches_sequential_on_skewed_graphs() {
    let star = {
        // Hub with many leaves: one seed owns every expansion.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..120 {
            src.push_str(&format!("e(hub, s{i}).\n"));
        }
        src.push_str("e(lone, hub).\n");
        src
    };
    let lollipop = {
        // Dense clique feeding a long tail: the clique floods one
        // worker's deque while the tail trickles.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..12 {
            for j in 0..12 {
                if i != j {
                    src.push_str(&format!("e(c{i}, c{j}).\n"));
                }
            }
        }
        for i in 0..40 {
            src.push_str(&format!("e(t{}, t{}).\n", i, i + 1));
        }
        src.push_str("e(c0, t0).\n");
        src
    };
    let heavy_hub = {
        // Two-level fan-out behind a single entry edge.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        src.push_str("e(root, hub).\n");
        for i in 0..20 {
            src.push_str(&format!("e(hub, m{i}).\n"));
            for j in 0..8 {
                src.push_str(&format!("e(m{i}, l{i}_{j}).\n"));
            }
        }
        src
    };
    for src in [star, lollipop, heavy_hub] {
        let program = rq_datalog::parse_program(&src).unwrap();
        let db = rq_datalog::Database::from_program(&program);
        let compacted = {
            let db = db.clone();
            assert!(db.build_compact_stores() > 0);
            db
        };
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let sequential = EvalOptions {
            max_iterations: Some(256),
            ..EvalOptions::default()
        };
        let parallel = EvalOptions {
            expand_threads: 4,
            ..sequential.clone()
        };
        let trie_source = EdbSource::new(&db);
        let csr_source = EdbSource::new(&compacted);
        let trie_eval = Evaluator::new(&sys, &trie_source);
        let csr_eval = Evaluator::new(&sys, &csr_source);
        for c in 0..program.consts.len() {
            let a = Const::from_index(c);
            let seq = trie_eval.evaluate(tc, a, &sequential);
            let par = trie_eval.evaluate(tc, a, &parallel);
            let par_csr = csr_eval.evaluate(tc, a, &parallel);
            assert_eq!(sorted(&seq.answers), sorted(&par.answers));
            assert_eq!(sorted(&seq.answers), sorted(&par_csr.answers));
            assert_eq!(seq.converged, par.converged);
            assert_eq!(seq.graph_nodes, par.graph_nodes);
            assert_eq!(seq.graph_nodes, par_csr.graph_nodes);
        }
    }
}

#[test]
fn parallel_expansion_matches_sequential_on_cyclic_bounded_data() {
    // Figure 8's worst case: cyclic data under the m·n iteration
    // bound.  The bound truncates both modes at the same global
    // iteration, so even bounded runs must agree exactly.
    let workload = rq_workloads::fig8::cyclic(5, 7);
    let db = rq_datalog::Database::from_program(&workload.program);
    let sys = lemma1(&workload.program, &Lemma1Options::default())
        .unwrap()
        .system;
    let sg = workload.program.pred_by_name("sg").unwrap();
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&sys, &source);
    for bound in [1, 3, 5 * 7 + 1] {
        for c in 0..workload.program.consts.len() {
            let a = Const::from_index(c);
            let sequential = evaluator.evaluate(
                sg,
                a,
                &EvalOptions {
                    max_iterations: Some(bound),
                    ..EvalOptions::default()
                },
            );
            let parallel = evaluator.evaluate(
                sg,
                a,
                &EvalOptions {
                    max_iterations: Some(bound),
                    expand_threads: 8,
                    ..EvalOptions::default()
                },
            );
            assert_eq!(sorted(&sequential.answers), sorted(&parallel.answers));
            assert_eq!(sequential.converged, parallel.converged);
        }
    }
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
    assert_eq!(a1_again.graph_nodes, 0, "root memo hit builds no graph");
    // Sub-traversal reuse: sg(a0, Y) teleports through the memoized
    // sg(a1, ·) answers instead of splicing that child's sub-machine.
    let warm_a0 = warm.evaluate(sg, konst("a0"), &EvalOptions::default());
    assert_eq!(sorted(&warm_a0.answers), sorted(&cold_a0.answers));
    assert!(
        warm_a0.graph_nodes < cold_a0.graph_nodes,
        "warm {} !< cold {}",
        warm_a0.graph_nodes,
        cold_a0.graph_nodes
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

#[test]
fn parallel_membership_stop_still_answers_correctly() {
    // stop_on_answer under parallel expansion: the answer set may be
    // partial, but the membership verdict must be right.
    let n = 200;
    let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
    for i in 0..n {
        src.push_str(&format!("e(v{}, v{}).\n", i, i + 1));
    }
    let program = rq_datalog::parse_program(&src).unwrap();
    let db = rq_datalog::Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    let tc = program.pred_by_name("tc").unwrap();
    let konst = |s: &str| {
        program
            .consts
            .get(&rq_common::ConstValue::Str(s.into()))
            .unwrap()
    };
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&sys, &source);
    let out = evaluator.evaluate(
        tc,
        konst("v0"),
        &EvalOptions {
            expand_threads: 4,
            stop_on_answer: Some(konst("v5")),
            ..EvalOptions::default()
        },
    );
    assert!(out.converged);
    assert!(out.answers.contains(&konst("v5")));
}
