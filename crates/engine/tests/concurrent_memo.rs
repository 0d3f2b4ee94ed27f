//! Concurrent evaluations over one shared [`EvalContext`]: K threads
//! evaluate seeded point queries through one context (capped below the
//! number of distinct queries) — first in lockstep behind a barrier,
//! all on one query, so their first misses race to record it, then
//! free-running in a per-thread order — and every answer must equal
//! what one thread computes with a private context.  The context may
//! hold no more entries than its cap, nor more than the roots it
//! answers, and on a regular program (one lookup per evaluation, no
//! instance expansion) its hits and misses must add up to the
//! evaluations made.

use rq_common::{Const, FxHashSet, Pred};
use rq_datalog::{parse_program, Database, Program};
use rq_engine::{CompiledPlan, EdbSource, EvalContext, EvalOptions, Evaluator};
use rq_relalg::{lemma1, EqSystem, Lemma1Options};
use std::sync::Barrier;

/// Threads sharing one context.
const THREADS: usize = 4;
/// Nodes of the generated DAG, and the sources queries start from.
const NODES: u32 = 48;
const SOURCES: u32 = 20;
/// Lockstep steps, then free-running passes over every query.
const LOCKSTEP: usize = 12;
const PASSES: usize = 3;
/// Entry cap: below the 2 · SOURCES distinct queries.
const CAP: usize = 24;

/// A query: source constant, and whether it runs the inverse machine.
type Point = (Const, bool);

/// xorshift64: the tests' only randomness, seeded per run.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `rules` over a seeded random DAG: `e` and `up` edges run from lower
/// to higher node numbers, `flat` and `down` edges anywhere forward.
fn program(rules: &str, seed: u64) -> Program {
    let mut state = seed | 1;
    let mut src = String::from(rules);
    for rel in ["e", "up", "flat", "down"] {
        for _ in 0..NODES * 2 {
            let a = (next(&mut state) % u64::from(NODES - 1)) as u32;
            let b = a + 1 + (next(&mut state) % u64::from(NODES - 1 - a)) as u32;
            src.push_str(&format!("{rel}(n{a}, n{b}).\n"));
        }
    }
    parse_program(&src).expect("generated program parses")
}

fn evaluate(
    sys: &EqSystem,
    plan: &CompiledPlan,
    db: &Database,
    ctx: &EvalContext,
    pred: Pred,
    (from, inverse): Point,
) -> (Vec<Const>, u64) {
    let source = EdbSource::new(db);
    let evaluator = Evaluator::with_plan(sys, plan, &source).with_context(ctx);
    let options = EvalOptions::default();
    let outcome = if inverse {
        evaluator.evaluate_inverse(pred, from, &options)
    } else {
        evaluator.evaluate(pred, from, &options)
    };
    (outcome.answers, outcome.memo_teleports)
}

/// One run: returns the shared context and the evaluations and teleports
/// summed over the threads,
/// after checking every answer and the context's entries.
fn run(rules: &str, pred: &str, seed: u64) -> (EvalContext, u64, u64) {
    let program = program(rules, seed);
    let db = Database::from_program(&program);
    let sys = lemma1(&program, &Lemma1Options::default())
        .expect("chain program")
        .system;
    let plan = CompiledPlan::compile(&sys);
    let pred = program.pred_by_name(pred).expect("query predicate");
    let constant = |i: u32| {
        program
            .consts
            .get(&rq_common::ConstValue::Str(format!("n{i}")))
    };
    let points: Vec<Point> = (0..SOURCES)
        .filter_map(constant)
        .flat_map(|c| [(c, false), (c, true)])
        .collect();
    let private = EvalContext::new();
    let expected: Vec<Vec<Const>> = points
        .iter()
        .map(|&p| evaluate(&sys, &plan, &db, &private, pred, p).0)
        .collect();

    let ctx = EvalContext::with_capacity(CAP);
    let barrier = Barrier::new(THREADS);
    let mut lockstep_state = seed.wrapping_mul(31) | 1;
    let lockstep: Vec<usize> = (0..LOCKSTEP)
        .map(|_| (next(&mut lockstep_state) % points.len() as u64) as usize)
        .collect();
    let (evaluations, teleports) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (ctx, barrier, lockstep) = (&ctx, &barrier, &lockstep);
                let (sys, plan, db, points, expected) = (&sys, &plan, &db, &points, &expected);
                scope.spawn(move || {
                    let mut state = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut order: Vec<usize> = lockstep.clone();
                    let mut free: Vec<usize> = (0..PASSES).flat_map(|_| 0..points.len()).collect();
                    for i in (1..free.len()).rev() {
                        free.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
                    }
                    order.extend(free);
                    // Mismatches are collected, not asserted here: a
                    // panicking worker would leave the others waiting
                    // at the barrier.
                    let (mut teleports, mut wrong) = (0, Vec::new());
                    for (step, &q) in order.iter().enumerate() {
                        if step < lockstep.len() {
                            barrier.wait();
                        }
                        let (answers, hits) = evaluate(sys, plan, db, ctx, pred, points[q]);
                        if answers != expected[q] {
                            wrong.push(points[q]);
                        }
                        teleports += hits;
                    }
                    (order.len() as u64, teleports, wrong)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .fold((0, 0), |(e, h), (de, dh, wrong)| {
                assert!(
                    wrong.is_empty(),
                    "answers differ from a private context: {wrong:?}"
                );
                (e + de, h + dh)
            })
    });

    let stats = ctx.stats();
    let machines: FxHashSet<u32> = (0..plan.machine_count() as u32).collect();
    let roots = ctx.roots_for(plan.id(), &machines);
    assert!(stats.entries <= CAP, "{stats:?}");
    assert_eq!(stats.entries, roots.len(), "every entry is one held root");
    assert_eq!(
        stats.entries,
        CAP.min(points.len()),
        "every distinct converged query recorded until the cap"
    );
    for &(machine, from) in &roots {
        let entry = ctx.peek(plan.id(), machine, from).expect("root is held");
        let q = points
            .iter()
            .position(|&(c, inverse)| c == from && (machine % 2 == 1) == inverse)
            .expect("a held root is a query the threads made");
        assert_eq!(entry, expected[q]);
    }
    (ctx, evaluations, teleports)
}

#[test]
fn concurrent_regular_queries_share_one_memo_exactly() {
    for seed in 1..=6 {
        let (ctx, evaluations, teleports) = run(
            "tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n",
            "tc",
            seed,
        );
        let stats = ctx.stats();
        // A regular machine splices nothing: one lookup per evaluation,
        // and every hit is a root hit.
        assert_eq!(stats.hits + stats.misses, evaluations, "{stats:?}");
        assert_eq!(stats.hits, teleports, "{stats:?}");
        assert!(stats.hits > 0 && stats.misses >= stats.entries as u64);
    }
}

#[test]
fn concurrent_same_generation_queries_teleport_to_the_same_answers() {
    for seed in 1..=6 {
        let (ctx, _, teleports) = run(
            "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n",
            "sg",
            seed,
        );
        assert!(teleports > 0, "{:?}", ctx.stats());
    }
}
