//! The traversal kernel against its reference: whatever [`NodeSet`]
//! does with bit rows, pools and insertion logs, every traversal must
//! report exactly what the plain `FxHashSet<Node>` visitor reports — the
//! same answers and the same unit-cost [`Counters`] — and must leave the
//! row pool as it found it, however the traversal ended.
//!
//! The reference is the same kernel with [`HASH_ONLY`] set: no rows, so
//! every node lives in the remainder hash set, which is the visitor the
//! rows replaced.
//!
//! [`NodeSet`]: crate::nodeset::NodeSet

use crate::nodeset::{learn_width, pool_is_clean, HASH_ONLY};
use crate::{EdbSource, EvalOptions, EvalOutcome, Evaluator, TupleSource};
use proptest::prelude::*;
use rq_common::{Const, ConstValue, Counters, Pred};
use rq_datalog::{parse_program, Database, Program};
use rq_relalg::{lemma1, EqSystem, Lemma1Options};
use rq_workloads::randprog::{seeded, RecursionStyle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Run `f` on the bit rows, then on the reference visitor.
fn dense_and_reference<T>(f: impl Fn() -> T) -> (T, T) {
    let dense = f();
    HASH_ONLY.set(true);
    let reference = f();
    HASH_ONLY.set(false);
    (dense, reference)
}

/// What the unit-cost model and the caller can observe of a traversal.
fn observed(out: &EvalOutcome) -> (&[Const], [u64; 6], bool) {
    (
        &out.answers,
        [
            out.counters.nodes_inserted,
            out.counters.tuples_retrieved,
            out.counters.rule_firings,
            out.counters.iterations,
            out.counters.nodes_inserted,
            out.instances,
        ],
        out.converged,
    )
}

/// Evaluate `p(a, Y)` and `p(X, a)` on the rows and on the reference,
/// and demand identical observations.
fn assert_kernel_matches_reference<S: TupleSource>(
    evaluator: &Evaluator<'_, S>,
    p: Pred,
    a: Const,
    options: &EvalOptions,
) {
    for inverse in [false, true] {
        let (dense, reference) = dense_and_reference(|| {
            if inverse {
                evaluator.evaluate_inverse(p, a, options)
            } else {
                evaluator.evaluate(p, a, options)
            }
        });
        assert_eq!(
            observed(&dense),
            observed(&reference),
            "pred {p:?} from {a:?}, inverse {inverse}"
        );
    }
    assert!(pool_is_clean());
}

fn setup(src: &str) -> (Program, Database, EqSystem) {
    on_route(parse_program(src).unwrap(), true)
}

/// `program` over a database read through CSR rows lent in place
/// (`csr`, the publish-time compact stores) or through trie rows copied
/// out, plus its equation system.
fn on_route(program: Program, csr: bool) -> (Program, Database, EqSystem) {
    let db = Database::from_program(&program);
    if csr {
        assert!(db.build_compact_stores() > 0);
    }
    let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
    learn_width(program.consts.len());
    (program, db, system)
}

/// Every constant of `program`, from both orientations, on both probe
/// routes.
fn assert_every_constant_matches_reference(program: &Program, pred: &str, options: &EvalOptions) {
    for csr in [false, true] {
        let (program, db, system) = on_route(program.clone(), csr);
        let p = program.pred_by_name(pred).unwrap();
        let source = EdbSource::new(&db);
        let evaluator = Evaluator::new(&system, &source);
        for c in 0..program.consts.len() {
            assert_kernel_matches_reference(&evaluator, p, Const::from_index(c), options);
        }
    }
}

fn konst(program: &Program, name: &str) -> Const {
    program.consts.get(&ConstValue::Str(name.into())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random binary-chain programs, regular (one instance, one
    /// iteration) and mixed (spliced instances, memo-free): every
    /// derived predicate from every constant, both orientations.
    #[test]
    fn counters_match_reference_on_random_chain_programs(seed in 0u64..400, style_pick in 0u8..3) {
        let style = [RecursionStyle::Regular, RecursionStyle::MiddleLinear, RecursionStyle::Mixed]
            [style_pick as usize];
        let rp = seeded(seed, style);
        let db = Database::from_program(&rp.program);
        if seed % 2 == 0 {
            // Both probe routes: CSR rows lent in place, trie rows copied.
            db.build_compact_stores();
        }
        let system = lemma1(&rp.program, &Lemma1Options::default()).unwrap().system;
        learn_width(rp.program.consts.len());
        let source = EdbSource::new(&db);
        let evaluator = Evaluator::new(&system, &source);
        let options = EvalOptions { max_iterations: Some(64), ..EvalOptions::default() };
        for &p in &system.lhs {
            for c in 0..rp.program.consts.len() {
                assert_kernel_matches_reference(&evaluator, p, Const::from_index(c), &options);
            }
        }
    }
}

/// `sg` over a 40-wide fan whose `up` and `down` sides are both cyclic:
/// the natural condition never holds, so the run ends on the `m·n`
/// guard, and iteration 2 seeds 40 nodes.
fn cyclic_fan() -> String {
    let mut src = String::from(
        "sg(X,Y) :- flat(X,Y).\n\
         sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
         up(a1,a2). up(a2,a1). flat(a1,b1).\n\
         down(b1,b2). down(b2,b3). down(b3,b1).\n",
    );
    for i in 0..40 {
        src.push_str(&format!(
            "up(a1,f{i}). up(f{i},a2). flat(f{i},g{i}). down(g{i},b1). down(b2,g{i}).\n"
        ));
    }
    src
}

#[test]
fn counters_match_reference_on_cyclic_data_under_the_guard() {
    let (program, db, system) = setup(&cyclic_fan());
    let sg = program.pred_by_name("sg").unwrap();
    let a1 = konst(&program, "a1");
    let bound = crate::cyclic_iteration_bound(&system, &db, sg, a1, false).unwrap();
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&system, &source);
    let options = EvalOptions {
        max_iterations: Some(bound.min(40) + 1),
        ..EvalOptions::default()
    };
    for name in ["a1", "a2", "f7", "b1", "g3"] {
        assert_kernel_matches_reference(&evaluator, sg, konst(&program, name), &options);
    }
    let out = evaluator.evaluate(sg, a1, &options);
    assert!(!out.converged && out.instances > 2);
}

/// `tc` over shapes that put almost every reachable node behind one
/// edge: a star, a 12-clique feeding a 40-edge tail, and a two-level
/// fan-out behind a single entry.
fn skewed_graphs() -> [String; 3] {
    let tc = || String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
    let mut star = tc();
    for i in 0..120 {
        star.push_str(&format!("e(hub, s{i}).\n"));
    }
    star.push_str("e(lone, hub).\n");
    let mut lollipop = tc();
    for i in 0..12 {
        for j in (0..12).filter(|&j| j != i) {
            lollipop.push_str(&format!("e(c{i}, c{j}).\n"));
        }
    }
    for i in 0..40 {
        lollipop.push_str(&format!("e(t{}, t{}).\n", i, i + 1));
    }
    lollipop.push_str("e(c0, t0).\n");
    let mut heavy_hub = tc();
    heavy_hub.push_str("e(root, hub).\n");
    for i in 0..20 {
        heavy_hub.push_str(&format!("e(hub, m{i}).\n"));
        for j in 0..8 {
            heavy_hub.push_str(&format!("e(m{i}, l{i}_{j}).\n"));
        }
    }
    [star, lollipop, heavy_hub]
}

#[test]
fn counters_match_reference_on_skewed_graphs() {
    let options = EvalOptions {
        max_iterations: Some(256),
        ..EvalOptions::default()
    };
    for src in skewed_graphs() {
        assert_every_constant_matches_reference(&parse_program(&src).unwrap(), "tc", &options);
    }
}

#[test]
fn counters_match_reference_on_cyclic_data_at_every_bound() {
    // Figure 8's worst case: a bound below m·n truncates the run, and
    // a truncated run must agree with the reference as exactly as a
    // complete one.
    let workload = rq_workloads::fig8::cyclic(5, 7);
    for bound in [1, 3, 5 * 7 + 1] {
        let options = EvalOptions {
            max_iterations: Some(bound),
            ..EvalOptions::default()
        };
        assert_every_constant_matches_reference(&workload.program, "sg", &options);
    }
}

#[test]
fn counters_match_reference_on_a_membership_stop() {
    // `tc(a, v5)` over a 200-edge chain: the walk stops where it meets
    // v5, or runs to completion where it never does.
    let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
    for i in 0..200 {
        src.push_str(&format!("e(v{}, v{}).\n", i, i + 1));
    }
    let (program, db, system) = setup(&src);
    let v5 = konst(&program, "v5");
    let options = EvalOptions {
        stop_on_answer: Some(v5),
        ..EvalOptions::default()
    };
    assert_every_constant_matches_reference(&program, "tc", &options);
    let source = EdbSource::new(&db);
    let tc = program.pred_by_name("tc").unwrap();
    let out = Evaluator::new(&system, &source).evaluate(tc, konst(&program, "v0"), &options);
    assert!(out.converged && out.answers.contains(&v5));
    assert!(out.answers.len() < 200, "the walk stopped at v5");
}

/// What the kernel sees of a §4 run: every term is a tuple constant,
/// minted at 2³¹ and up.  (`rq-adorn`'s `VirtualSource` cannot be
/// linked into this crate's unit tests, so an id-shifting view of a
/// plain database stands in for it.)
struct TupleIds<'a>(EdbSource<'a>);

const TUPLE_ID_BASE: usize = 1 << 31;

/// `row` with every id shifted into the tuple range, in `buf`.
fn lifted<'b>(row: &[Const], buf: &'b mut Vec<Const>) -> &'b [Const] {
    buf.clear();
    buf.extend(
        row.iter()
            .map(|c| Const::from_index(c.index() + TUPLE_ID_BASE)),
    );
    buf
}

impl TupleSource for TupleIds<'_> {
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        let u = Const::from_index(u.index() - TUPLE_ID_BASE);
        lifted(self.0.successors(r, u, &mut Vec::new(), counters), buf)
    }

    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        let v = Const::from_index(v.index() - TUPLE_ID_BASE);
        lifted(self.0.predecessors(r, v, &mut Vec::new(), counters), buf)
    }

    fn first_column(&self, _r: Pred, _out: &mut Vec<Const>) {}
}

#[test]
fn counters_match_reference_for_tuple_ids_past_the_index_cap() {
    let (program, db, system) = setup(&cyclic_fan());
    let sg = program.pred_by_name("sg").unwrap();
    let source = TupleIds(EdbSource::new(&db));
    let evaluator = Evaluator::new(&system, &source);
    let options = EvalOptions {
        max_iterations: Some(12),
        ..EvalOptions::default()
    };
    let tuple = |name: &str| Const::from_index(konst(&program, name).index() + TUPLE_ID_BASE);
    for name in ["a1", "f7", "b1"] {
        assert_kernel_matches_reference(&evaluator, sg, tuple(name), &options);
    }
    // And the lifted run is the plain run, id for id.
    let plain_source = EdbSource::new(&db);
    let plain =
        Evaluator::new(&system, &plain_source).evaluate(sg, konst(&program, "a1"), &options);
    let shifted = evaluator.evaluate(sg, tuple("a1"), &options);
    assert_eq!(observed(&plain).1, observed(&shifted).1);
    assert_eq!(plain.answers.len(), shifted.answers.len());
}

/// A long chain with a 40-wide fan at the far end, closed under `tc`.
fn chain_with_fan() -> String {
    let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
    for i in 0..60 {
        src.push_str(&format!("e(v{}, v{}).\n", i, i + 1));
    }
    for i in 0..40 {
        src.push_str(&format!("e(v60, w{i}). e(w{i}, v61).\n"));
    }
    src
}

/// After `disturb` ran (and however it ended), the pool holds only
/// zeroed rows and the next traversals on this thread are cold ones.
fn assert_pool_recovers(disturb: impl FnOnce()) {
    disturb();
    assert!(pool_is_clean());
    let (program, db, system) = setup(&chain_with_fan());
    let tc = program.pred_by_name("tc").unwrap();
    let source = EdbSource::new(&db);
    let evaluator = Evaluator::new(&system, &source);
    for name in ["v0", "v30", "v60", "w5"] {
        let from = konst(&program, name);
        assert_kernel_matches_reference(&evaluator, tc, from, &EvalOptions::default());
    }
}

#[test]
fn early_stops_leave_the_pool_clean() {
    let (program, db, system) = setup(&chain_with_fan());
    let tc = program.pred_by_name("tc").unwrap();
    let (sg_program, sg_db, sg_system) = setup(&cyclic_fan());
    let sg = sg_program.pred_by_name("sg").unwrap();
    assert_pool_recovers(|| {
        let source = EdbSource::new(&db);
        let evaluator = Evaluator::new(&system, &source);
        let v0 = konst(&program, "v0");
        let full = evaluator.evaluate(tc, v0, &EvalOptions::default());
        let hit = evaluator.evaluate(
            tc,
            v0,
            &EvalOptions {
                stop_on_answer: Some(konst(&program, "v3")),
                ..EvalOptions::default()
            },
        );
        assert!(hit.converged && hit.counters.nodes_inserted < full.counters.nodes_inserted);
        // Budgets are checked between iterations, so they need a
        // program that iterates.
        let sg_source = EdbSource::new(&sg_db);
        let sg_evaluator = Evaluator::new(&sg_system, &sg_source);
        let a1 = konst(&sg_program, "a1");
        let budgeted = sg_evaluator.evaluate(
            sg,
            a1,
            &EvalOptions {
                node_budget: Some(10),
                ..EvalOptions::default()
            },
        );
        assert!(!budgeted.converged);
        let bounded = sg_evaluator.evaluate(
            sg,
            a1,
            &EvalOptions {
                max_iterations: Some(2),
                ..EvalOptions::default()
            },
        );
        assert!(!bounded.converged);
    });
}

/// A database source that runs `before` ahead of every successor probe.
struct Hooked<'a, F: Fn() + Sync> {
    inner: EdbSource<'a>,
    before: F,
}

impl<F: Fn() + Sync> TupleSource for Hooked<'_, F> {
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        (self.before)();
        self.inner.successors(r, u, buf, counters)
    }

    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        self.inner.predecessors(r, v, buf, counters)
    }

    fn first_column(&self, r: Pred, out: &mut Vec<Const>) {
        self.inner.first_column(r, out);
    }
}

#[test]
fn a_source_that_panics_mid_probe_leaves_the_pool_clean() {
    // The set unwinds on the caller's thread and clears through its
    // log — in the first iteration, and (`sg`) with spliced instances.
    for (src, pred, from, fuse) in [
        (chain_with_fan(), "tc", "v0", 50),
        (cyclic_fan(), "sg", "a1", 60),
    ] {
        let (program, db, system) = setup(&src);
        let p = program.pred_by_name(pred).unwrap();
        assert_pool_recovers(|| {
            // Panics on its `fuse`-th probe.
            let probes = AtomicU64::new(0);
            let source = Hooked {
                inner: EdbSource::new(&db),
                before: || {
                    let probe = probes.fetch_add(1, Ordering::Relaxed) + 1;
                    assert!(probe != fuse, "probe fuse blew");
                },
            };
            let evaluator = Evaluator::new(&system, &source);
            let options = EvalOptions {
                max_iterations: Some(6),
                ..EvalOptions::default()
            };
            let blown = catch_unwind(AssertUnwindSafe(|| {
                evaluator.evaluate(p, konst(&program, from), &options)
            }));
            assert!(blown.is_err(), "the fuse must blow mid-traversal");
        });
    }
}

#[test]
fn a_traversal_nested_inside_a_probe_shares_the_pool_safely() {
    let (program, db, system) = setup(&chain_with_fan());
    let tc = program.pred_by_name("tc").unwrap();
    let (v0, v30) = (konst(&program, "v0"), konst(&program, "v30"));
    let plain_source = EdbSource::new(&db);
    let plain = Evaluator::new(&system, &plain_source);
    assert_pool_recovers(|| {
        // The first probe runs a whole traversal of its own: the outer
        // set is alive (rows taken, bits set) while the inner one takes
        // rows, walks, and hands them back.
        let options = EvalOptions::default();
        let nested = std::sync::Mutex::new(None);
        let source = Hooked {
            inner: EdbSource::new(&db),
            before: || {
                let mut nested = nested.lock().unwrap();
                if nested.is_none() {
                    *nested = Some(plain.evaluate(tc, v30, &options));
                }
            },
        };
        let outer = Evaluator::new(&system, &source).evaluate(tc, v0, &options);
        let inner = nested.into_inner().unwrap().expect("probed once");
        assert_eq!(
            observed(&outer),
            observed(&plain.evaluate(tc, v0, &options))
        );
        assert_eq!(
            observed(&inner),
            observed(&plain.evaluate(tc, v30, &options))
        );
    });
}
