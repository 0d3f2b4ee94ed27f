//! Property tests for the §4 pipeline: on randomized databases for a
//! family of chain programs, plan + `evaluate_nary` must agree with
//! bottom-up evaluation for every binding pattern that passes the chain
//! check — through every probe-space layout (shared and warm, capped,
//! forked and patched against a fact batch).

use proptest::prelude::*;
use rq_adorn::{
    delta_pairs, evaluate_nary, evaluate_nary_shared, oracle_rows, plan_nary_query, Adornment,
    NaryPlan, ProbeSpace, QueryError, VirtualSource,
};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_datalog::{parse_program, seminaive_eval, Database, Program, Query, Relation};
use rq_engine::{EvalOptions, Evaluator, TupleSource};
use std::sync::Mutex;

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

/// Mentioned ahead of every fact, so a program and its extension by a
/// fact batch intern the constant pool to the same ids.
const POOL: &str = "pool(k0). pool(k1). pool(k2). pool(k3). pool(k4). pool(k5). pool(k6).\n";

/// A fact batch over `preds` (`(name, arity)`), constants from the pool.
fn batch_strategy(preds: &'static [(&'static str, usize)]) -> impl Strategy<Value = String> {
    proptest::collection::vec((0..preds.len(), 0..7u8, 0..7u8, 0..7u8), 1..6).prop_map(move |v| {
        let mut out = String::new();
        for (p, x, y, z) in v {
            let (name, arity) = preds[p];
            let args = [x, y, z].map(|k| format!("k{k}"));
            out.push_str(&format!("{name}({}).\n", args[..arity].join(",")));
        }
        out
    })
}

/// Every query text of `pred`/`arity`: each binding pattern, with each
/// combination of `anchors` at the bound positions.
fn all_patterns(pred: &str, arity: usize, anchors: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for mask in 0..1u32 << arity {
        let bound = (0..arity).filter(|i| mask >> i & 1 == 1).count();
        for combo in 0..anchors.len().pow(bound as u32) {
            let mut n = combo;
            let args: Vec<String> = (0..arity)
                .map(|i| {
                    if mask >> i & 1 == 0 {
                        return format!("V{i}");
                    }
                    let anchor = anchors[n % anchors.len()];
                    n /= anchors.len();
                    anchor.to_string()
                })
                .collect();
            out.push(format!("{pred}({})", args.join(", ")));
        }
    }
    out
}

/// One probe a query made: relation, key components, direction.
type Probe = (Pred, Vec<Const>, bool);

/// A [`TupleSource`] logging every probe of the source it wraps.
struct Recording<'a> {
    inner: VirtualSource<'a>,
    probes: Mutex<Vec<Probe>>,
}

impl Recording<'_> {
    fn log(&self, r: Pred, key: Const, forward: bool) {
        let key = self.inner.decode_tuple(key);
        self.probes.lock().unwrap().push((r, key, forward));
    }
}

impl TupleSource for Recording<'_> {
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        self.log(r, u, true);
        self.inner.successors(r, u, buf, counters)
    }

    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        self.log(r, v, false);
        self.inner.predecessors(r, v, buf, counters)
    }

    fn first_column(&self, r: Pred, out: &mut Vec<Const>) {
        self.inner.first_column(r, out);
    }
}

/// Evaluate one query through `space`, logging its probes: the answer
/// rows and every probe made, keys decoded.
fn recorded(
    program: &Program,
    db: &Database,
    plan: &NaryPlan,
    bound: &[Const],
    options: &EvalOptions,
    space: &ProbeSpace,
) -> (Vec<Vec<Const>>, Vec<Probe>) {
    let source = Recording {
        inner: VirtualSource::with_space(program, db, &plan.binary, space),
        probes: Mutex::default(),
    };
    let anchor = source.inner.intern_tuple(bound.to_vec());
    let outcome = Evaluator::with_plan(&plan.binary.system, &plan.compiled, &source).evaluate(
        plan.binary.query_bin,
        anchor,
        options,
    );
    let width = plan.adornment.free_positions().len();
    let rows = source.inner.decode_rows(width, outcome.answers);
    (rows.to_vecs(), source.probes.into_inner().unwrap())
}

/// One probe through `src`, outputs decoded.
fn decoded(src: &VirtualSource<'_>, r: Pred, key: &[Const], forward: bool) -> Vec<Vec<Const>> {
    let key = src.intern_tuple(key.to_vec());
    let (mut buf, mut counters) = (Vec::new(), Counters::new());
    let out = if forward {
        src.successors(r, key, &mut buf, &mut counters)
    } else {
        src.predecessors(r, key, &mut buf, &mut counters)
    };
    out.iter().map(|&c| src.decode_tuple(c)).collect()
}

/// The rows of each relation in `new` but not in `old` — a publish's
/// delta.
fn added_rows(old: &Database, new: &Database, preds: usize) -> FxHashMap<Pred, Relation> {
    let mut delta = FxHashMap::default();
    for p in (0..preds).map(Pred::from_index) {
        let (before, after) = (old.relation(p), new.relation(p));
        let rows: Vec<&[Const]> = after.iter().filter(|t| !before.contains(t)).collect();
        if !rows.is_empty() {
            delta.insert(p, Relation::from_rows(after.arity(), rows));
        }
    }
    delta
}

/// Answer every binding pattern of `pred`/`arity` over `rules_facts`
/// through every probe-space layout, and over the program extended by
/// `batch` through a forked, delta-patched space; each must give the
/// seminaive oracle's rows.  Every key a query probed must decode the
/// same through the warm space as through a fresh one, in both
/// directions, and patching a key twice must add both rows to the fork
/// and nothing to the parent.
fn check_layouts(
    rules_facts: &str,
    batch: &str,
    pred: &str,
    arity: usize,
) -> Result<(), TestCaseError> {
    let old_src = format!("{POOL}{rules_facts}");
    let old = parse_program(&old_src).expect("generated program parses");
    let new = parse_program(&format!("{old_src}{batch}")).expect("extension parses");
    prop_assert_eq!(old.preds.len(), new.preds.len());
    prop_assert_eq!(old.consts.len(), new.consts.len());
    let (db_old, db_new) = (Database::from_program(&old), Database::from_program(&new));
    let pred = old.pred_by_name(pred).unwrap();
    let fixpoint = |program: &Program| -> Vec<Vec<Const>> {
        let res = seminaive_eval(program).expect("safe program");
        res.db
            .relation(pred)
            .iter()
            .map(<[Const]>::to_vec)
            .collect()
    };
    let (truth_old, truth_new) = (fixpoint(&old), fixpoint(&new));
    let options = EvalOptions {
        max_iterations: Some(200),
        ..EvalOptions::default()
    };
    let mut by_pattern: FxHashMap<Adornment, Vec<Query>> = FxHashMap::default();
    let mut parse_into = old.clone();
    for text in all_patterns(old.pred_name(pred), arity, &["k0", "k1", "k2"]) {
        let q = Query::parse(&mut parse_into, &text).expect("query parses");
        by_pattern
            .entry(Adornment::of_query(&q))
            .or_default()
            .push(q);
    }
    prop_assert_eq!(parse_into.consts.len(), old.consts.len());
    for (adornment, queries) in by_pattern {
        let plan = match plan_nary_query(&old, pred, adornment) {
            Ok(plan) => plan,
            Err(QueryError::NotChain(_)) => continue,
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        let shared = ProbeSpace::new(&old);
        let single = ProbeSpace::with_capacity(&old, 1);
        let small = ProbeSpace::with_capacity(&old, 4);
        let mut probed: Vec<Probe> = Vec::new();
        for q in &queries {
            let (bound, expected) = (q.bound_values(), q.answer_from_relation(&truth_old));
            for space in [&shared, &single, &small] {
                let (rows, _) =
                    evaluate_nary_shared(&old, &db_old, &plan, &bound, &options, space, None);
                prop_assert_eq!(&rows.to_vecs(), &expected, "{:?}", q);
            }
            // Replayed on the warm space: hits only, probes logged.
            let (rows, probes) = recorded(&old, &db_old, &plan, &bound, &options, &shared);
            prop_assert_eq!(&rows, &expected, "{:?} (replayed)", q);
            probed.extend(probes);
        }
        probed.sort();
        probed.dedup();
        prop_assert!(shared.stats().hits > 0);
        prop_assert!(small.stats().entries <= 4 && single.stats().entries <= 1);

        let warm = VirtualSource::with_space(&old, &db_old, &plan.binary, &shared);
        let fresh = VirtualSource::new(&old, &db_old, &plan.binary);
        let mut memo: FxHashMap<Probe, Vec<Vec<Const>>> = FxHashMap::default();
        for (r, key, forward) in &probed {
            let outputs = decoded(&warm, *r, key, *forward);
            prop_assert_eq!(&outputs, &decoded(&fresh, *r, key, *forward));
            // The other direction from each output: a miss, then a hit.
            for out in &outputs {
                let back = decoded(&fresh, *r, out, !forward);
                prop_assert!(back.contains(key));
                prop_assert_eq!(&decoded(&warm, *r, out, !forward), &back);
                prop_assert_eq!(&decoded(&warm, *r, out, !forward), &back);
            }
            memo.insert((*r, key.clone(), *forward), outputs);
        }

        // Fork, delta, patch: the fork answers over the extended data.
        let fork = shared.fork();
        let delta = added_rows(&db_old, &db_new, new.preds.len());
        let mut counters = Counters::new();
        if let Some(pairs) = delta_pairs(&new, &db_new, &plan.binary, &fork, &delta, &mut counters)
        {
            for (&vpred, vp) in &pairs {
                fork.patch_pairs(vpred, vp);
            }
            for q in &queries {
                let (rows, _) = evaluate_nary_shared(
                    &new,
                    &db_new,
                    &plan,
                    &q.bound_values(),
                    &options,
                    &fork,
                    None,
                );
                prop_assert_eq!(
                    rows.to_vecs(),
                    q.answer_from_relation(&truth_new),
                    "{:?}",
                    q
                );
            }
            let patched = VirtualSource::with_space(&new, &db_new, &plan.binary, &fork);
            let cold = VirtualSource::new(&new, &db_new, &plan.binary);
            for (r, key, forward) in &probed {
                let set = |rows: Vec<Vec<Const>>| rows.into_iter().collect::<FxHashSet<_>>();
                prop_assert_eq!(
                    set(decoded(&patched, *r, key, *forward)),
                    set(decoded(&cold, *r, key, *forward))
                );
            }
        }

        // Two patches of one key (with another key's patch between, so
        // the second one moves the range): both rows land, the parent's
        // entry stays as it was.
        let forward_keys: Vec<&Probe> = probed.iter().filter(|p| p.2).take(2).collect();
        if let Some(&(r, ref key, _)) = forward_keys.first().copied() {
            let twice = shared.fork();
            let src = VirtualSource::with_space(&old, &db_old, &plan.binary, &twice);
            let extra = [vec![Const(0); 5], vec![Const(1); 5]];
            let ids = extra.clone().map(|t| src.intern_tuple(t));
            let key_id = src.intern_tuple(key.clone());
            prop_assert_eq!(twice.patch_pairs(r, &[(key_id, ids[0])]), 1);
            if let Some(&(r2, ref key2, _)) = forward_keys.get(1).copied() {
                let key2_id = src.intern_tuple(key2.clone());
                twice.patch_pairs(r2, &[(key2_id, ids[0])]);
            }
            prop_assert_eq!(twice.patch_pairs(r, &[(key_id, ids[1])]), 1);
            prop_assert_eq!(twice.patch_pairs(r, &[(key_id, ids[1])]), 0);
            let mut expected = memo[&(r, key.clone(), true)].clone();
            expected.extend(extra);
            prop_assert_eq!(decoded(&src, r, key, true), expected);
            prop_assert_eq!(
                &decoded(&warm, r, key, true),
                &memo[&(r, key.clone(), true)]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same generation: every binding pattern of a binary predicate.
    #[test]
    fn probe_layouts_sg(
        facts in facts_strategy(&["up", "down", "flat"]),
        batch in batch_strategy(&[("up", 2), ("down", 2), ("flat", 2)]),
    ) {
        let src = format!(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n{facts}"
        );
        check_layouts(&src, &batch, "sg", 2)?;
    }

    /// Naughton's argument-swapping recursion: two adornments per plan.
    #[test]
    fn probe_layouts_naughton(
        facts in facts_strategy(&["b0", "b1"]),
        batch in batch_strategy(&[("b0", 2), ("b1", 2)]),
    ) {
        let src = format!(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n{facts}"
        );
        check_layouts(&src, &batch, "p", 2)?;
    }

    /// A 3-ary program: every pattern, bound tuple widths 0 through 3.
    #[test]
    fn probe_layouts_three_ary(
        facts in facts_strategy(&["edge"]),
        facts3 in facts3_strategy("tri"),
        batch in batch_strategy(&[("edge", 2), ("tri", 3)]),
    ) {
        let src = format!(
            "r(A,B,N) :- tri(A,B,N).\n\
             r(A,B,N) :- edge(A,C), r(C,B,M), step(M,N).\n\
             {facts}{facts3}\
             step(k0,k1). step(k1,k2). step(k2,k3). step(k3,k4).\n"
        );
        check_layouts(&src, &batch, "r", 3)?;
    }
}
