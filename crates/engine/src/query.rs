//! The five query forms of §3 and the cyclic-data iteration bound.
//!
//! * `p(a, Y)` — the primary form: traverse from `a`.
//! * `p(X, b)` — "simply apply the algorithm to the query r(b, Y), where
//!   r is the inverse of p": traverse the inverted machine from `b`.
//! * `p(X, Y)` — "apply the algorithm to the query p(a,Y) for all terms a
//!   in the domain of p"; duplication between overlapping graphs is
//!   avoided with Tarjan's strong-components algorithm (see
//!   [`all_pairs_scc`], for the regular case).
//! * `p(a, b)` — evaluate `p(a, Y)` and test membership (the binding of
//!   the second argument cannot be used without the §4 transformation).
//! * `p(X, X)` — evaluate all pairs and keep the diagonal.

use crate::image::{image, image_of};
use crate::source::{EdbSource, TupleSource};
use crate::traversal::{EvalOptions, EvalOutcome, Evaluator};
use rq_automata::{position, Label};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_datalog::tarjan_scc;
use rq_relalg::{linear_decomposition, EqSystem, Expr};

/// Candidate source constants for an all-pairs query: every constant
/// with a tuple on a label the machine can leave its start on — a
/// superset of the domain of `p`.
pub fn candidate_sources<S: TupleSource>(system: &EqSystem, source: &S, p: Pred) -> Vec<Const> {
    // Collect the base predicates (forward or inverse) reachable as *first
    // letters* of e_p, unfolding derived predicates.
    let derived = system.derived();
    let mut first: FxHashSet<(Pred, bool)> = FxHashSet::default();
    let mut seen: FxHashSet<(Pred, bool)> = FxHashSet::default();
    let mut stack: Vec<(Pred, bool)> = vec![(p, false)];
    while let Some((q, inv)) = stack.pop() {
        if !seen.insert((q, inv)) {
            continue;
        }
        let e = if inv {
            system.rhs[&q].inverse()
        } else {
            system.rhs[&q].clone()
        };
        // State 0 is the position machine's only start.
        for &(label, _) in &position(&e).trans[0] {
            match label {
                Label::Sym(r) if derived.contains(&r) => stack.push((r, false)),
                Label::Inv(r) if derived.contains(&r) => stack.push((r, true)),
                Label::Sym(r) => {
                    first.insert((r, false));
                }
                Label::Inv(r) => {
                    first.insert((r, true));
                }
                Label::Id => {}
            }
        }
    }
    let mut out: Vec<Const> = Vec::new();
    let mut dedup: FxHashSet<Const> = FxHashSet::default();
    let mut buf = Vec::new();
    let mut scratch = Vec::new();
    for (r, inv) in first {
        buf.clear();
        if inv {
            // Range of r = first column of its inverse.
            let mut counters = Counters::new();
            // Enumerate all second components by probing is wasteful;
            // sources expose only first_column, so use successors over
            // the first column.
            let mut firsts = Vec::new();
            source.first_column(r, &mut firsts);
            for u in firsts {
                buf.extend_from_slice(source.successors(r, u, &mut scratch, &mut counters));
            }
        } else {
            source.first_column(r, &mut buf);
        }
        for &c in &buf {
            if dedup.insert(c) {
                out.push(c);
            }
        }
    }
    out.sort();
    out
}

/// Answers of an all-pairs query.
#[derive(Clone, Debug, Default)]
pub struct AllPairsOutcome {
    /// `(x, y)` pairs in the answer.
    pub pairs: FxHashSet<(Const, Const)>,
    /// Aggregated instrumentation.
    pub counters: Counters,
    /// Whether every per-source evaluation converged.
    pub converged: bool,
}

/// `p(X, Y)` by running the traversal once per candidate source.
/// Correct for any system; duplicated work between overlapping graphs is
/// what [`all_pairs_scc`] removes in the regular case.
pub fn all_pairs_per_source<S: TupleSource>(
    evaluator: &Evaluator<'_, S>,
    source: &S,
    p: Pred,
    options: &EvalOptions,
) -> AllPairsOutcome {
    let mut out = AllPairsOutcome {
        converged: true,
        ..Default::default()
    };
    for a in candidate_sources(evaluator.system(), source, p) {
        let r = evaluator.evaluate(p, a, options);
        out.counters += r.counters;
        out.converged &= r.converged;
        for v in r.answers {
            out.pairs.insert((a, v));
        }
    }
    out
}

/// `p(X, Y)` for a *regular* system (no derived predicate occurs in
/// `e_p`), sharing work between sources with Tarjan's strong-components
/// algorithm, per the paper's reference to [19, 21]:
///
/// 1. build the product graph with nodes `(state, term)` of the served
///    machine reachable from any `(q_s, a)`;
/// 2. condense it into strongly connected components;
/// 3. propagate answer sets (terms at final-state nodes) backwards through
///    the condensation in one pass — every node of a component shares one
///    answer set, which is what kills the per-source duplication.
///
/// The run is always complete, so no option bounds it; `_options` keeps
/// the signature of the other query forms.
pub fn all_pairs_scc<S: TupleSource>(
    system: &EqSystem,
    source: &S,
    p: Pred,
    _options: &EvalOptions,
) -> AllPairsOutcome {
    let e = &system.rhs[&p];
    let derived = system.derived();
    assert!(
        !e.contains_any(&derived),
        "all_pairs_scc requires a regular (derived-free) equation"
    );
    let mut counters = Counters::new();
    let nfa = position(e);
    let sources: Vec<Const> = candidate_sources(system, source, p);

    // Phase 1: explicit product graph, nodes interned to dense ids.
    let mut node_id: FxHashMap<(u32, Const), usize> = FxHashMap::default();
    let mut nodes: Vec<(u32, Const)> = Vec::new();
    let mut succ: Vec<Vec<usize>> = Vec::new();
    let intern = |node: (u32, Const),
                  nodes: &mut Vec<(u32, Const)>,
                  succ: &mut Vec<Vec<usize>>,
                  node_id: &mut FxHashMap<(u32, Const), usize>|
     -> (usize, bool) {
        if let Some(&id) = node_id.get(&node) {
            return (id, false);
        }
        let id = nodes.len();
        nodes.push(node);
        succ.push(Vec::new());
        node_id.insert(node, id);
        (id, true)
    };
    let mut stack: Vec<usize> = Vec::new();
    let mut roots: Vec<(Const, usize)> = Vec::new();
    for &a in &sources {
        // State 0 is the position machine's only start.
        let (id, fresh) = intern((0, a), &mut nodes, &mut succ, &mut node_id);
        roots.push((a, id));
        if fresh {
            counters.nodes_inserted += 1;
            stack.push(id);
        }
    }
    let mut buf: Vec<Const> = Vec::new();
    while let Some(id) = stack.pop() {
        let (state, term) = nodes[id];
        // Rows are sorted by label: one read per run of transitions on
        // one label.
        for run in nfa.trans[state as usize].chunk_by(|x, y| x.0 == y.0) {
            counters.rule_firings += run.len() as u64;
            let targets = match run[0].0 {
                Label::Id => std::slice::from_ref(&term),
                Label::Sym(r) => source.successors(r, term, &mut buf, &mut counters),
                Label::Inv(r) => source.predecessors(r, term, &mut buf, &mut counters),
            };
            for &(_, to) in run {
                for &v in targets {
                    let (nid, fresh) = intern((to as u32, v), &mut nodes, &mut succ, &mut node_id);
                    succ[id].push(nid);
                    if fresh {
                        counters.nodes_inserted += 1;
                        stack.push(nid);
                    }
                }
            }
        }
    }

    // Phase 2: condensation.  Component ids come out in reverse
    // topological order, so ascending order is "callees first" — exactly
    // the order in which to accumulate answer sets.
    let (comp, ncomps) = tarjan_scc(&succ);

    // Phase 3: per-component answer sets, shared by all members.
    let mut comp_answers: Vec<FxHashSet<Const>> = vec![FxHashSet::default(); ncomps];
    let mut comp_succs: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); ncomps];
    for (id, outs) in succ.iter().enumerate() {
        for &to in outs {
            if comp[id] != comp[to] {
                comp_succs[comp[id]].insert(comp[to]);
            }
        }
    }
    for (id, &(state, term)) in nodes.iter().enumerate() {
        if nfa.finals[state as usize] {
            comp_answers[comp[id]].insert(term);
        }
    }
    // One ascending pass: every successor id is smaller, so each union
    // reads an already final set.
    for (c, succs) in comp_succs.iter().enumerate() {
        let (done, rest) = comp_answers.split_at_mut(c);
        for &s in succs {
            debug_assert!(s < c, "component order must be reverse topological");
            // Propagation is the dominant cost of the condensation
            // pass (the `t` of the O(tn) bound); one firing per element
            // copied keeps side selection measurable.
            counters.rule_firings += done[s].len() as u64;
            rest[0].extend(done[s].iter().copied());
        }
    }

    let mut pairs = FxHashSet::default();
    for (a, id) in roots {
        for &v in &comp_answers[comp[id]] {
            pairs.insert((a, v));
        }
    }
    AllPairsOutcome {
        pairs,
        counters,
        converged: true,
    }
}

/// Which direction [`all_pairs_min_side`] evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalSide {
    /// Evaluated `e_p` from the domain side.
    Forward,
    /// Evaluated `e_p⁻¹` from the range side (pairs flipped back).
    Reverse,
}

/// `p(X, Y)` for a regular system, evaluated from whichever side of the
/// relation makes the answer-set propagation cheaper.
///
/// The paper's complexity reference point is "by applying Tarjan's
/// strong-components algorithm \[21\] to the graph constructed from an
/// expression E … we may compute the relation denoted by E in time
/// O(tn), where t = min{|domain(E)|, |range(E)|}" \[19\].  The dominant
/// cost of [`all_pairs_scc`] is propagating per-component answer sets,
/// which are subsets of the *range* of `E`; evaluating the inverse
/// expression instead propagates subsets of the *domain*.  This function
/// estimates both sides and runs the one with the smaller propagated
/// side, so the propagation cost is O(tn) with t the minimum.
pub fn all_pairs_min_side<S: TupleSource>(
    system: &EqSystem,
    source: &S,
    p: Pred,
    options: &EvalOptions,
) -> (AllPairsOutcome, EvalSide) {
    let inverted = EqSystem::new(system.lhs.iter().map(|&q| (q, system.rhs[&q].inverse())));
    // The candidate sources of the *inverse* machine are (a superset of)
    // the range of E; the candidate sources of E itself are (a superset
    // of) its domain.
    let domain_size = candidate_sources(system, source, p).len();
    let range_size = candidate_sources(&inverted, source, p).len();
    if domain_size < range_size {
        // Propagate domain-side sets: evaluate the inverse expression.
        let mut out = all_pairs_scc(&inverted, source, p, options);
        out.pairs = out.pairs.iter().map(|&(y, x)| (x, y)).collect();
        (out, EvalSide::Reverse)
    } else {
        (all_pairs_scc(system, source, p, options), EvalSide::Forward)
    }
}

/// `p(a, b)`: evaluate `p(a, Y)` and test `b ∈ Y` (§3 notes the second
/// binding cannot be exploited without the §4 transformation).  The
/// traversal stops as soon as `b` is emitted
/// ([`EvalOptions::stop_on_answer`]), so a positive membership never
/// materializes the rest of `p(a, Y)`.
pub fn query_bb<S: TupleSource>(
    evaluator: &Evaluator<'_, S>,
    p: Pred,
    a: Const,
    b: Const,
    options: &EvalOptions,
) -> (bool, EvalOutcome) {
    let options = EvalOptions {
        stop_on_answer: Some(b),
        ..options.clone()
    };
    let out = evaluator.evaluate(p, a, &options);
    (out.answers.binary_search(&b).is_ok(), out)
}

/// `p(X, X)`: all pairs, keeping the diagonal.
pub fn query_diagonal<S: TupleSource>(
    evaluator: &Evaluator<'_, S>,
    source: &S,
    p: Pred,
    options: &EvalOptions,
) -> (FxHashSet<Const>, AllPairsOutcome) {
    let out = all_pairs_per_source(evaluator, source, p, options);
    let diag = out
        .pairs
        .iter()
        .filter(|(x, y)| x == y)
        .map(|&(x, _)| x)
        .collect();
    (diag, out)
}

/// The Marchetti-Spaccamela-style iteration bound for cyclic data (§3,
/// Figure 8 discussion): for an equation `p = e0 ∪ e1·p·e2`, `m·n`
/// iterations suffice for `p(a, Y)`, where `m` is the number of nodes
/// accessible from the query constant through `e1` and `n` the number
/// of nodes accessible on the `e2` side.  For the `inverse` query
/// `p(X, a)` the traversal of the inverse machine walks `e2⁻¹` per
/// level on the way in and `e1⁻¹` on the way out, so the two sides swap
/// roles.  Returns `None` if the equation does not have the linear
/// shape.
pub fn cyclic_iteration_bound(
    system: &EqSystem,
    db: &rq_datalog::Database,
    p: Pred,
    a: Const,
    inverse: bool,
) -> Option<u64> {
    let (e0, e1, e2) = linear_decomposition(p, &system.rhs[&p])?;
    let derived = system.derived();
    if e0.contains_any(&derived) || e1.contains_any(&derived) || e2.contains_any(&derived) {
        return None;
    }
    let (e0, near, far) = if inverse {
        (e0.inverse(), e2.inverse(), e1.inverse())
    } else {
        (e0, e1, e2)
    };
    // The closures read CSR rows like the traversal does; their probes
    // are not the query's, so they charge scratch counters.
    let mut scratch = Counters::new();
    // D1: nodes accessible from the query constant on its own side.
    let d1 = image_of(db, &Expr::star(near), a, &mut scratch);
    // D2: nodes accessible on the other side — everything reachable
    // through its closure from the flat-images of D1.
    let mid = image(db, &e0, &d1, &mut scratch);
    let d2 = image(db, &Expr::star(far), &mid, &mut scratch);
    Some(
        (d1.len() as u64)
            .saturating_mul(d2.len().max(1) as u64)
            .max(1),
    )
}

/// Evaluate `p(a, Y)` — or, with `inverse`, `p(X, a)` — so that cyclic
/// data cannot hang the traversal: when `options` sets no iteration
/// bound, the `m·n` bound of the query's direction is applied (the
/// run then always terminates, and is complete whenever either the
/// natural condition or the bound applies).  Where the equation has no
/// such bound and `options` no node budget, `fallback_node_budget`
/// caps the traversal instead; hitting it reports non-convergence.
pub fn evaluate_guarded<S: TupleSource>(
    evaluator: &Evaluator<'_, S>,
    db: &rq_datalog::Database,
    p: Pred,
    a: Const,
    inverse: bool,
    options: &EvalOptions,
    fallback_node_budget: Option<u64>,
) -> EvalOutcome {
    let mut opts = options.clone();
    let mut guarded = false;
    if opts.max_iterations.is_none() {
        // +1: iteration i explores recursion depth i-1, and the bound
        // counts recursion depths.
        let bound = cyclic_iteration_bound(evaluator.system(), db, p, a, inverse);
        opts.max_iterations = bound.map(|b| b + 1);
        guarded = bound.is_some();
        if !guarded && opts.node_budget.is_none() {
            opts.node_budget = fallback_node_budget;
        }
    }
    let mut out = if inverse {
        evaluator.evaluate_inverse(p, a, &opts)
    } else {
        evaluator.evaluate(p, a, &opts)
    };
    // The m·n bound is sufficient (Marchetti-Spaccamela et al. [14]), so
    // stopping at it is completion, not truncation.
    out.converged |= guarded;
    out
}

/// Convenience: [`evaluate_guarded`] for `p(a, Y)` on a database, with
/// a fresh evaluator and no fallback budget.
pub fn evaluate_with_cyclic_guard(
    system: &EqSystem,
    db: &rq_datalog::Database,
    p: Pred,
    a: Const,
    options: &EvalOptions,
) -> EvalOutcome {
    let source = EdbSource::new(db);
    let ev = Evaluator::new(system, &source);
    evaluate_guarded(&ev, db, p, a, false, options, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::{parse_program, Database};
    use rq_relalg::{lemma1, Lemma1Options};

    fn setup(src: &str) -> (rq_datalog::Program, Database, EqSystem) {
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        (program, db, sys)
    }

    fn konst(p: &rq_datalog::Program, s: &str) -> Const {
        p.consts.get(&rq_common::ConstValue::Str(s.into())).unwrap()
    }

    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c). e(c,d). e(b,a). e(x,y).";

    #[test]
    fn all_pairs_per_source_matches_naive() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let got = all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let naive = rq_datalog::naive_eval(&program).unwrap();
        let expected: FxHashSet<(Const, Const)> =
            naive.tuples(tc).into_iter().map(|t| (t[0], t[1])).collect();
        assert_eq!(got.pairs, expected);
        assert!(got.converged);
    }

    #[test]
    fn all_pairs_scc_matches_per_source() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let per_source = all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let scc = all_pairs_scc(&sys, &source, tc, &EvalOptions::default());
        assert_eq!(scc.pairs, per_source.pairs);
    }

    #[test]
    fn scc_shares_work_on_cycles() {
        // A long cycle: per-source repeats the whole cycle for each of
        // the n sources (O(n²) node insertions); SCC sharing visits each
        // product node once (O(n)).
        let n = 40;
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..n {
            src.push_str(&format!("e(v{}, v{}).\n", i, (i + 1) % n));
        }
        let (program, db, sys) = setup(&src);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let per_source = all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let scc = all_pairs_scc(&sys, &source, tc, &EvalOptions::default());
        assert_eq!(scc.pairs, per_source.pairs);
        assert_eq!(scc.pairs.len(), n * n);
        assert!(
            scc.counters.nodes_inserted * 4 < per_source.counters.nodes_inserted,
            "scc {} !<< per-source {}",
            scc.counters.nodes_inserted,
            per_source.counters.nodes_inserted
        );
    }

    #[test]
    fn bb_query_checks_membership() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let (yes, _) = query_bb(
            &ev,
            tc,
            konst(&program, "a"),
            konst(&program, "d"),
            &EvalOptions::default(),
        );
        assert!(yes);
        let (no, _) = query_bb(
            &ev,
            tc,
            konst(&program, "a"),
            konst(&program, "y"),
            &EvalOptions::default(),
        );
        assert!(!no);
    }

    #[test]
    fn bb_early_exit_explores_less_than_full_traversal() {
        // A long chain: membership of the first successor must not walk
        // the rest of the chain.
        let n = 60;
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..n {
            src.push_str(&format!("e(v{}, v{}).\n", i, i + 1));
        }
        let (program, db, sys) = setup(&src);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let full = ev.evaluate(tc, konst(&program, "v0"), &EvalOptions::default());
        let (yes, early) = query_bb(
            &ev,
            tc,
            konst(&program, "v0"),
            konst(&program, "v1"),
            &EvalOptions::default(),
        );
        assert!(yes);
        assert!(early.converged, "membership is fully answered");
        assert!(
            early.counters.tuples_retrieved * 4 < full.counters.tuples_retrieved.max(4),
            "early {} !<< full {}",
            early.counters.tuples_retrieved,
            full.counters.tuples_retrieved
        );
        // A negative membership still runs to completion and is exact.
        let (no, out) = query_bb(
            &ev,
            tc,
            konst(&program, "v0"),
            konst(&program, "v0"),
            &EvalOptions::default(),
        );
        assert!(!no);
        assert_eq!(out.answers.len(), n);
    }

    #[test]
    fn diagonal_query_finds_cycle_members() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let (diag, _) = query_diagonal(&ev, &source, tc, &EvalOptions::default());
        // a→b→a cycle: tc(a,a) and tc(b,b) hold.
        let mut names: Vec<String> = diag.iter().map(|&c| program.consts.display(c)).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn cyclic_bound_and_guarded_evaluation() {
        // Figure 8 with m = 2, n = 3 (coprime): needs m·n recursion
        // depths; the guard must terminate with the full answer.
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a1,a2). up(a2,a1).\n\
                   flat(a1,b1).\n\
                   down(b1,b2). down(b2,b3). down(b3,b1).";
        let (program, db, sys) = setup(src);
        let sg = program.pred_by_name("sg").unwrap();
        let a1 = konst(&program, "a1");
        let bound = cyclic_iteration_bound(&sys, &db, sg, a1, false).unwrap();
        assert_eq!(bound, 6); // m=2 up nodes, n=3 down nodes.
        let out = evaluate_with_cyclic_guard(&sys, &db, sg, a1, &EvalOptions::default());
        let mut names: Vec<String> = out
            .answers
            .iter()
            .map(|&c| program.consts.display(c))
            .collect();
        names.sort();
        assert_eq!(names, vec!["b1", "b2", "b3"]);
    }

    #[test]
    fn inverse_cyclic_bound_makes_inverse_queries_complete() {
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a1,a2). up(a2,a1).\n\
                   flat(a1,b1).\n\
                   down(b1,b2). down(b2,b3). down(b3,b1).";
        let (program, db, sys) = setup(src);
        let sg = program.pred_by_name("sg").unwrap();
        let b1 = konst(&program, "b1");
        // Sides swap for the inverse direction: m=3 down nodes from b1,
        // n=2 up nodes.
        let bound = cyclic_iteration_bound(&sys, &db, sg, b1, true).unwrap();
        assert_eq!(bound, 6);
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = ev.evaluate_inverse(
            sg,
            b1,
            &EvalOptions {
                max_iterations: Some(bound + 1),
                ..EvalOptions::default()
            },
        );
        let mut names: Vec<String> = out
            .answers
            .iter()
            .map(|&c| program.consts.display(c))
            .collect();
        names.sort();
        // Oracle: all X with sg(X, b1).
        let naive = rq_datalog::naive_eval(&program).unwrap();
        let mut expected: Vec<String> = naive
            .tuples(sg)
            .into_iter()
            .filter(|t| t[1] == b1)
            .map(|t| program.consts.display(t[0]))
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(names, expected);
    }

    #[test]
    fn cyclic_bound_none_for_regular_equation() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        // tc's equation is e*·e — no derived occurrence, so no linear
        // decomposition around tc.
        assert_eq!(
            cyclic_iteration_bound(&sys, &db, tc, konst(&program, "a"), false),
            None
        );
        // The guard still terminates (natural condition).
        let out = evaluate_with_cyclic_guard(
            &sys,
            &db,
            tc,
            konst(&program, "a"),
            &EvalOptions::default(),
        );
        assert!(out.converged);
    }

    #[test]
    fn min_side_picks_forward_on_a_funnel() {
        // n sources all feeding a 2-node range: the forward evaluation
        // propagates subsets of the tiny range, so forward should win.
        let n = 30;
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..n {
            src.push_str(&format!("e(u{i}, mid).\n"));
        }
        src.push_str("e(mid, sink).\n");
        let (program, db, sys) = setup(&src);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let per_source = all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let (min_side, side) = all_pairs_min_side(&sys, &source, tc, &EvalOptions::default());
        assert_eq!(side, EvalSide::Forward);
        assert_eq!(min_side.pairs, per_source.pairs);
        assert_eq!(min_side.pairs.len(), 2 * n + 1);
    }

    #[test]
    fn min_side_picks_reverse_on_a_fan_out() {
        // One source fanning out to n sinks: the domain {root, mid} is
        // tiny and the range huge, so evaluating the inverse (which
        // propagates domain-side sets) should win.
        let n = 30;
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        src.push_str("e(root, mid).\n");
        for i in 0..n {
            src.push_str(&format!("e(mid, w{i}).\n"));
        }
        let (program, db, sys) = setup(&src);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let per_source = all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let (min_side, side) = all_pairs_min_side(&sys, &source, tc, &EvalOptions::default());
        assert_eq!(side, EvalSide::Reverse);
        assert_eq!(min_side.pairs, per_source.pairs);
    }

    #[test]
    fn min_side_propagation_tracks_smaller_side() {
        // On the fan-out, the forced forward evaluation propagates
        // range-sized answer sets; the chosen reverse side propagates
        // domain-sized sets.  Measure the difference in charged firings.
        let n = 60;
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        src.push_str("e(root, mid).\n");
        for i in 0..n {
            src.push_str(&format!("e(mid, w{i}).\n"));
        }
        let (program, db, sys) = setup(&src);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let forward = all_pairs_scc(&sys, &source, tc, &EvalOptions::default());
        let (chosen, side) = all_pairs_min_side(&sys, &source, tc, &EvalOptions::default());
        assert_eq!(side, EvalSide::Reverse);
        assert_eq!(chosen.pairs, forward.pairs);
        assert!(
            chosen.counters.rule_firings < forward.counters.rule_firings,
            "reverse {} !< forward {}",
            chosen.counters.rule_firings,
            forward.counters.rule_firings
        );
    }

    #[test]
    fn candidate_sources_cover_domain() {
        let (program, db, sys) = setup(TC);
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let sources = candidate_sources(&sys, &source, tc);
        let names: Vec<String> = sources.iter().map(|&c| program.consts.display(c)).collect();
        // Domain of e: a, b, c, x (first columns).
        assert_eq!(names.len(), 4);
    }
}
