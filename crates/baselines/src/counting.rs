//! The counting and reverse-counting methods of Bancilhon, Maier, Sagiv
//! and Ullman \[3\], for queries `p(a, Y)` over equations
//! `p = e0 ∪ e1·p·e2`.
//!
//! *Counting* indexes the magic set by distance: ascending, it computes
//! the level sets `U_k = e1^k(a)` as `(node, level)` pairs; descending,
//! it walks `(node, level) → (e2-successor, level−1)` pairs from the
//! `e0`-images, memoizing pairs so each is expanded once.  The answer is
//! the nodes that reach level 0.  The paper notes our traversal's time
//! bounds coincide with counting's — the `EM(p,i)` hierarchy "effectively
//! includes the process of counting" — and the E1 benchmark confirms it.
//!
//! *Reverse counting* processes the down side from each candidate answer
//! node backwards (via `e2⁻¹`), checking whether it meets the flat
//! fringe at the matching level.  Exploring per-candidate is what makes
//! it quadratic where counting is linear.
//!
//! Both methods assume acyclic data; `max_levels` bounds the ascent
//! otherwise (the Marchetti-Spaccamela m·n bound makes them complete on
//! cyclic data too, at the usual cost).

use rq_common::{Const, Counters, FxHashSet, Pred};
use rq_datalog::Database;
use rq_engine::image;
use rq_relalg::{linear_decomposition, EqSystem, Expr};

/// Result of a counting-family evaluation.
#[derive(Clone, Debug)]
pub struct CountingOutcome {
    /// The answer set.
    pub answers: FxHashSet<Const>,
    /// Instrumentation; `nodes_inserted` counts the `(node, level)`
    /// pairs, the method's natural cost measure.
    pub counters: Counters,
    /// Whether the ascent exhausted naturally.
    pub converged: bool,
}

fn decompose(system: &EqSystem, p: Pred) -> (Expr, Expr, Expr) {
    linear_decomposition(p, &system.rhs[&p])
        .expect("counting requires the linear shape p = e0 ∪ e1·p·e2")
}

/// Ascend through `e1`, producing the level sets and memoized pairs.
fn ascend(
    db: &Database,
    e1: &Expr,
    a: Const,
    max_levels: Option<u64>,
    counters: &mut Counters,
) -> (Vec<FxHashSet<Const>>, bool) {
    let mut levels: Vec<FxHashSet<Const>> = vec![[a].into_iter().collect()];
    counters.nodes_inserted += 1;
    let mut converged = true;
    loop {
        let next = image(db, e1, levels.last().expect("nonempty"), counters);
        if next.is_empty() {
            break;
        }
        counters.nodes_inserted += next.len() as u64;
        levels.push(next);
        if let Some(limit) = max_levels {
            if levels.len() as u64 > limit {
                converged = false;
                break;
            }
        }
    }
    (levels, converged)
}

/// The counting method.
pub fn counting(
    system: &EqSystem,
    db: &Database,
    p: Pred,
    a: Const,
    max_levels: Option<u64>,
) -> CountingOutcome {
    let (e0, e1, e2) = decompose(system, p);
    let mut counters = Counters::new();
    let (levels, converged) = ascend(db, &e1, a, max_levels, &mut counters);
    counters.iterations = levels.len() as u64;

    // Descend: worklist of (node, level) pairs, each expanded once.
    let mut answers: FxHashSet<Const> = FxHashSet::default();
    let mut seen: FxHashSet<(Const, u64)> = FxHashSet::default();
    let mut stack: Vec<(Const, u64)> = Vec::new();
    for (k, level_set) in levels.iter().enumerate() {
        let fringe = image(db, &e0, level_set, &mut counters);
        for f in fringe {
            if seen.insert((f, k as u64)) {
                counters.nodes_inserted += 1;
                stack.push((f, k as u64));
            }
        }
    }
    let mut buf: FxHashSet<Const> = FxHashSet::default();
    while let Some((x, lvl)) = stack.pop() {
        if lvl == 0 {
            answers.insert(x);
            continue;
        }
        buf.clear();
        buf.insert(x);
        let nexts = image(db, &e2, &buf, &mut counters);
        for y in nexts {
            if seen.insert((y, lvl - 1)) {
                counters.nodes_inserted += 1;
                stack.push((y, lvl - 1));
            }
        }
    }
    CountingOutcome {
        answers,
        counters,
        converged,
    }
}

/// The reverse-counting method: identical ascent, but the down side is
/// checked per candidate answer node, exploring backwards through `e2⁻¹`
/// without sharing across candidates.
pub fn reverse_counting(
    system: &EqSystem,
    db: &Database,
    p: Pred,
    a: Const,
    max_levels: Option<u64>,
) -> CountingOutcome {
    let (e0, e1, e2) = decompose(system, p);
    let mut counters = Counters::new();
    let (levels, converged) = ascend(db, &e1, a, max_levels, &mut counters);
    counters.iterations = levels.len() as u64;

    // Flat fringe with levels.
    let mut fringe: Vec<FxHashSet<Const>> = Vec::with_capacity(levels.len());
    for level_set in &levels {
        fringe.push(image(db, &e0, level_set, &mut counters));
    }

    // Candidate answers: everything reachable from the fringe through
    // e2* (a superset of the true answers).
    let all_fringe: FxHashSet<Const> = fringe.iter().flatten().copied().collect();
    let candidates = image(db, &Expr::star(e2.clone()), &all_fringe, &mut counters);

    // Per candidate: BFS backwards through e2⁻¹ with level counting; the
    // candidate is an answer if some fringe node of level k is reached
    // in exactly k backward steps.
    let e2_inv = e2.inverse();
    let max_k = levels.len() as u64;
    let mut answers: FxHashSet<Const> = FxHashSet::default();
    for &w in &candidates {
        let mut frontier: FxHashSet<Const> = [w].into_iter().collect();
        let mut hit = fringe.first().is_some_and(|f0| f0.contains(&w));
        let mut steps: u64 = 0;
        while !hit && !frontier.is_empty() && steps < max_k {
            frontier = image(db, &e2_inv, &frontier, &mut counters);
            counters.nodes_inserted += frontier.len() as u64;
            steps += 1;
            if let Some(fk) = fringe.get(steps as usize) {
                hit = frontier.iter().any(|x| fk.contains(x));
            }
        }
        if hit {
            answers.insert(w);
        }
    }
    CountingOutcome {
        answers,
        counters,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::ConstValue;
    use rq_datalog::parse_program;
    use rq_relalg::{lemma1, Lemma1Options};

    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n";

    fn setup(src: &str) -> (rq_datalog::Program, Database, EqSystem) {
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        (program, db, sys)
    }

    fn oracle(program: &rq_datalog::Program, pred: Pred, a: Const) -> FxHashSet<Const> {
        rq_datalog::naive_eval(program)
            .unwrap()
            .tuples(pred)
            .into_iter()
            .filter(|t| t[0] == a)
            .map(|t| t[1])
            .collect()
    }

    #[test]
    fn counting_matches_oracle() {
        let (program, db, sys) = setup(&format!(
            "{SG} up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z). flat(a1,m).\n\
             down(b2,b1). down(b1,b). down(m,m1)."
        ));
        let sg = program.pred_by_name("sg").unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let out = counting(&sys, &db, sg, a, None);
        assert_eq!(out.answers, oracle(&program, sg, a));
        assert!(out.converged);
    }

    #[test]
    fn reverse_counting_matches_oracle() {
        let (program, db, sys) = setup(&format!(
            "{SG} up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z). flat(a1,m).\n\
             down(b2,b1). down(b1,b). down(m,m1)."
        ));
        let sg = program.pred_by_name("sg").unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let out = reverse_counting(&sys, &db, sg, a, None);
        assert_eq!(out.answers, oracle(&program, sg, a));
    }

    #[test]
    fn counting_linear_on_fig7c() {
        // up chain + flat rungs + descending down chain.  The fringe
        // entry at level k is (b_k, k); its descent step reaches
        // (b_{k-1}, k-1), which is exactly the fringe entry of level
        // k-1 — the memoized pair set stays O(n).
        let n = 40;
        let mut src = String::from(SG);
        for i in 0..n - 1 {
            src.push_str(&format!("up(a{}, a{}).\n", i, i + 1));
        }
        for i in 0..n {
            src.push_str(&format!("flat(a{i}, b{i}).\n"));
        }
        for i in (1..n).rev() {
            src.push_str(&format!("down(b{}, b{}).\n", i, i - 1));
        }
        let (program, db, sys) = setup(&src);
        let sg = program.pred_by_name("sg").unwrap();
        let a0 = program.consts.get(&ConstValue::Str("a0".into())).unwrap();
        let out = counting(&sys, &db, sg, a0, None);
        assert_eq!(out.answers.len(), 1);
        assert!(
            (out.counters.nodes_inserted as usize) < 6 * n,
            "counting should be linear here, got {} pairs",
            out.counters.nodes_inserted
        );
    }

    #[test]
    fn reverse_counting_quadratic_on_fig7c() {
        let n = 40;
        let mut src = String::from(SG);
        for i in 0..n - 1 {
            src.push_str(&format!("up(a{}, a{}).\n", i, i + 1));
        }
        for i in 0..n {
            src.push_str(&format!("flat(a{i}, b{i}).\n"));
        }
        for i in (1..n).rev() {
            src.push_str(&format!("down(b{}, b{}).\n", i, i - 1));
        }
        let (program, db, sys) = setup(&src);
        let sg = program.pred_by_name("sg").unwrap();
        let a0 = program.consts.get(&ConstValue::Str("a0".into())).unwrap();
        let fwd = counting(&sys, &db, sg, a0, None);
        let rev = reverse_counting(&sys, &db, sg, a0, None);
        assert_eq!(rev.answers, fwd.answers);
        assert!(
            rev.counters.total_work() > 4 * fwd.counters.total_work(),
            "reverse {} !>> forward {}",
            rev.counters.total_work(),
            fwd.counters.total_work()
        );
    }

    #[test]
    fn counting_cyclic_with_bound() {
        let (program, db, sys) = setup(&format!(
            "{SG} up(a1,a2). up(a2,a1). flat(a1,b1). down(b1,b2). down(b2,b3). down(b3,b1)."
        ));
        let sg = program.pred_by_name("sg").unwrap();
        let a1 = program.consts.get(&ConstValue::Str("a1".into())).unwrap();
        let out = counting(&sys, &db, sg, a1, Some(7));
        assert!(!out.converged);
        assert_eq!(out.answers, oracle(&program, sg, a1));
    }
}
