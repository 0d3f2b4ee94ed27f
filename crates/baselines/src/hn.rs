//! The Henschen–Naqvi evaluation method \[7\], specialized (as in the
//! paper's comparison) to queries `p(a, Y)` over equations
//! `p = e0 ∪ e1·p·e2`.
//!
//! Henschen–Naqvi is an *iterative node-set* method: it computes
//! `answer = ⋃_k e2^k(e0(e1^k(a)))` by ascending through `e1` images and,
//! at each level `k`, walking the `e2` side `k` steps down **from
//! scratch**.  Unlike the paper's graph-traversal algorithm it does not
//! remember already-traversed paths, which is exactly the difference
//! sample (c) of Figure 7 exposes (O(n²) vs O(n)).

use rq_common::{Const, Counters, FxHashSet};
use rq_datalog::Database;
use rq_engine::image;
use rq_relalg::{linear_decomposition, EqSystem};

/// Result of a Henschen–Naqvi evaluation.
#[derive(Clone, Debug)]
pub struct HnOutcome {
    /// The answer set.
    pub answers: FxHashSet<Const>,
    /// Instrumentation.
    pub counters: Counters,
    /// Whether the ascent exhausted naturally (`true`) or the level
    /// bound was hit.
    pub converged: bool,
}

/// Evaluate `p(a, Y)` with the Henschen–Naqvi strategy.  `max_levels`
/// bounds the ascent for cyclic `e1` (pass the m·n bound of §3).
pub fn henschen_naqvi(
    system: &EqSystem,
    db: &Database,
    p: rq_common::Pred,
    a: Const,
    max_levels: Option<u64>,
) -> HnOutcome {
    let (e0, e1, e2) = linear_decomposition(p, &system.rhs[&p])
        .expect("Henschen-Naqvi requires the linear shape p = e0 ∪ e1·p·e2");
    let mut counters = Counters::new();
    let mut answers: FxHashSet<Const> = FxHashSet::default();
    let mut level_set: FxHashSet<Const> = [a].into_iter().collect();
    let mut k: u64 = 0;
    let mut converged = true;
    // Ascend until the level set is empty.  Without memoization a cyclic
    // e1 never empties; the caller's bound decides.
    loop {
        counters.iterations += 1;
        // F_k = e0(A_k), then walk k steps of e2 from scratch.
        let mut t = image(db, &e0, &level_set, &mut counters);
        for _ in 0..k {
            if t.is_empty() {
                break;
            }
            t = image(db, &e2, &t, &mut counters);
        }
        for v in t {
            if answers.insert(v) {
                counters.nodes_inserted += 1;
            }
        }
        // A_{k+1} = e1(A_k).
        level_set = image(db, &e1, &level_set, &mut counters);
        if level_set.is_empty() {
            break;
        }
        k += 1;
        if let Some(limit) = max_levels {
            if k >= limit {
                converged = false;
                break;
            }
        }
    }
    HnOutcome {
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

    fn setup(src: &str) -> (rq_datalog::Program, Database, EqSystem) {
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        (program, db, sys)
    }

    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n";

    #[test]
    fn hn_matches_naive_on_sg() {
        let (program, db, sys) = setup(&format!(
            "{SG} up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z). down(b2,b1). down(b1,b)."
        ));
        let sg = program.pred_by_name("sg").unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let out = henschen_naqvi(&sys, &db, sg, a, None);
        let naive = rq_datalog::naive_eval(&program).unwrap();
        let expected: FxHashSet<Const> = naive
            .tuples(sg)
            .into_iter()
            .filter(|t| t[0] == a)
            .map(|t| t[1])
            .collect();
        assert_eq!(out.answers, expected);
        assert!(out.converged);
    }

    #[test]
    fn hn_cyclic_respects_bound() {
        let (program, db, sys) = setup(&format!(
            "{SG} up(a1,a2). up(a2,a1). flat(a1,b1). down(b1,b2). down(b2,b3). down(b3,b1)."
        ));
        let sg = program.pred_by_name("sg").unwrap();
        let a1 = program.consts.get(&ConstValue::Str("a1".into())).unwrap();
        let out = henschen_naqvi(&sys, &db, sg, a1, Some(7));
        assert!(!out.converged);
        let mut names: Vec<String> = out
            .answers
            .iter()
            .map(|&c| program.consts.display(c))
            .collect();
        names.sort();
        assert_eq!(names, vec!["b1", "b2", "b3"]);
    }

    #[test]
    fn hn_redoes_down_walks() {
        // Figure 7(c)-like: up chain, flat rungs, descending down chain.
        // HN's per-level down walk is Θ(k), so total tuple retrievals are
        // quadratic in n.
        let n = 30;
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
        let out = henschen_naqvi(&sys, &db, sg, a0, None);
        // Quadratic: at least n²/4 retrievals.
        assert!(
            out.counters.tuples_retrieved as usize > n * n / 4,
            "HN should be quadratic here, got {}",
            out.counters.tuples_retrieved
        );
        // And still correct.
        assert_eq!(out.answers.len(), 1); // {b0}
    }
}
