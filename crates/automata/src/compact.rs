//! ε-compaction of Thompson automata.
//!
//! The standard construction behind `M(e_p)` is deliberately ε-heavy:
//! every union branch and star adds glue states whose only behavior is a
//! silent move.  In the traversal engine each `id` transition is not
//! free — it materializes an extra `(state, term)` node in `G(p, a, i)`
//! per term that passes through it, so glue states inflate the very
//! quantity (graph nodes) the paper's complexity bounds count.
//!
//! [`compact`] contracts the harmless part of that overhead while
//! preserving the single-start/single-final shape the engine's machine
//! splicing relies on:
//!
//! * pure ε self-loops are dropped;
//! * duplicate transitions are deduplicated;
//! * a state whose *only* outgoing transition is a single ε-move (and
//!   which is not the final state) is merged into its successor;
//! * states unreachable from the start, or from which the final state is
//!   unreachable, are pruned.
//!
//! Each rewrite preserves the accepted language exactly (tested by
//! bounded language enumeration and by a proptest over random
//! expressions).  On the machines served plans compile it removes
//! nothing: `tc = e*·e` keeps its 5 states and 4 `id` transitions (the
//! REPL's `:plan` line prints both counts).  Only union-heavy equations
//! shrink, which the engine's `compacted_machines_same_answers_fewer_nodes`
//! test measures in traversal nodes.

use crate::nfa::{Label, Nfa};
use rq_common::FxHashSet;

/// Size accounting for one compaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// States before.
    pub states_before: usize,
    /// States after.
    pub states_after: usize,
    /// Transitions before.
    pub trans_before: usize,
    /// Transitions after.
    pub trans_after: usize,
    /// `id` transitions before.
    pub id_before: usize,
    /// `id` transitions after.
    pub id_after: usize,
}

fn count_id(nfa: &Nfa) -> usize {
    nfa.trans
        .iter()
        .flatten()
        .filter(|(l, _)| *l == Label::Id)
        .count()
}

/// Compact an automaton.  The result accepts exactly the same language
/// and still has a single start and a single final state.
pub fn compact(nfa: &Nfa) -> (Nfa, CompactionStats) {
    let mut out = nfa.clone();
    let stats_before = (out.num_states(), out.num_transitions(), count_id(&out));

    loop {
        let mut changed = false;
        changed |= drop_epsilon_self_loops(&mut out);
        changed |= dedupe_transitions(&mut out);
        changed |= contract_single_epsilon_states(&mut out);
        if !changed {
            break;
        }
    }
    prune(&mut out);

    let stats = CompactionStats {
        states_before: stats_before.0,
        trans_before: stats_before.1,
        id_before: stats_before.2,
        states_after: out.num_states(),
        trans_after: out.num_transitions(),
        id_after: count_id(&out),
    };
    (out, stats)
}

fn drop_epsilon_self_loops(nfa: &mut Nfa) -> bool {
    let mut changed = false;
    for (q, row) in nfa.trans.iter_mut().enumerate() {
        let before = row.len();
        row.retain(|&(l, to)| !(l == Label::Id && to == q));
        changed |= row.len() != before;
    }
    changed
}

fn dedupe_transitions(nfa: &mut Nfa) -> bool {
    let mut changed = false;
    let mut seen: FxHashSet<(Label, usize)> = FxHashSet::default();
    for row in &mut nfa.trans {
        seen.clear();
        let before = row.len();
        row.retain(|&t| seen.insert(t));
        changed |= row.len() != before;
    }
    changed
}

/// Merge every state whose only outgoing transition is one ε-move into
/// its successor (the final state is kept, it must remain addressable).
fn contract_single_epsilon_states(nfa: &mut Nfa) -> bool {
    let mut changed = false;
    for q in 0..nfa.num_states() {
        if q == nfa.finish {
            continue;
        }
        let [(Label::Id, to)] = nfa.trans[q][..] else {
            continue;
        };
        if to == q {
            continue; // self-loop, handled elsewhere
        }
        // Redirect every in-edge of q to `to`, then orphan q.
        for row in &mut nfa.trans {
            for t in row.iter_mut() {
                if t.1 == q {
                    t.1 = to;
                }
            }
        }
        if nfa.start == q {
            nfa.start = to;
        }
        nfa.trans[q].clear();
        changed = true;
    }
    changed
}

/// Drop states that are unreachable from the start or cannot reach the
/// final state, and renumber.  Start and finish survive regardless (an
/// automaton for `∅` keeps its two bare states).
fn prune(nfa: &mut Nfa) {
    let n = nfa.num_states();
    // Forward reachability.
    let mut fwd = vec![false; n];
    let mut stack = vec![nfa.start];
    while let Some(q) = stack.pop() {
        if std::mem::replace(&mut fwd[q], true) {
            continue;
        }
        for &(_, to) in &nfa.trans[q] {
            if !fwd[to] {
                stack.push(to);
            }
        }
    }
    // Backward reachability from finish.
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (q, row) in nfa.trans.iter().enumerate() {
        for &(_, to) in row {
            pred[to].push(q);
        }
    }
    let mut bwd = vec![false; n];
    stack.push(nfa.finish);
    while let Some(q) = stack.pop() {
        if std::mem::replace(&mut bwd[q], true) {
            continue;
        }
        for &from in &pred[q] {
            if !bwd[from] {
                stack.push(from);
            }
        }
    }

    let keep: Vec<bool> = (0..n)
        .map(|q| (fwd[q] && bwd[q]) || q == nfa.start || q == nfa.finish)
        .collect();
    let mut remap = vec![usize::MAX; n];
    let mut next = 0usize;
    for q in 0..n {
        if keep[q] {
            remap[q] = next;
            next += 1;
        }
    }
    let mut trans: Vec<Vec<(Label, usize)>> = Vec::with_capacity(next);
    for q in 0..n {
        if !keep[q] {
            continue;
        }
        trans.push(
            nfa.trans[q]
                .iter()
                .filter(|&&(_, to)| keep[to])
                .map(|&(l, to)| (l, remap[to]))
                .collect(),
        );
    }
    nfa.trans = trans;
    nfa.start = remap[nfa.start];
    nfa.finish = remap[nfa.finish];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{expr_words_up_to, thompson};
    use rq_common::Pred;
    use rq_relalg::Expr;

    fn p(i: u32) -> Expr {
        Expr::Sym(Pred(i))
    }

    fn assert_compaction_preserves(e: &Expr, max_len: usize) {
        let nfa = thompson(e);
        let (small, stats) = compact(&nfa);
        assert_eq!(
            small.words_up_to(max_len),
            expr_words_up_to(e, max_len),
            "language changed for {e:?}"
        );
        assert!(stats.states_after <= stats.states_before);
        assert!(stats.trans_after <= stats.trans_before);
        assert!(stats.id_after <= stats.id_before);
    }

    #[test]
    fn compaction_preserves_language() {
        assert_compaction_preserves(&Expr::Empty, 3);
        assert_compaction_preserves(&Expr::Id, 3);
        assert_compaction_preserves(&p(1), 3);
        assert_compaction_preserves(&Expr::union([p(1), p(2)]), 3);
        assert_compaction_preserves(&Expr::cat([p(1), p(2), p(3)]), 4);
        assert_compaction_preserves(&Expr::star(p(1)), 5);
        assert_compaction_preserves(&Expr::Inv(Pred(3)), 2);
        // Figure 1's e_p with p-as-letter.
        assert_compaction_preserves(
            &Expr::cat([
                Expr::union([Expr::cat([p(3), Expr::star(p(4))]), Expr::cat([p(2), p(5)])]),
                p(1),
            ]),
            5,
        );
        assert_compaction_preserves(&Expr::star(Expr::union([p(1), Expr::cat([p(2), p(3)])])), 5);
        // Nested stars generate ε-chains and ε-self-loop opportunities.
        assert_compaction_preserves(&Expr::star(Expr::star(p(1))), 4);
        assert_compaction_preserves(&Expr::star(Expr::Id), 3);
        assert_compaction_preserves(&Expr::union([Expr::Id, p(1)]), 3);
        assert_compaction_preserves(&Expr::cat([Expr::star(p(1)), Expr::star(p(2))]), 4);
    }

    #[test]
    fn compaction_shrinks_union_glue() {
        // (a ∪ b ∪ c)·d: Thompson adds two glue states per branch.
        let e = Expr::cat([Expr::union([p(1), p(2), p(3)]), p(4)]);
        let nfa = thompson(&e);
        let (small, stats) = compact(&nfa);
        assert!(
            small.num_states() < nfa.num_states(),
            "no shrink: {} -> {}",
            nfa.num_states(),
            small.num_states()
        );
        assert!(stats.id_after < stats.id_before);
    }

    #[test]
    fn compaction_reaches_a_fixpoint() {
        let e = Expr::star(Expr::union([p(1), Expr::cat([p(2), Expr::star(p(3))])]));
        let (small, _) = compact(&thompson(&e));
        let (again, stats) = compact(&small);
        assert_eq!(again.num_states(), small.num_states());
        assert_eq!(stats.states_before, stats.states_after);
        assert_eq!(stats.trans_before, stats.trans_after);
    }

    #[test]
    fn no_single_epsilon_states_remain() {
        let e = Expr::cat([
            Expr::union([p(1), Expr::star(p(2))]),
            Expr::union([p(3), p(4)]),
        ]);
        let (small, _) = compact(&thompson(&e));
        for (q, row) in small.trans.iter().enumerate() {
            if q == small.finish {
                continue;
            }
            assert!(
                !matches!(row[..], [(Label::Id, to)] if to != q),
                "state {q} still has a single ε-out"
            );
        }
    }

    #[test]
    fn prune_keeps_empty_automaton_shape() {
        let (small, _) = compact(&thompson(&Expr::Empty));
        assert!(small.words_up_to(2).is_empty());
        assert!(small.start < small.num_states());
        assert!(small.finish < small.num_states());
    }

    #[test]
    fn compacted_id_may_merge_start_into_finish() {
        let (small, _) = compact(&thompson(&Expr::Id));
        // `id` accepts exactly ε; whatever the shape, the language holds.
        let words = small.words_up_to(2);
        assert_eq!(words.len(), 1);
        assert!(words.contains(&Vec::new()));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_expr() -> impl Strategy<Value = Expr> {
            let leaf = prop_oneof![
                Just(Expr::Empty),
                Just(Expr::Id),
                (1u32..5).prop_map(|i| Expr::Sym(Pred(i))),
                (1u32..5).prop_map(|i| Expr::Inv(Pred(i))),
            ];
            leaf.prop_recursive(4, 24, 3, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::union),
                    prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::cat),
                    inner.prop_map(Expr::star),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn compaction_preserves_random_languages(e in arb_expr()) {
                assert_compaction_preserves(&e, 4);
            }

            #[test]
            fn compaction_is_idempotent(e in arb_expr()) {
                let (once, _) = compact(&thompson(&e));
                let (twice, stats) = compact(&once);
                prop_assert_eq!(once.num_states(), twice.num_states());
                prop_assert_eq!(stats.trans_before, stats.trans_after);
            }
        }
    }
}
