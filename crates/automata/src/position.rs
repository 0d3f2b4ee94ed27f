//! The served machines: ε-free position automata.
//!
//! A traversal pays one unit per `(state, term)` node, so every state a
//! walk passes through costs one node per term that reaches it.  The
//! Thompson construction ([`crate::thompson`]) glues fragments with `id`
//! transitions, and each glue state is such a pass-through: `tc = e*·e`
//! has 5 states and 4 `id` transitions, so a forward walk inserts four
//! nodes per reached term.
//!
//! [`position()`] builds the position automaton instead (Glushkov 1961;
//! Berry–Sethi 1986): one start state with no incoming transition, one
//! state per label occurrence of the expression, a set of final states,
//! and no `id` transition.  A state is entered only through transitions
//! labeled with its own occurrence, so the states that share their
//! incoming `(source, label)` set are reached by exactly the same words;
//! merging them, to a fixpoint, keeps the language.  The merge turns
//! `e*·e` into the 2-state `e⁺` machine, and a forward `tc` walk inserts
//! one node per reached term.
//!
//! Every row comes out sorted by label, so the transitions one state
//! takes on one label sit side by side and a traversal reads their
//! relation row once.

use crate::nfa::{Label, Nfa};
use rq_common::FxHashMap;
use rq_relalg::Expr;

/// A state's transitions (`Nfa::trans` rows).
type Row = Vec<(Label, usize)>;

/// A transition as `(target, source, label)`.
type Entry = (usize, usize, Label);

/// First and last positions of a subexpression, and whether it accepts
/// the empty word.
#[derive(Default)]
struct Fragment {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

/// The position automaton of `e` with same-entry states merged: the
/// machine every plan serves.  State 0 is the only start and has no
/// incoming transition; there are at most `1 + e.occurrence_count()`
/// states and no `id` transition.  Derived predicates are ordinary
/// letters here, as in [`crate::thompson`].
pub fn position(e: &Expr) -> Nfa {
    let mut nfa = positions(e);
    merge_same_entry(&mut nfa);
    reachable_part(&nfa)
}

/// The unmerged position automaton of `e`.
fn positions(e: &Expr) -> Nfa {
    // Positions are numbered from 1: state 0 is the start, and
    // `trans[q]` collects the transitions into the positions that may
    // follow `q`.
    let mut labels = vec![Label::Id];
    let mut trans = vec![Row::new()];
    let whole = fragment(e, &mut labels, &mut trans).unwrap_or_default();
    trans[0] = whole.first.iter().map(|&q| (labels[q], q)).collect();
    let mut finals = vec![false; labels.len()];
    finals[0] = whole.nullable;
    for &q in &whole.last {
        finals[q] = true;
    }
    Nfa {
        trans,
        starts: vec![0],
        finals,
    }
}

/// First, last and follow sets of `e`, allocating its positions; `None`
/// when `e` denotes the empty relation.  Empty parts are dropped where
/// they stand, so no position of the result is a dead end: the
/// positions an empty part allocated are left unreachable.
fn fragment(e: &Expr, labels: &mut Vec<Label>, trans: &mut Vec<Row>) -> Option<Fragment> {
    let link = |trans: &mut Vec<Row>, labels: &[Label], from: &[usize], to: &[usize]| {
        for &q in from {
            trans[q].extend(to.iter().map(|&p| (labels[p], p)));
        }
    };
    Some(match e {
        Expr::Empty => return None,
        Expr::Id => Fragment {
            nullable: true,
            ..Fragment::default()
        },
        Expr::Sym(p) | Expr::Inv(p) => {
            labels.push(match e {
                Expr::Sym(_) => Label::Sym(*p),
                _ => Label::Inv(*p),
            });
            trans.push(Row::new());
            let q = labels.len() - 1;
            Fragment {
                nullable: false,
                first: vec![q],
                last: vec![q],
            }
        }
        Expr::Union(parts) => parts
            .iter()
            .filter_map(|part| fragment(part, labels, trans))
            .reduce(|mut out, f| {
                out.nullable |= f.nullable;
                out.first.extend(f.first);
                out.last.extend(f.last);
                out
            })?,
        Expr::Cat(parts) => {
            let mut out = Fragment {
                nullable: true,
                ..Fragment::default()
            };
            for part in parts {
                let f = fragment(part, labels, trans)?;
                link(trans, labels, &out.last, &f.first);
                if out.nullable {
                    out.first.extend_from_slice(&f.first);
                }
                if !f.nullable {
                    out.last.clear();
                }
                out.last.extend(f.last);
                out.nullable &= f.nullable;
            }
            out
        }
        Expr::Star(inner) => match fragment(inner, labels, trans) {
            Some(f) => {
                link(trans, labels, &f.last, &f.first);
                Fragment {
                    nullable: true,
                    ..f
                }
            }
            None => Fragment {
                nullable: true,
                ..Fragment::default()
            },
        },
    })
}

/// Merge, to a fixpoint, the states whose incoming `(source, label)`
/// sets are identical (the start has none, so it never merges).  A
/// merged state keeps the smaller index, takes the union of the
/// outgoing rows and is final if either was; the other is left without
/// rows and incoming transitions, and drops out of later rounds.
fn merge_same_entry(nfa: &mut Nfa) {
    merge_with(nfa, first_same_entry);
}

/// For each group of a round, in order, the state of the first group
/// with the same `(source, label)` list: one hash lookup per group.
fn first_same_entry(groups: &[&[Entry]]) -> Vec<usize> {
    let mut first: FxHashMap<Vec<(usize, Label)>, usize> = FxHashMap::default();
    let signature = |g: &[Entry]| g.iter().map(|&(_, q, label)| (q, label)).collect();
    groups
        .iter()
        .map(|g| *first.entry(signature(g)).or_insert(g[0].0))
        .collect()
}

/// [`merge_same_entry`] with the representative of each group chosen
/// by `representatives`.
fn merge_with(nfa: &mut Nfa, representatives: fn(&[&[Entry]]) -> Vec<usize>) {
    loop {
        // Every transition, grouped by target.
        let mut entries: Vec<Entry> = Vec::new();
        for (q, row) in nfa.trans.iter().enumerate() {
            entries.extend(row.iter().map(|&(label, to)| (to, q, label)));
        }
        entries.sort_unstable();
        entries.dedup();
        let groups: Vec<&[Entry]> = entries.chunk_by(|x, y| x.0 == y.0).collect();
        let mut target: Vec<usize> = (0..nfa.num_states()).collect();
        for (g, into) in groups.iter().zip(representatives(&groups)) {
            target[g[0].0] = into;
        }
        if target.iter().enumerate().all(|(q, &into)| into == q) {
            return;
        }
        for (q, &into) in target.iter().enumerate().filter(|&(q, &into)| into != q) {
            let row = std::mem::take(&mut nfa.trans[q]);
            nfa.trans[into].extend(row);
            nfa.finals[into] |= std::mem::replace(&mut nfa.finals[q], false);
        }
        for t in nfa.trans.iter_mut().flatten() {
            t.1 = target[t.1];
        }
    }
}

/// The states reachable from the start, numbered densely in their old
/// order, with every row sorted and duplicate-free.
fn reachable_part(nfa: &Nfa) -> Nfa {
    let n = nfa.num_states();
    let mut index = vec![usize::MAX; n];
    let mut stack = vec![0];
    while let Some(q) = stack.pop() {
        if std::mem::replace(&mut index[q], 0) == usize::MAX {
            stack.extend(nfa.trans[q].iter().map(|&(_, to)| to));
        }
    }
    let kept: Vec<usize> = (0..n).filter(|&q| index[q] == 0).collect();
    for (i, &q) in kept.iter().enumerate() {
        index[q] = i;
    }
    let row = |q: usize| {
        let mut row: Row = nfa.trans[q]
            .iter()
            .map(|&(label, to)| (label, index[to]))
            .collect();
        row.sort_unstable();
        row.dedup();
        row
    };
    Nfa {
        trans: kept.iter().map(|&q| row(q)).collect(),
        starts: vec![0],
        finals: kept.iter().map(|&q| nfa.finals[q]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{expr_words_up_to, thompson};
    use rq_common::{FxHashSet, Pred};

    fn p(i: u32) -> Expr {
        Expr::Sym(Pred(i))
    }

    fn id_transitions(nfa: &Nfa) -> usize {
        let ids = nfa.trans.iter().flatten().filter(|(l, _)| *l == Label::Id);
        ids.count()
    }

    /// Everything the engine relies on of a served machine.
    fn assert_served_shape(e: &Expr, max_len: usize) {
        let nfa = position(e);
        assert_eq!(
            nfa.words_up_to(max_len),
            expr_words_up_to(e, max_len),
            "language changed for {e:?}"
        );
        assert_eq!(id_transitions(&nfa), 0, "id transition in {e:?}");
        assert_eq!(nfa.starts, vec![0]);
        assert!(
            nfa.trans.iter().flatten().all(|&(_, to)| to != 0),
            "the start of {e:?} has an incoming transition"
        );
        assert!(nfa.num_states() <= 1 + e.occurrence_count());
        assert_eq!(nfa.finals.len(), nfa.num_states());
        for row in &nfa.trans {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "unsorted row {row:?}");
        }
    }

    #[test]
    fn served_machines_accept_the_expression_language() {
        assert_served_shape(&Expr::Empty, 3);
        assert_served_shape(&Expr::Id, 3);
        assert_served_shape(&p(1), 3);
        assert_served_shape(&Expr::union([p(1), p(2)]), 3);
        assert_served_shape(&Expr::cat([p(1), p(2), p(3)]), 4);
        assert_served_shape(&Expr::star(p(1)), 5);
        assert_served_shape(&Expr::Inv(Pred(3)), 2);
        // Figure 1's e_p with p-as-letter.
        assert_served_shape(
            &Expr::cat([
                Expr::union([Expr::cat([p(3), Expr::star(p(4))]), Expr::cat([p(2), p(5)])]),
                p(1),
            ]),
            5,
        );
        assert_served_shape(&Expr::star(Expr::union([p(1), Expr::cat([p(2), p(3)])])), 5);
        // Nested stars are where Thompson stacks ε-chains.
        assert_served_shape(&Expr::star(Expr::star(p(1))), 4);
        assert_served_shape(&Expr::star(Expr::Id), 3);
        assert_served_shape(&Expr::union([Expr::Id, p(1)]), 3);
        assert_served_shape(&Expr::cat([Expr::star(p(1)), Expr::star(p(2))]), 4);
        // Dead branches: a·∅ and ∅·a·b accept nothing, and c must
        // survive them.
        assert_served_shape(
            &Expr::Union(vec![
                Expr::Cat(vec![p(1), Expr::Empty]),
                Expr::Cat(vec![Expr::Empty, p(1), p(2)]),
                p(3),
            ]),
            3,
        );
    }

    #[test]
    fn tc_machine_is_e_plus() {
        // e*·e: both occurrences of e are entered from the start and
        // from the star's occurrence, so they merge into one state.
        let e = Expr::cat([Expr::star(p(1)), p(1)]);
        let nfa = position(&e);
        let e1 = Label::Sym(Pred(1));
        assert_eq!(nfa.trans, vec![vec![(e1, 1)], vec![(e1, 1)]]);
        assert_eq!(nfa.finals, vec![false, true]);
        let thompson = thompson(&e);
        assert_eq!((thompson.num_states(), id_transitions(&thompson)), (5, 4));
    }

    #[test]
    fn served_machines_drop_union_glue() {
        // (a ∪ b ∪ c)·d: Thompson adds two glue states per branch.
        let e = Expr::cat([Expr::union([p(1), p(2), p(3)]), p(4)]);
        let reference = thompson(&e);
        let served = position(&e);
        assert_eq!(served.num_states(), 5);
        assert!(served.num_states() < reference.num_states());
        assert!(id_transitions(&reference) > 0);
    }

    /// The quadratic scan [`first_same_entry`] replaced: each group
    /// against every earlier one.
    fn scanned_same_entry(groups: &[&[Entry]]) -> Vec<usize> {
        let same_entry = |g: &[Entry], h: &[Entry]| {
            g.len() == h.len() && g.iter().zip(h).all(|(x, y)| (x.1, x.2) == (y.1, y.2))
        };
        let first = |i: usize| groups[..i].iter().find(|h| same_entry(groups[i], h));
        (0..groups.len())
            .map(|i| first(i).unwrap_or(&groups[i])[0].0)
            .collect()
    }

    /// [`position`] with the scan picking the representatives.
    fn scanned_position(e: &Expr) -> Nfa {
        let mut nfa = positions(e);
        merge_with(&mut nfa, scanned_same_entry);
        reachable_part(&nfa)
    }

    #[test]
    fn hashed_signatures_build_the_scanned_machines_on_random_programs() {
        use rq_relalg::{lemma1, Lemma1Options};
        use rq_workloads::randprog::{random_program, seeded, RandProgConfig, RecursionStyle};
        let styles = [
            RecursionStyle::Regular,
            RecursionStyle::MiddleLinear,
            RecursionStyle::Mixed,
        ];
        let shallow = (0..8).flat_map(|seed| styles.map(|style| seeded(seed, style)));
        // `differential`'s mutual-recursion programs: seeds 7 and 14
        // solve to systems of ≈ 90k characters.
        let deep = (0..16).map(|seed| {
            random_program(&RandProgConfig {
                seed,
                groups: 3,
                mutual_prob: 0.6,
                style: RecursionStyle::Mixed,
                base_preds: 4,
                rules_per_pred: 3,
                max_body: 4,
                lower_ref_prob: 0.35,
                domain: 14,
                facts_per_base: 24,
                cyclic: false,
            })
        });
        let mut machines = 0;
        for rp in shallow.chain(deep) {
            let system = lemma1(&rp.program, &Lemma1Options::default())
                .expect("linear programs solve")
                .system;
            for e in system.rhs.values() {
                assert_eq!(position(e), scanned_position(e), "{e:?}");
                machines += 1;
            }
        }
        assert!(machines > 60, "{machines} machines compared");
    }

    #[test]
    fn merging_reaches_a_fixpoint() {
        let e = Expr::star(Expr::union([p(1), Expr::cat([p(2), Expr::star(p(3))])]));
        let once = position(&e);
        let mut again = once.clone();
        merge_same_entry(&mut again);
        assert_eq!(again, once);
    }

    #[test]
    fn no_state_shares_its_entry_with_another() {
        let e = Expr::cat([
            Expr::union([p(1), Expr::star(p(2))]),
            Expr::union([p(3), p(4)]),
        ]);
        let nfa = position(&e);
        let mut entries: Vec<Vec<(usize, Label)>> = vec![Vec::new(); nfa.num_states()];
        for (q, row) in nfa.trans.iter().enumerate() {
            for &(label, to) in row {
                entries[to].push((q, label));
            }
        }
        let distinct: FxHashSet<&Vec<(usize, Label)>> = entries[1..].iter().collect();
        assert_eq!(distinct.len(), nfa.num_states() - 1);
    }

    #[test]
    fn empty_expression_keeps_a_bare_start() {
        let nfa = position(&Expr::Empty);
        assert!(nfa.words_up_to(2).is_empty());
        assert_eq!((nfa.num_states(), nfa.starts.clone()), (1, vec![0]));
        assert_eq!(nfa.finals, vec![false]);
    }

    #[test]
    fn id_machine_is_a_final_start() {
        let nfa = position(&Expr::Id);
        assert_eq!(nfa.num_states(), 1);
        assert_eq!(nfa.finals, vec![true]);
        let words = nfa.words_up_to(2);
        assert_eq!(words.len(), 1);
        assert!(words.contains(&Vec::new()));
    }

    #[test]
    fn reversal_reverses_words_and_round_trips() {
        let e = Expr::cat([
            p(1),
            Expr::star(p(2)),
            Expr::union([p(3), Expr::Inv(Pred(1))]),
        ]);
        let nfa = position(&e);
        let rev = nfa.reverse();
        assert_eq!(rev.reverse(), nfa);
        assert_eq!(rev.final_states().collect::<Vec<_>>(), vec![0]);
        let inverted =
            |w: &Vec<Label>| -> Vec<Label> { w.iter().rev().map(|l| l.inverse()).collect() };
        let expected: FxHashSet<Vec<Label>> = nfa.words_up_to(4).iter().map(inverted).collect();
        assert_eq!(rev.words_up_to(4), expected);
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
            fn served_machines_accept_random_languages(e in arb_expr()) {
                assert_served_shape(&e, 6);
            }

            #[test]
            fn merging_is_idempotent(e in arb_expr()) {
                let once = position(&e);
                let mut again = once.clone();
                merge_same_entry(&mut again);
                prop_assert_eq!(reachable_part(&again), once);
            }

            #[test]
            fn hashed_signatures_build_the_scanned_machines(e in arb_expr()) {
                prop_assert_eq!(position(&e), scanned_position(&e));
            }

            #[test]
            fn reversal_is_an_involution_on_inverted_words(e in arb_expr()) {
                let nfa = position(&e);
                let rev = nfa.reverse();
                prop_assert_eq!(&rev.reverse(), &nfa);
                let expected: FxHashSet<Vec<Label>> = nfa
                    .words_up_to(5)
                    .iter()
                    .map(|w| w.iter().rev().map(|l| l.inverse()).collect())
                    .collect();
                prop_assert_eq!(rev.words_up_to(5), expected);
            }
        }
    }
}
