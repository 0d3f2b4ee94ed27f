//! Nondeterministic finite automata over the predicate alphabet.
//!
//! The paper represents each equation `p = e_p` as an NFA `M(e_p)`
//! "obtained by the standard technique from e when we regard e as a
//! regular expression over the alphabet consisting of all predicate
//! symbols appearing in e" (Figure 1).  Transitions are labeled with a
//! predicate symbol (interpreted as the relation it denotes), an inverted
//! predicate symbol, or `id` (interpreted as the identity relation, i.e.
//! an ε-move of the traversal).
//!
//! [`thompson`] is that standard technique; it is the reference the
//! served machines ([`crate::position()`]) are tested against, and the
//! construction behind the paper's figures ([`crate::MachineSet`]).

#[cfg(test)]
use rq_common::FxHashSet;
use rq_common::Pred;
use rq_relalg::Expr;

/// A transition label.  Labels order `id` first, then forward symbols,
/// then inverse ones: a sorted row lists each label's transitions side
/// by side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// The identity relation (ε).
    Id,
    /// A predicate symbol, forward direction.
    Sym(Pred),
    /// A predicate symbol, inverse direction.
    Inv(Pred),
}

impl Label {
    /// The predicate behind the label, if any.
    pub fn pred(self) -> Option<Pred> {
        match self {
            Label::Id => None,
            Label::Sym(p) | Label::Inv(p) => Some(p),
        }
    }

    /// `id`, `r` or `r^-1`, with predicate names from `name`.
    pub fn display(self, name: &impl Fn(Pred) -> String) -> String {
        match self {
            Label::Id => "id".to_string(),
            Label::Sym(p) => name(p),
            Label::Inv(p) => format!("{}^-1", name(p)),
        }
    }

    /// The label read backwards: `r` ↔ `r⁻¹`, `id` stays `id`.
    pub fn inverse(self) -> Label {
        match self {
            Label::Id => Label::Id,
            Label::Sym(p) => Label::Inv(p),
            Label::Inv(p) => Label::Sym(p),
        }
    }
}

/// An ε-NFA with a set of start states and a set of final states.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Nfa {
    /// Outgoing transitions per state.
    pub trans: Vec<Vec<(Label, usize)>>,
    /// The initial states, ascending.
    pub starts: Vec<usize>,
    /// `finals[q]`: whether state `q` is accepting.
    pub finals: Vec<bool>,
}

impl Nfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    fn add_state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.trans.len() - 1
    }

    fn add_transition(&mut self, from: usize, label: Label, to: usize) {
        self.trans[from].push((label, to));
    }

    /// The accepting states, ascending.
    pub fn final_states(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.finals.len()).filter(|&q| self.finals[q])
    }

    /// The exact reversal: every transition flipped with its label
    /// inverted, starts and finals swapped, state indices kept, rows
    /// sorted.  Recognizes the reversed language with each letter
    /// inverted — the automaton of the inverse expression — and, because
    /// indices are kept, a walk from state `s` of the reversal retraces
    /// the original's paths into `s` back to the original's starts.
    pub fn reverse(&self) -> Nfa {
        let mut trans = vec![Vec::new(); self.num_states()];
        for (q, row) in self.trans.iter().enumerate() {
            for &(label, to) in row {
                trans[to].push((label.inverse(), q));
            }
        }
        for row in &mut trans {
            row.sort_unstable();
        }
        let mut finals = vec![false; self.num_states()];
        for &s in &self.starts {
            finals[s] = true;
        }
        Nfa {
            trans,
            starts: self.final_states().collect(),
            finals,
        }
    }

    /// GraphViz DOT rendering (state ids; labels via `name`): start
    /// states bold, final states double circles.
    pub fn to_dot(&self, name: &impl Fn(Pred) -> String) -> String {
        let mut out = String::from("digraph nfa {\n  rankdir=LR;\n");
        for q in 0..self.num_states() {
            let shape = ["circle", "doublecircle"][usize::from(self.finals[q])];
            let bold = ["", ", style=bold"][usize::from(self.starts.contains(&q))];
            out.push_str(&format!("  q{q} [shape={shape}{bold}];\n"));
        }
        for (q, row) in self.trans.iter().enumerate() {
            for (label, to) in row {
                let l = label.display(name);
                out.push_str(&format!("  q{q} -> q{to} [label=\"{l}\"];\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Thompson construction: build `M(e)` with one start and one final
/// state, glued by `id` transitions.
/// Derived predicates are ordinary letters here; the traversal engine (or
/// [`crate::expand`]) gives them their recursive meaning.
pub fn thompson(e: &Expr) -> Nfa {
    let mut nfa = Nfa::default();
    let start = nfa.add_state();
    let finish = nfa.add_state();
    build(&mut nfa, e, start, finish);
    nfa.starts = vec![start];
    nfa.finals = (0..nfa.num_states()).map(|q| q == finish).collect();
    nfa
}

fn build(nfa: &mut Nfa, e: &Expr, from: usize, to: usize) {
    match e {
        Expr::Empty => {}
        Expr::Id => nfa.add_transition(from, Label::Id, to),
        Expr::Sym(p) => nfa.add_transition(from, Label::Sym(*p), to),
        Expr::Inv(p) => nfa.add_transition(from, Label::Inv(*p), to),
        Expr::Union(parts) => {
            for part in parts {
                // Branch through fresh states so fragments stay disjoint.
                let s = nfa.add_state();
                let f = nfa.add_state();
                nfa.add_transition(from, Label::Id, s);
                build(nfa, part, s, f);
                nfa.add_transition(f, Label::Id, to);
            }
        }
        Expr::Cat(parts) => {
            let mut cur = from;
            for (i, part) in parts.iter().enumerate() {
                let next = if i + 1 == parts.len() {
                    to
                } else {
                    nfa.add_state()
                };
                build(nfa, part, cur, next);
                cur = next;
            }
            if parts.is_empty() {
                nfa.add_transition(from, Label::Id, to);
            }
        }
        Expr::Star(inner) => {
            let s = nfa.add_state();
            let f = nfa.add_state();
            nfa.add_transition(from, Label::Id, s);
            build(nfa, inner, s, f);
            nfa.add_transition(f, Label::Id, s);
            nfa.add_transition(from, Label::Id, to);
            nfa.add_transition(f, Label::Id, to);
        }
    }
}

/// Test oracles: bounded language enumeration, exponential in the
/// bound.
#[cfg(test)]
impl Nfa {
    /// States reachable from a start through any transitions.
    pub fn reachable_states(&self) -> FxHashSet<usize> {
        let mut seen = FxHashSet::default();
        let mut stack = self.starts.clone();
        while let Some(q) = stack.pop() {
            if !seen.insert(q) {
                continue;
            }
            for &(_, to) in &self.trans[q] {
                stack.push(to);
            }
        }
        seen
    }

    /// ε-closure (closure under `id` transitions) of a set of states.
    pub fn epsilon_closure(&self, states: impl IntoIterator<Item = usize>) -> FxHashSet<usize> {
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        let mut stack: Vec<usize> = states.into_iter().collect();
        while let Some(q) = stack.pop() {
            if !seen.insert(q) {
                continue;
            }
            for &(label, to) in &self.trans[q] {
                if label == Label::Id {
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Enumerate all label-words of length ≤ `max_len` accepted by the
    /// automaton (ε-transitions contribute no letter).  Exponential; for
    /// tests only.
    pub fn words_up_to(&self, max_len: usize) -> FxHashSet<Vec<Label>> {
        let mut out = FxHashSet::default();
        // BFS over (state set, word) — since the automaton may have
        // ε-cycles we work with closed state sets.
        let mut layer: Vec<(FxHashSet<usize>, Vec<Label>)> = vec![(
            self.epsilon_closure(self.starts.iter().copied()),
            Vec::new(),
        )];
        for _ in 0..=max_len {
            let mut next: Vec<(FxHashSet<usize>, Vec<Label>)> = Vec::new();
            let mut seen_words: FxHashSet<Vec<Label>> = FxHashSet::default();
            for (states, word) in &layer {
                if states.iter().any(|&q| self.finals[q]) {
                    out.insert(word.clone());
                }
                if word.len() == max_len {
                    continue;
                }
                // Group successor states by letter.
                let mut by_letter: rq_common::FxHashMap<Label, FxHashSet<usize>> =
                    rq_common::FxHashMap::default();
                for &q in states {
                    for &(label, to) in &self.trans[q] {
                        if label != Label::Id {
                            by_letter.entry(label).or_default().insert(to);
                        }
                    }
                }
                for (letter, tos) in by_letter {
                    let mut w = word.clone();
                    w.push(letter);
                    if seen_words.insert(w.clone()) {
                        next.push((self.epsilon_closure(tos), w));
                    }
                }
            }
            layer = next;
            if layer.is_empty() {
                break;
            }
        }
        out
    }

    /// Remove every transition labeled with one of `preds`, returning the
    /// stripped automaton.  The paper's Lemma 2 proof considers exactly
    /// this: `EM(p,i)` with derived-relation transitions removed.
    pub fn strip_preds(&self, preds: &FxHashSet<Pred>) -> Nfa {
        let mut out = self.clone();
        for row in &mut out.trans {
            row.retain(|(label, _)| match label.pred() {
                Some(p) => !preds.contains(&p),
                None => true,
            });
        }
        out
    }
}

#[cfg(test)]
/// Enumerate the label-words of length ≤ `max_len` denoted by an
/// expression, treating every symbol (base or derived) as a letter.
/// The test oracle paired with [`Nfa::words_up_to`].
pub fn expr_words_up_to(e: &Expr, max_len: usize) -> FxHashSet<Vec<Label>> {
    match e {
        Expr::Empty => FxHashSet::default(),
        Expr::Id => [Vec::new()].into_iter().collect(),
        Expr::Sym(p) => [vec![Label::Sym(*p)]].into_iter().collect(),
        Expr::Inv(p) => [vec![Label::Inv(*p)]].into_iter().collect(),
        Expr::Union(parts) => {
            let mut out = FxHashSet::default();
            for part in parts {
                out.extend(expr_words_up_to(part, max_len));
            }
            out
        }
        Expr::Cat(parts) => {
            let mut acc: FxHashSet<Vec<Label>> = [Vec::new()].into_iter().collect();
            for part in parts {
                let words = expr_words_up_to(part, max_len);
                let mut next = FxHashSet::default();
                for a in &acc {
                    for w in &words {
                        if a.len() + w.len() <= max_len {
                            let mut v = a.clone();
                            v.extend_from_slice(w);
                            next.insert(v);
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
        Expr::Star(inner) => {
            let words = expr_words_up_to(inner, max_len);
            let mut acc: FxHashSet<Vec<Label>> = [Vec::new()].into_iter().collect();
            let mut frontier = acc.clone();
            loop {
                let mut next = FxHashSet::default();
                for a in &frontier {
                    for w in &words {
                        if a.len() + w.len() <= max_len {
                            let mut v = a.clone();
                            v.extend_from_slice(w);
                            if !acc.contains(&v) {
                                next.insert(v);
                            }
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                acc.extend(next.iter().cloned());
                frontier = next;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Expr {
        Expr::Sym(Pred(i))
    }

    fn assert_language_eq(e: &Expr, max_len: usize) {
        let nfa = thompson(e);
        assert_eq!(
            nfa.words_up_to(max_len),
            expr_words_up_to(e, max_len),
            "language mismatch for {e:?}"
        );
    }

    #[test]
    fn thompson_matches_expression_language() {
        assert_language_eq(&Expr::Empty, 3);
        assert_language_eq(&Expr::Id, 3);
        assert_language_eq(&p(1), 3);
        assert_language_eq(&Expr::union([p(1), p(2)]), 3);
        assert_language_eq(&Expr::cat([p(1), p(2), p(3)]), 4);
        assert_language_eq(&Expr::star(p(1)), 5);
        assert_language_eq(
            &Expr::cat([
                Expr::union([Expr::cat([p(3), Expr::star(p(4))]), Expr::cat([p(2), p(5)])]),
                p(1),
            ]),
            5,
        );
        assert_language_eq(&Expr::star(Expr::union([p(1), Expr::cat([p(2), p(3)])])), 5);
        assert_language_eq(&Expr::Inv(Pred(7)), 2);
    }

    #[test]
    fn figure1_automaton_language() {
        // e_p = (b3·b4* ∪ b2·p)·b1 — Figure 1.  With p treated as a
        // letter, the bounded language must be exactly
        // { b3 b4^k b1 } ∪ { b2 p b1 }.
        let b = |i: u32| p(i);
        let e = Expr::cat([
            Expr::union([
                Expr::cat([b(3), Expr::star(b(4))]),
                Expr::cat([b(2), b(5)]), // Pred(5) plays the role of p
            ]),
            b(1),
        ]);
        let nfa = thompson(&e);
        let words = nfa.words_up_to(4);
        let s =
            |v: Vec<u32>| -> Vec<Label> { v.into_iter().map(|i| Label::Sym(Pred(i))).collect() };
        let expected: FxHashSet<Vec<Label>> = [
            s(vec![3, 1]),
            s(vec![3, 4, 1]),
            s(vec![3, 4, 4, 1]),
            s(vec![2, 5, 1]),
        ]
        .into_iter()
        .collect();
        assert_eq!(words, expected);
        // The automaton has exactly one transition on the derived symbol.
        let derived_edges: usize = nfa
            .trans
            .iter()
            .flatten()
            .filter(|(l, _)| *l == Label::Sym(Pred(5)))
            .count();
        assert_eq!(derived_edges, 1);
    }

    #[test]
    fn epsilon_closure_follows_id_chains() {
        let e = Expr::star(p(1));
        let nfa = thompson(&e);
        let closure = nfa.epsilon_closure(nfa.starts.iter().copied());
        // Start's closure must include the final state (ε-accept).
        assert!(closure.iter().any(|&q| nfa.finals[q]));
    }

    #[test]
    fn strip_preds_removes_only_those() {
        let e = Expr::union([p(1), p(2)]);
        let nfa = thompson(&e);
        let stripped = nfa.strip_preds(&[Pred(1)].into_iter().collect());
        let words = stripped.words_up_to(2);
        assert_eq!(words.len(), 1);
        assert!(words.contains(&vec![Label::Sym(Pred(2))]));
    }

    #[test]
    fn reachable_states_cover_thompson_fragments() {
        let e = Expr::cat([p(1), Expr::star(p(2))]);
        let nfa = thompson(&e);
        // Every state of a Thompson automaton for a cat/star expression is
        // reachable from the start.
        assert_eq!(nfa.reachable_states().len(), nfa.num_states());
    }

    #[test]
    fn dot_export_mentions_labels() {
        let e = Expr::cat([p(1), p(2)]);
        let nfa = thompson(&e);
        let dot = nfa.to_dot(&|q: Pred| format!("b{}", q.0));
        assert!(dot.contains("b1"));
        assert!(dot.contains("b2"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn empty_expression_accepts_nothing() {
        let nfa = thompson(&Expr::Empty);
        assert!(nfa.words_up_to(3).is_empty());
    }

    #[test]
    fn words_up_to_respects_bound() {
        let nfa = thompson(&Expr::star(p(1)));
        let words = nfa.words_up_to(2);
        assert_eq!(words.len(), 3); // ε, b1, b1 b1
    }
}
