//! Explicit construction of the automaton hierarchy `EM(p, i)`.
//!
//! `EM(p,1) = M(e_p)`.  For `i > 1`, `EM(p,i)` is obtained from
//! `EM(p,i-1)` by replacing every transition `q --r--> q'` on a *derived*
//! predicate `r` with a fresh copy of `M(e_r)`: the transition is removed
//! and `q --id--> q_s'` and `q_f' --id--> q'` are added, where `q_s'`,
//! `q_f'` are the copy's initial and final states (Figure 2).  The
//! machines here are the paper's Thompson machines.
//!
//! The traversal engine simulates this expansion lazily; this explicit
//! version exists to validate the lazy encoding (the two must agree
//! node-for-node) and to reproduce Figures 2 and 6.

use crate::nfa::{thompson, Label, Nfa};
use rq_common::{FxHashMap, FxHashSet, Pred};
use rq_relalg::EqSystem;

/// Machines `M(e_r)` for every derived predicate of a system.
pub struct MachineSet {
    /// One Thompson automaton per derived predicate.
    pub machines: FxHashMap<Pred, Nfa>,
    /// The derived predicates (alphabet symbols subject to expansion).
    pub derived: FxHashSet<Pred>,
}

impl MachineSet {
    /// Build `M(e_p)` for every equation of the system.
    pub fn of(system: &EqSystem) -> Self {
        let machines = system
            .lhs
            .iter()
            .map(|&p| (p, thompson(&system.rhs[&p])))
            .collect();
        Self {
            machines,
            derived: system.derived(),
        }
    }

    /// `EM(p, i)`: the i-th automaton of the hierarchy for predicate `p`.
    pub fn em(&self, p: Pred, i: usize) -> Nfa {
        assert!(i >= 1, "EM(p,i) is defined for i >= 1");
        let mut nfa = self.machines[&p].clone();
        for _ in 1..i {
            nfa = self.expand_once(&nfa);
        }
        nfa
    }

    /// One expansion step: splice a fresh copy of `M(e_r)` over every
    /// derived-predicate transition.
    pub fn expand_once(&self, nfa: &Nfa) -> Nfa {
        let mut out = Nfa {
            trans: vec![Vec::new(); nfa.num_states()],
            starts: nfa.starts.clone(),
            finals: nfa.finals.clone(),
        };
        for (q, row) in nfa.trans.iter().enumerate() {
            for &(label, to) in row {
                let expandable = match label {
                    Label::Sym(p) | Label::Inv(p) => self.derived.contains(&p),
                    Label::Id => false,
                };
                if !expandable {
                    out.trans[q].push((label, to));
                    continue;
                }
                // Splice a fresh copy.  An inverse derived transition
                // splices the inverse machine (M of the inverted
                // equation); we realize that by inverting the copy.
                let (p, invert) = match label {
                    Label::Sym(p) => (p, false),
                    Label::Inv(p) => (p, true),
                    Label::Id => unreachable!(),
                };
                let copy = if invert {
                    self.machines[&p].reverse()
                } else {
                    self.machines[&p].clone()
                };
                let offset = out.trans.len();
                for crow in &copy.trans {
                    out.trans
                        .push(crow.iter().map(|&(l, t)| (l, t + offset)).collect());
                }
                out.finals.resize(out.trans.len(), false);
                for &s in &copy.starts {
                    out.trans[q].push((Label::Id, s + offset));
                }
                for f in copy.final_states() {
                    out.trans[f + offset].push((Label::Id, to));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::expr_words_up_to;
    use rq_relalg::{unroll, Expr};

    /// The sg system: sg = flat ∪ up·sg·down.
    fn sg_system() -> (EqSystem, Pred, Pred, Pred, Pred) {
        let sg = Pred(0);
        let flat = Pred(1);
        let up = Pred(2);
        let down = Pred(3);
        let e = Expr::union([
            Expr::Sym(flat),
            Expr::cat([Expr::Sym(up), Expr::Sym(sg), Expr::Sym(down)]),
        ]);
        (EqSystem::new([(sg, e)]), sg, flat, up, down)
    }

    #[test]
    fn em1_is_m() {
        let (sys, sg, ..) = sg_system();
        let ms = MachineSet::of(&sys);
        let em1 = ms.em(sg, 1);
        assert_eq!(em1.num_states(), ms.machines[&sg].num_states());
    }

    #[test]
    fn em_language_equals_unrolling() {
        // Lemma 2's key fact: EM(p,i) with derived transitions removed is
        // equivalent (as a language descriptor) to the unrolled p_i.
        let (sys, sg, ..) = sg_system();
        let ms = MachineSet::of(&sys);
        for i in 1..=4 {
            let em = ms.em(sg, i);
            let stripped = em.strip_preds(&ms.derived);
            let p_i = unroll(&sys, sg, i);
            let max_len = 2 * i + 1;
            assert_eq!(
                stripped.words_up_to(max_len),
                expr_words_up_to(&p_i, max_len),
                "EM(sg,{i}) vs sg_{i}"
            );
        }
    }

    #[test]
    fn figure6_shape_one_sg_transition_per_level() {
        // EM(sg,i) keeps exactly one derived transition (the innermost
        // copy's sg edge), as Figure 6 shows.
        let (sys, sg, ..) = sg_system();
        let ms = MachineSet::of(&sys);
        for i in 1..=4 {
            let em = ms.em(sg, i);
            let derived_edges = em
                .trans
                .iter()
                .flatten()
                .filter(|(l, _)| l.pred() == Some(sg))
                .count();
            assert_eq!(derived_edges, 1, "EM(sg,{i})");
        }
    }

    #[test]
    fn expansion_grows_linearly() {
        let (sys, sg, ..) = sg_system();
        let ms = MachineSet::of(&sys);
        let base = ms.em(sg, 1).num_states();
        let s2 = ms.em(sg, 2).num_states();
        let s3 = ms.em(sg, 3).num_states();
        // Each level adds one copy of M(e_sg): constant increments.
        assert_eq!(s2 - base, s3 - s2);
    }

    #[test]
    fn figure2_expansion_of_figure1() {
        // e_p = (b3·b4* ∪ b2·p)·b1, expanded once: the derived edge is
        // replaced, and the result (with the new inner p edge stripped)
        // accepts b2 (b3 b4^k b1 | b2 ∅ b1 …) b1 words of level 2.
        let p = Pred(0);
        let b = |i: u32| Expr::Sym(Pred(i));
        let e = Expr::cat([
            Expr::union([
                Expr::cat([b(3), Expr::star(b(4))]),
                Expr::cat([b(2), Expr::Sym(p)]),
            ]),
            b(1),
        ]);
        let sys = EqSystem::new([(p, e)]);
        let ms = MachineSet::of(&sys);
        let em2 = ms.em(p, 2);
        let stripped = em2.strip_preds(&ms.derived);
        let p2 = unroll(&sys, p, 2);
        assert_eq!(
            stripped.words_up_to(6),
            expr_words_up_to(&p2, 6),
            "EM(p,2) must match p_2"
        );
    }

    #[test]
    fn invert_nfa_reverses_words() {
        let e = Expr::cat([Expr::Sym(Pred(1)), Expr::Sym(Pred(2))]);
        let nfa = thompson(&e);
        let inv = nfa.reverse();
        let words = inv.words_up_to(3);
        assert_eq!(words.len(), 1);
        assert!(words.contains(&vec![Label::Inv(Pred(2)), Label::Inv(Pred(1))]));
    }

    #[test]
    fn mutual_system_expansion() {
        // q1 = a·q2, q2 = r2 ∪ a·q2·b (two equations, q2 self-recursive).
        let q1 = Pred(0);
        let q2 = Pred(1);
        let a = Expr::Sym(Pred(10));
        let b = Expr::Sym(Pred(11));
        let r2 = Expr::Sym(Pred(12));
        let sys = EqSystem::new([
            (q1, Expr::cat([a.clone(), Expr::Sym(q2)])),
            (
                q2,
                Expr::union([r2, Expr::cat([a.clone(), Expr::Sym(q2), b])]),
            ),
        ]);
        let ms = MachineSet::of(&sys);
        for i in 1..=3 {
            let em = ms.em(q1, i);
            let stripped = em.strip_preds(&ms.derived);
            let unrolled = unroll(&sys, q1, i);
            let max_len = 2 * i + 2;
            assert_eq!(
                stripped.words_up_to(max_len),
                expr_words_up_to(&unrolled, max_len),
                "EM(q1,{i})"
            );
        }
    }
}
