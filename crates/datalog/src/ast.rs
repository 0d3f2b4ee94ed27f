//! Abstract syntax for Datalog programs (§2 of the paper).
//!
//! A program is a finite set of rules `p0(X0) :- p1(X1), ..., pn(Xn)`.
//! Rules with an empty body and all-constant arguments are *facts*; the set
//! of facts is the extensional database (EDB) and the remaining rules the
//! intensional database (IDB).  Base predicates (appearing only in facts)
//! and derived predicates (appearing in rule heads) are disjoint.

use crate::db::TUPLES_PER_CHUNK;
use rq_common::{Const, ConstInterner, IdVec, NameInterner, PVec, Pred, Var};
use std::fmt;

/// A term: a variable or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, scoped to its rule.
    Var(Var),
    /// An interned constant.
    Const(Const),
}

impl Term {
    /// The variable inside, if any.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(self) -> Option<Const> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }
}

/// An atom `p(t1, ..., tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// The predicate.
    pub pred: Pred,
    /// The argument vector.
    pub args: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: Pred, args: Vec<Term>) -> Self {
        Self { pred, args }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterate the variables occurring in the argument vector.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }
}

/// Comparison operators available as built-in predicates.
///
/// §4's flight example uses `AT1 < DT1`; we support the full set of
/// comparisons under the safety condition that every variable of a built-in
/// literal also occurs in an ordinary body literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluate the operator on an ordering between the operands.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// Symbol used in the concrete syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A body literal: an ordinary atom or a built-in comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// An ordinary (positive) atom.
    Atom(Atom),
    /// A built-in comparison `lhs op rhs`.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
}

impl Literal {
    /// The atom inside, if this is an ordinary literal.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            Literal::Cmp { .. } => None,
        }
    }

    /// Iterate the variables occurring in the literal.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Literal::Atom(a) => a.vars().collect(),
            Literal::Cmp { lhs, rhs, .. } => lhs.as_var().into_iter().chain(rhs.as_var()).collect(),
        }
    }
}

/// A rule `head :- body`.  Facts are kept separately in [`Program::facts`],
/// so a `Rule` always has a derived head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals, in source order.
    pub body: Vec<Literal>,
    /// Names of this rule's variables, indexed by [`Var`].
    pub var_names: Vec<String>,
}

impl Rule {
    /// Number of distinct variables in the rule.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Iterate the ordinary (non-built-in) body atoms.
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| l.as_atom())
    }
}

/// Metadata for one predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredInfo {
    /// Index into the program's name interner.
    pub name: u32,
    /// Arity; fixed at first use.
    pub arity: usize,
    /// Whether the predicate appears in the head of a rule with a
    /// non-empty body (derived) or only in facts (base).
    pub is_derived: bool,
}

/// A Datalog program: interners, predicate table, rules, and facts.
#[derive(Clone, Default)]
pub struct Program {
    /// Constant interner.
    pub consts: ConstInterner,
    /// Predicate-name interner (indices stored in [`PredInfo::name`]).
    pub pred_names: NameInterner,
    /// Per-predicate metadata.
    pub preds: IdVec<Pred, PredInfo>,
    /// The intensional database.
    pub rules: Vec<Rule>,
    /// The extensional database, as listed in the source ([`Facts`]).
    pub facts: Facts,
    /// Name-index → predicate id, for O(1) lookup.
    by_name: Vec<Option<Pred>>,
}

impl Program {
    /// New, empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a predicate name with the given arity.  Arity conflicts are
    /// reported by the parser at use sites; here a second use with a
    /// different arity simply keeps the first arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> Pred {
        if let Some(idx) = self.pred_names.get(name) {
            if let Some(Some(p)) = self.by_name.get(idx as usize) {
                return *p;
            }
        }
        let idx = self.pred_names.intern(name);
        let p = self.preds.push(PredInfo {
            name: idx,
            arity,
            is_derived: false,
        });
        if self.by_name.len() <= idx as usize {
            self.by_name.resize(idx as usize + 1, None);
        }
        self.by_name[idx as usize] = Some(p);
        p
    }

    /// The display name of a predicate.
    pub fn pred_name(&self, p: Pred) -> &str {
        self.pred_names.name(self.preds[p].name)
    }

    /// Look up a predicate by name.
    pub fn pred_by_name(&self, name: &str) -> Option<Pred> {
        let idx = self.pred_names.get(name)?;
        self.by_name.get(idx as usize).copied().flatten()
    }

    /// Arity of a predicate.
    pub fn arity(&self, p: Pred) -> usize {
        self.preds[p].arity
    }

    /// Whether the predicate is derived (appears in some rule head).
    pub fn is_derived(&self, p: Pred) -> bool {
        self.preds[p].is_derived
    }

    /// All derived predicates.
    pub fn derived_preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.preds
            .iter_enumerated()
            .filter(|(_, i)| i.is_derived)
            .map(|(p, _)| p)
    }

    /// All base predicates.
    pub fn base_preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.preds
            .iter_enumerated()
            .filter(|(_, i)| !i.is_derived)
            .map(|(p, _)| p)
    }

    /// Add a rule, marking its head predicate derived.
    pub fn add_rule(&mut self, rule: Rule) {
        self.preds[rule.head.pred].is_derived = true;
        self.rules.push(rule);
    }

    /// Add a ground fact.
    pub fn add_fact(&mut self, pred: Pred, tuple: &[Const]) {
        debug_assert_eq!(tuple.len(), self.arity(pred));
        self.facts.push(pred, tuple);
    }

    /// Rules whose head is `p`.
    pub fn rules_for(&self, p: Pred) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.pred == p)
    }
}

/// One predicate's facts in source order: their constants back to
/// back, `arity` each, in chunk-shared storage laid out like a
/// relation shard's, so a shard of distinct facts can share the chunks.
#[derive(Clone, Debug)]
pub(crate) struct PredFacts {
    pub(crate) arity: usize,
    pub(crate) len: usize,
    pub(crate) flat: PVec<Const>,
}

impl PredFacts {
    fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            flat: PVec::with_chunk_capacity(arity.max(1) * TUPLES_PER_CHUNK),
        }
    }

    /// Fact `ord` of this predicate.  A nullary fact has no storage.
    pub(crate) fn tuple(&self, ord: usize) -> &[Const] {
        if self.arity == 0 {
            return &[];
        }
        self.flat.get_slice(ord * self.arity, self.arity)
    }
}

/// A maximal run of consecutive source facts of one predicate.
#[derive(Clone, Copy, Debug)]
struct Run {
    pred: Pred,
    /// Source position of the run's first fact.
    start: u32,
    /// That fact's ordinal among its predicate's facts.
    first: u32,
}

/// The extensional database as listed in the source, duplicates
/// included: each predicate's facts stored flat (`PredFacts`), plus
/// the runs of one predicate that put them back in source order.  A
/// fact costs its constants and nothing else — no allocation of its
/// own — and a source that lists each predicate's facts together costs
/// one run per predicate.
///
/// All storage is persistent (chunk-shared): cloning a program for the
/// next snapshot epoch shares every prior fact with the parent, so an
/// ingest-time clone costs O(chunks), and appending copies at most the
/// tail chunks it writes.
#[derive(Clone, Default)]
pub struct Facts {
    by_pred: Vec<PredFacts>,
    runs: PVec<Run>,
    len: usize,
}

impl Facts {
    /// Number of facts, duplicates included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a fact.  A predicate's arity is fixed by its first fact.
    pub fn push(&mut self, pred: Pred, tuple: &[Const]) {
        if self.by_pred.len() <= pred.index() {
            self.by_pred
                .resize_with(pred.index() + 1, || PredFacts::new(0));
        }
        let facts = &mut self.by_pred[pred.index()];
        if facts.len == 0 && facts.arity != tuple.len() {
            *facts = PredFacts::new(tuple.len());
        }
        assert_eq!(facts.arity, tuple.len(), "a fact of the wrong arity");
        let ord = facts.len;
        facts.flat.push_slice(tuple);
        facts.len += 1;
        let last = self.runs.len().checked_sub(1).map(|i| self.runs[i].pred);
        if last != Some(pred) {
            let narrow = |n: usize| u32::try_from(n).expect("fewer than 2^32 facts");
            self.runs.push(Run {
                pred,
                start: narrow(self.len),
                first: narrow(ord),
            });
        }
        self.len += 1;
    }

    /// The facts in source order.
    pub fn iter(&self) -> FactsIter<'_> {
        self.iter_from(0)
    }

    /// The facts from source position `start` on, in source order.
    pub fn iter_from(&self, start: usize) -> FactsIter<'_> {
        // The run holding `start`: the last one starting at or before it.
        let (mut lo, mut hi) = (0, self.runs.len());
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.runs[mid].start as usize <= start {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        FactsIter {
            facts: self,
            run: lo,
            pos: start.min(self.len),
        }
    }

    /// The fact at source position `i`.
    pub fn get(&self, i: usize) -> Option<(&Pred, &[Const])> {
        self.iter_from(i).next()
    }

    /// One predicate's facts, if it has any.
    pub(crate) fn of(&self, pred: Pred) -> Option<&PredFacts> {
        self.by_pred.get(pred.index()).filter(|f| f.len > 0)
    }
}

/// Iterator over [`Facts`] in source order.
pub struct FactsIter<'a> {
    facts: &'a Facts,
    run: usize,
    pos: usize,
}

impl<'a> Iterator for FactsIter<'a> {
    type Item = (&'a Pred, &'a [Const]);

    fn next(&mut self) -> Option<Self::Item> {
        let facts = self.facts;
        if self.pos >= facts.len {
            return None;
        }
        let runs = &facts.runs;
        if self.run + 1 < runs.len() && runs[self.run + 1].start as usize <= self.pos {
            self.run += 1;
        }
        let run = &runs[self.run];
        let ord = run.first as usize + (self.pos - run.start as usize);
        self.pos += 1;
        Some((&run.pred, facts.by_pred[run.pred.index()].tuple(ord)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.facts.len - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FactsIter<'_> {}

impl<'a> IntoIterator for &'a Facts {
    type Item = (&'a Pred, &'a [Const]);
    type IntoIter = FactsIter<'a>;

    fn into_iter(self) -> FactsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("preds", &self.preds.len())
            .field("rules", &self.rules.len())
            .field("facts", &self.facts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_interning_reuses_ids() {
        let mut p = Program::new();
        let up = p.pred("up", 2);
        let up2 = p.pred("up", 2);
        let down = p.pred("down", 2);
        assert_eq!(up, up2);
        assert_ne!(up, down);
        assert_eq!(p.pred_name(up), "up");
        assert_eq!(p.pred_by_name("down"), Some(down));
        assert_eq!(p.pred_by_name("flat"), None);
    }

    #[test]
    fn add_rule_marks_derived() {
        let mut p = Program::new();
        let sg = p.pred("sg", 2);
        let flat = p.pred("flat", 2);
        assert!(!p.is_derived(sg));
        p.add_rule(Rule {
            head: Atom::new(sg, vec![Term::Var(Var(0)), Term::Var(Var(1))]),
            body: vec![Literal::Atom(Atom::new(
                flat,
                vec![Term::Var(Var(0)), Term::Var(Var(1))],
            ))],
            var_names: vec!["X".into(), "Y".into()],
        });
        assert!(p.is_derived(sg));
        assert!(!p.is_derived(flat));
        assert_eq!(p.derived_preds().count(), 1);
        assert_eq!(p.base_preds().count(), 1);
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.eval(Less));
        assert!(!CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Ge.eval(Equal));
        assert!(!CmpOp::Gt.eval(Less));
        assert!(CmpOp::Eq.eval(Equal));
    }
}
