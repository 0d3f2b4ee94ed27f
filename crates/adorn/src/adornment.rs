//! Adorned programs (§4): sideways information passing for linear Datalog
//! programs with at most one derived literal per rule body.
//!
//! An adornment for an n-ary predicate is a string over `{b, f}` marking
//! which argument positions carry bindings.  Starting from the query's
//! binding pattern, each rule is adorned by partitioning its base body
//! literals around the derived literal into a *before* set (connected to
//! the bound head variables — conditions (1)–(5) of §4) and an *after*
//! set; the derived literal's adornment marks bound every argument filled
//! from before-literals or bound head positions.

use rq_common::{FxHashMap, FxHashSet, Pred, Var};
use rq_datalog::{Literal, Program, Query, Rule};
use std::fmt;

/// A `{b,f}` string as a bitmask (bit i set ⇔ position i bound).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment {
    mask: u32,
    arity: u8,
}

impl Adornment {
    /// Build from bound positions.
    pub fn from_bound(arity: usize, bound: impl IntoIterator<Item = usize>) -> Self {
        debug_assert!(arity <= rq_datalog::MAX_ARITY);
        let mut mask = 0;
        for b in bound {
            debug_assert!(b < arity);
            mask |= 1 << b;
        }
        Self {
            mask,
            arity: arity as u8,
        }
    }

    /// Build from a query's argument pattern.
    pub fn of_query(query: &Query) -> Self {
        Self::from_bound(query.args.len(), query.bound_positions())
    }

    /// Arity.
    pub fn arity(self) -> usize {
        self.arity as usize
    }

    /// Whether position `i` is bound.
    pub fn is_bound(self, i: usize) -> bool {
        self.mask & (1 << i) != 0
    }

    /// Bound positions, ascending.
    pub fn bound_positions(self) -> Vec<usize> {
        (0..self.arity()).filter(|&i| self.is_bound(i)).collect()
    }

    /// Free positions, ascending.
    pub fn free_positions(self) -> Vec<usize> {
        (0..self.arity()).filter(|&i| !self.is_bound(i)).collect()
    }

    /// The all-free adornment.
    pub fn all_free(arity: usize) -> Self {
        Self::from_bound(arity, [])
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.arity() {
            write!(f, "{}", if self.is_bound(i) { 'b' } else { 'f' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A predicate with an adornment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdornedPred {
    /// The predicate.
    pub pred: Pred,
    /// Its adornment.
    pub adornment: Adornment,
}

/// The body of an adorned rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdornedBody {
    /// No derived literal: the whole body defines a `base-r` relation.
    Base,
    /// One derived literal at body index `derived_idx`, adorned `child`;
    /// the remaining literal indices are split into `before` and `after`.
    Recursive {
        /// Index of the derived literal in the rule body.
        derived_idx: usize,
        /// The derived literal's adorned predicate.
        child: AdornedPred,
        /// Indices of the before-literals (base literals and built-ins
        /// evaluable from the bound side) — the paper's `b1 … bi`.
        before: Vec<usize>,
        /// Indices of the after-literals — `b_{i+1} … b_n`.
        after: Vec<usize>,
    },
}

/// One adorned rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdornedRule {
    /// The adorned head predicate.
    pub head: AdornedPred,
    /// Index of the underlying rule in the program.
    pub rule_idx: usize,
    /// The adorned body.
    pub body: AdornedBody,
}

/// A complete adorned program for one query.
#[derive(Clone, Debug)]
pub struct AdornedProgram {
    /// The query's adorned predicate.
    pub query: AdornedPred,
    /// All adorned rules, in generation order.
    pub rules: Vec<AdornedRule>,
}

/// Why adornment failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdornError {
    /// A rule has more than one derived body literal (program not in the
    /// §4 special form).
    NotLinear(usize),
    /// A rule head contains a constant (unsupported).
    ConstantInHead(usize),
    /// A built-in literal cannot be assigned to either side of the
    /// derived literal.
    StrandedBuiltin(usize),
    /// The queried predicate has no rules.
    NoRulesForQuery,
}

impl fmt::Display for AdornError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdornError::NotLinear(r) => write!(f, "rule {r} has several derived body literals"),
            AdornError::ConstantInHead(r) => write!(f, "rule {r} has a constant in its head"),
            AdornError::StrandedBuiltin(r) => {
                write!(
                    f,
                    "rule {r}: built-in belongs to neither side of the recursion"
                )
            }
            AdornError::NoRulesForQuery => write!(f, "query predicate has no rules"),
        }
    }
}

impl std::error::Error for AdornError {}

/// Construct the adorned program for `program` and the query's binding
/// pattern, following the §4 generation process.
pub fn adorn(program: &Program, query: &Query) -> Result<AdornedProgram, AdornError> {
    adorn_for(program, query.pred, Adornment::of_query(query))
}

/// [`adorn`] from a bare `(predicate, adornment)` pair — the planning
/// form: the generation process depends only on which positions are
/// bound, never on the bound values, so one adorned program serves
/// every query with the same binding pattern.
pub fn adorn_for(
    program: &Program,
    pred: Pred,
    adornment: Adornment,
) -> Result<AdornedProgram, AdornError> {
    let root = AdornedPred { pred, adornment };
    if program.rules_for(pred).next().is_none() {
        return Err(AdornError::NoRulesForQuery);
    }
    let mut rules: Vec<AdornedRule> = Vec::new();
    let mut processed: FxHashSet<AdornedPred> = FxHashSet::default();
    let mut worklist: Vec<AdornedPred> = vec![root];
    while let Some(ap) = worklist.pop() {
        if !processed.insert(ap) {
            continue;
        }
        for (rule_idx, rule) in program.rules.iter().enumerate() {
            if rule.head.pred != ap.pred {
                continue;
            }
            let adorned = adorn_rule(program, rule, rule_idx, ap)?;
            if let AdornedBody::Recursive { child, .. } = &adorned.body {
                if !processed.contains(child) {
                    worklist.push(*child);
                }
            }
            rules.push(adorned);
        }
    }
    Ok(AdornedProgram { query: root, rules })
}

fn adorn_rule(
    program: &Program,
    rule: &Rule,
    rule_idx: usize,
    head: AdornedPred,
) -> Result<AdornedRule, AdornError> {
    // Head variables per position; constants unsupported.
    let mut head_vars: Vec<Var> = Vec::with_capacity(rule.head.args.len());
    for t in &rule.head.args {
        match t.as_var() {
            Some(v) => head_vars.push(v),
            None => return Err(AdornError::ConstantInHead(rule_idx)),
        }
    }
    let bound_head_vars: FxHashSet<Var> = head
        .adornment
        .bound_positions()
        .into_iter()
        .map(|i| head_vars[i])
        .collect();

    // Locate derived literals.
    let derived: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.as_atom().is_some_and(|a| program.is_derived(a.pred)))
        .map(|(i, _)| i)
        .collect();
    if derived.len() > 1 {
        return Err(AdornError::NotLinear(rule_idx));
    }
    if derived.is_empty() {
        return Ok(AdornedRule {
            head,
            rule_idx,
            body: AdornedBody::Base,
        });
    }
    let derived_idx = derived[0];
    let derived_atom = rule.body[derived_idx]
        .as_atom()
        .expect("derived index points at an atom");

    // Safety: every built-in variable must occur in some ordinary body
    // literal of the rule (the paper's restriction on built-ins).
    let all_atom_vars: FxHashSet<Var> = rule
        .body
        .iter()
        .enumerate()
        .filter(|&(i, l)| i != derived_idx && matches!(l, Literal::Atom(_)))
        .flat_map(|(_, l)| l.vars())
        .collect();
    for (li, lit) in rule.body.iter().enumerate() {
        if li == derived_idx || matches!(lit, Literal::Atom(_)) {
            continue;
        }
        if lit.vars().iter().any(|v| !all_atom_vars.contains(v)) {
            return Err(AdornError::StrandedBuiltin(rule_idx));
        }
    }

    // All non-derived body literals — base atoms *and* built-ins — take
    // part in the connectivity analysis.  In the paper's flight example
    // the comparison `AT1 < DT1` is what links `flight(S,DT,D1,AT1)` to
    // `is_deptime(DT1)`, pulling both onto the before side.
    let body_lits: Vec<usize> = (0..rule.body.len()).filter(|&i| i != derived_idx).collect();

    // Connected components of the literals under shared variables.
    let comp = literal_components(rule, &body_lits);

    // A component is bound-connected if any of its literals shares a
    // variable with a bound head position (condition (4)).
    let ncomp = comp.values().copied().max().map_or(0, |m| m + 1);
    let mut bound_comp = vec![false; ncomp];
    for &li in &body_lits {
        let lit_vars = rule.body[li].vars();
        if lit_vars.iter().any(|v| bound_head_vars.contains(v)) {
            bound_comp[comp[&li]] = true;
        }
    }

    // Condition (3) in the paper requires the before-literals to form a
    // *single* connected set.  We generalize mildly: several
    // bound-connected components are merged into one before set (their
    // conjunction is still joined with every component anchored to a
    // binding, e.g. `sg(a,b)` binds the up side and the down side
    // separately).  The strict condition is reported by
    // [`condition3_violations`] for callers that want the paper's exact
    // class.
    let before: Vec<usize> = body_lits
        .iter()
        .copied()
        .filter(|li| bound_comp[comp[li]])
        .collect();
    let after: Vec<usize> = body_lits
        .iter()
        .copied()
        .filter(|li| !bound_comp[comp[li]])
        .collect();

    // Variables bound on the before side: before-literal variables plus
    // bound head variables (condition (5)).
    let mut before_vars: FxHashSet<Var> = bound_head_vars.clone();
    for &li in &before {
        before_vars.extend(rule.body[li].vars());
    }

    // The derived literal's adornment (condition (5)): bound where the
    // argument is a variable bound on the before side (or a constant).
    let child_bound: Vec<usize> = derived_atom
        .args
        .iter()
        .enumerate()
        .filter(|(_, t)| match t.as_var() {
            Some(v) => before_vars.contains(&v),
            None => true,
        })
        .map(|(i, _)| i)
        .collect();
    let child = AdornedPred {
        pred: derived_atom.pred,
        adornment: Adornment::from_bound(derived_atom.args.len(), child_bound),
    };

    Ok(AdornedRule {
        head,
        rule_idx,
        body: AdornedBody::Recursive {
            derived_idx,
            child,
            before,
            after,
        },
    })
}

/// Union-find over the base literals of a rule: two literals are joined
/// when they share a variable (the paper's "directly connected").
fn literal_components(rule: &Rule, base_lits: &[usize]) -> FxHashMap<usize, usize> {
    let mut parent: FxHashMap<usize, usize> = base_lits.iter().map(|&l| (l, l)).collect();
    fn find(parent: &mut FxHashMap<usize, usize>, x: usize) -> usize {
        let p = parent[&x];
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    let mut by_var: FxHashMap<Var, usize> = FxHashMap::default();
    for &li in base_lits {
        for v in rule.body[li].vars() {
            if let Some(&other) = by_var.get(&v) {
                let a = find(&mut parent, li);
                let b = find(&mut parent, other);
                parent.insert(a, b);
            } else {
                by_var.insert(v, li);
            }
        }
    }
    // Normalize to dense component ids.
    let mut dense: FxHashMap<usize, usize> = FxHashMap::default();
    let mut out = FxHashMap::default();
    for &li in base_lits {
        let root = find(&mut parent, li);
        let next = dense.len();
        let id = *dense.entry(root).or_insert(next);
        out.insert(li, id);
    }
    out
}

/// The chain condition of Lemma 6: in every recursive adorned rule, the
/// variables of the before-literals must all be distinct from the head
/// variables designated free.  Returns the offending rule indices.
pub fn chain_violations(program: &Program, adorned: &AdornedProgram) -> Vec<usize> {
    let mut out = Vec::new();
    for ar in &adorned.rules {
        let AdornedBody::Recursive { before, .. } = &ar.body else {
            continue;
        };
        let rule = &program.rules[ar.rule_idx];
        let free_head_vars: FxHashSet<Var> = ar
            .head
            .adornment
            .free_positions()
            .into_iter()
            .filter_map(|i| rule.head.args[i].as_var())
            .collect();
        let clash = before
            .iter()
            .flat_map(|&li| rule.body[li].vars())
            .any(|v| free_head_vars.contains(&v));
        if clash {
            out.push(ar.rule_idx);
        }
    }
    out
}

/// The paper's strict condition (3): in every recursive adorned rule the
/// before-literals must form a single connected set.  [`adorn`] accepts
/// rules whose before-set has several bound-connected components (their
/// conjunction still evaluates correctly); this advisory reports the rule
/// indices that fall outside the paper's exact class.
pub fn condition3_violations(program: &Program, adorned: &AdornedProgram) -> Vec<usize> {
    let mut out = Vec::new();
    for ar in &adorned.rules {
        let AdornedBody::Recursive {
            derived_idx,
            before,
            ..
        } = &ar.body
        else {
            continue;
        };
        if before.is_empty() {
            continue;
        }
        let rule = &program.rules[ar.rule_idx];
        let body_lits: Vec<usize> = (0..rule.body.len()).filter(|i| i != derived_idx).collect();
        let comp = literal_components(rule, &body_lits);
        let distinct: FxHashSet<usize> = before.iter().map(|li| comp[li]).collect();
        if distinct.len() > 1 {
            out.push(ar.rule_idx);
        }
    }
    out
}

/// Render an adorned program for debugging and tests, e.g.
/// `sg^bf(X,Y) :- up(X,X1), sg^bf(X1,Y1), down(Y1,Y).`
pub fn display_adorned(program: &Program, adorned: &AdornedProgram) -> String {
    let mut out = String::new();
    for ar in &adorned.rules {
        let rule = &program.rules[ar.rule_idx];
        let head = format!(
            "{}^{}({})",
            program.pred_name(ar.head.pred),
            ar.head.adornment,
            rule.head
                .args
                .iter()
                .map(|&t| rq_datalog::display_term(program, rule, t))
                .collect::<Vec<_>>()
                .join(",")
        );
        let mut parts: Vec<String> = Vec::new();
        match &ar.body {
            AdornedBody::Base => {
                for lit in &rule.body {
                    parts.push(rq_datalog::display_literal(program, rule, lit));
                }
            }
            AdornedBody::Recursive {
                derived_idx,
                child,
                before,
                after,
            } => {
                for &li in before {
                    parts.push(rq_datalog::display_literal(program, rule, &rule.body[li]));
                }
                let atom = rule.body[*derived_idx].as_atom().expect("derived atom");
                parts.push(format!(
                    "{}^{}({})",
                    program.pred_name(child.pred),
                    child.adornment,
                    atom.args
                        .iter()
                        .map(|&t| rq_datalog::display_term(program, rule, t))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
                for &li in after {
                    parts.push(rq_datalog::display_literal(program, rule, &rule.body[li]));
                }
            }
        }
        out.push_str(&format!("{head} :- {}.\n", parts.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    fn adorned_for(src: &str, query: &str) -> (Program, AdornedProgram) {
        let mut program = parse_program(src).unwrap();
        let q = Query::parse(&mut program, query).unwrap();
        let a = adorn(&program, &q).unwrap();
        (program, a)
    }

    #[test]
    fn adornment_display() {
        let a = Adornment::from_bound(4, [0, 1]);
        assert_eq!(a.to_string(), "bbff");
        assert_eq!(a.bound_positions(), vec![0, 1]);
        assert_eq!(a.free_positions(), vec![2, 3]);
        assert!(a.is_bound(0));
        assert!(!a.is_bound(2));
    }

    #[test]
    fn same_generation_bf_adornment() {
        // The paper's example: sg^bf propagates bf to the recursive call.
        let (program, adorned) = adorned_for(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,b). flat(b,c). down(c,d).",
            "sg(a, Y)",
        );
        let text = display_adorned(&program, &adorned);
        assert!(text.contains("sg^bf(X,Y) :- flat(X,Y)."));
        assert!(text.contains("sg^bf(X,Y) :- up(X,X1), sg^bf(X1,Y1), down(Y1,Y)."));
        // Only one adorned predicate: sg^bf.
        assert_eq!(adorned.rules.len(), 2);
        assert!(chain_violations(&program, &adorned).is_empty());
    }

    #[test]
    fn naughton_example_two_adornments() {
        // §4's second example [15]: p(X,Y) :- b0(X,Y);
        // p(X,Y) :- b1(X,Z), p(Y,Z).  Query p(a,Y) generates pbf and pfb.
        let (program, adorned) = adorned_for(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(a,b). b1(a,c).",
            "p(a, Y)",
        );
        let text = display_adorned(&program, &adorned);
        assert!(text.contains("p^bf(X,Y) :- b0(X,Y)."));
        assert!(text.contains("p^bf(X,Y) :- b1(X,Z), p^fb(Y,Z)."));
        assert!(text.contains("p^fb(X,Y) :- b0(X,Y)."));
        // In the fb rule the binding comes through Z: before = {b1(X,Z)}?
        // No: for p^fb the bound position is the second (Z); b1(X,Z)
        // shares Z → before = {b1}, child bound position = first arg of
        // p(Y,Z)... Y unbound, Z bound → p^fb again?  The paper gets
        // p^fb(X,Y) :- p^bf(Y,Z), b1(X,Z): before = ∅ (no literal shares
        // a bound var with... b1(X,Z) shares Z with the bound head
        // position 2 → bound-connected!  Let's check what we derive.
        assert!(chain_violations(&program, &adorned).is_empty());
        assert_eq!(adorned.rules.len(), 4, "{text}");
    }

    #[test]
    fn flight_example_adornment() {
        let (program, adorned) = adorned_for(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130). is_deptime(900).",
            "cnx(hel, 900, D, AT)",
        );
        let text = display_adorned(&program, &adorned);
        assert!(
            text.contains("cnx^bbff(S,DT,D,AT) :- flight(S,DT,D,AT)."),
            "{text}"
        );
        // The recursive rule: before = {flight, is_deptime, AT1 < DT1},
        // the derived literal adorned bbff, empty after set.
        assert!(
            text.contains(
                "cnx^bbff(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx^bbff(D1,DT1,D,AT)."
            ),
            "{text}"
        );
        assert!(chain_violations(&program, &adorned).is_empty());
    }

    #[test]
    fn non_chain_program_detected() {
        // §4's counterexample: p(X,Y) :- b1(X,Y), p(Y,Z): the free head
        // variable Y occurs in the before-literal b1(X,Y).
        let (program, adorned) = adorned_for(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Y), p(Y,Z).\n\
             b1(a,b). b0(b,c).",
            "p(a, Y)",
        );
        let violations = chain_violations(&program, &adorned);
        assert_eq!(violations, vec![1]);
    }

    #[test]
    fn all_free_query_adorns_ff() {
        let (program, adorned) = adorned_for(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,b). flat(b,c). down(c,d).",
            "sg(X, Y)",
        );
        let text = display_adorned(&program, &adorned);
        // With nothing bound, both body parts are unbound: before = ∅ and
        // the child is ff as well.
        assert!(
            text.contains("sg^ff(X,Y) :- sg^ff(X1,Y1), up(X,X1), down(Y1,Y)."),
            "{text}"
        );
    }

    #[test]
    fn nonlinear_rejected() {
        let mut program = parse_program(
            "p(X,Z) :- p(X,Y), p(Y,Z).\n\
             p(X,Y) :- e(X,Y).\n\
             e(a,b).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        assert_eq!(adorn(&program, &q).unwrap_err(), AdornError::NotLinear(0));
    }

    #[test]
    fn constant_in_head_rejected() {
        let mut program = parse_program(
            "p(X,k) :- e(X,Y), p(Y,k).\n\
             p(X,Y) :- e(X,Y).\n\
             e(a,b).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        assert_eq!(
            adorn(&program, &q).unwrap_err(),
            AdornError::ConstantInHead(0)
        );
    }

    #[test]
    fn disconnected_before_set_is_advisory() {
        // Both u(X,A) and w(Y,B) touch bound head vars but share no
        // variable: the paper's strict condition (3) fails, but the
        // merged before-set still adorns (and evaluates) correctly.
        let mut program = parse_program(
            "p(X,Y,Z) :- u(X,A), w(Y,B), q(A,B,Z).\n\
             q(A,B,Z) :- e(A,B,Z).\n\
             p(X,Y,Z) :- e(X,Y,Z).\n\
             e(a,b,c). u(a,b). w(b,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, b, Z)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        assert_eq!(condition3_violations(&program, &adorned), vec![0]);
        // Both components feed the before set; the child gets bbf.
        let text = display_adorned(&program, &adorned);
        assert!(text.contains("q^bbf(A,B,Z)"), "{text}");
        assert!(chain_violations(&program, &adorned).is_empty());
    }

    #[test]
    fn both_bound_sg_adorns_bb() {
        // sg(a,b): up anchors to X, down anchors to Y — two disconnected
        // bound components, merged into one before set; the recursive
        // call is adorned bb.
        let mut program = parse_program(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,c). flat(c,d). down(d,b).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "sg(a, b)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let text = display_adorned(&program, &adorned);
        assert!(
            text.contains("sg^bb(X,Y) :- up(X,X1), down(Y1,Y), sg^bb(X1,Y1)."),
            "{text}"
        );
        assert_eq!(condition3_violations(&program, &adorned), vec![1]);
    }

    #[test]
    fn query_with_no_rules_rejected() {
        let mut program = parse_program("e(a,b).").unwrap();
        let q = Query::parse(&mut program, "e(a, Y)").unwrap();
        assert_eq!(
            adorn(&program, &q).unwrap_err(),
            AdornError::NoRulesForQuery
        );
    }
}
