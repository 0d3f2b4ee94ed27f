//! Rule firing: backtracking join of a rule body against a database.
//!
//! This is the shared machinery under naive and seminaive evaluation (and
//! under the §4 demand-driven virtual relations in `rq-adorn`).  Body atoms
//! are matched left to right; each atom probes the relation with the
//! binding pattern induced by the variables bound so far; built-in
//! comparisons fire as soon as both operands are bound (the paper's flight
//! example writes `AT1 < DT1` *before* the literal that binds `DT1`, so
//! evaluation must be deferred, not positional).

use crate::ast::{Atom, Literal, Program, Rule, Term};
use crate::db::{mask_of, Database, MAX_ARITY};
use rq_common::{Const, Counters, Pred};

/// A variable environment for one rule firing.
pub type Env = Vec<Option<Const>>;

/// Resolve a term under an environment.
#[inline]
pub fn resolve(env: &[Option<Const>], t: Term) -> Option<Const> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => env[v.0 as usize],
    }
}

/// Where to read each predicate's extension during a join.  Naive
/// evaluation reads one database; seminaive substitutes the delta relation
/// for a single designated occurrence of a recursive predicate.
pub trait RelView {
    /// The relation to read for `occurrence` (the index of the atom within
    /// the rule body) of predicate `pred`.
    fn relation(&self, pred: Pred, occurrence: usize) -> &crate::db::Relation;
}

/// A view reading every predicate from a single database.
pub struct WholeDb<'a>(pub &'a Database);

impl RelView for WholeDb<'_> {
    fn relation(&self, pred: Pred, _occurrence: usize) -> &crate::db::Relation {
        self.0.relation(pred)
    }
}

/// A view like [`WholeDb`] but substituting `delta` for occurrence
/// `target_occurrence` of predicate `target` (the seminaive rewrite).
pub struct DeltaView<'a> {
    /// Full database for everything else.
    pub full: &'a Database,
    /// The predicate whose designated occurrence reads the delta.
    pub target: Pred,
    /// Which body-atom index reads the delta.
    pub target_occurrence: usize,
    /// The delta relation.
    pub delta: &'a crate::db::Relation,
}

impl RelView for DeltaView<'_> {
    fn relation(&self, pred: Pred, occurrence: usize) -> &crate::db::Relation {
        if pred == self.target && occurrence == self.target_occurrence {
            self.delta
        } else {
            self.full.relation(pred)
        }
    }
}

/// Fire `rule` under `view`, invoking `emit` with the instantiated head
/// tuple for every satisfying assignment.  `counters` is charged one
/// `index_probes` per relation probe and one `tuples_retrieved` per tuple
/// scanned.  Returns an error only if an unbound built-in remains at the
/// end (a safety violation that [`crate::analysis::unsafe_rules`] should
/// have caught earlier).
pub fn fire_rule<V: RelView>(
    program: &Program,
    rule: &Rule,
    view: &V,
    counters: &mut Counters,
    emit: &mut dyn FnMut(&[Const]),
) -> Result<(), UnsafeBuiltin> {
    let mut env: Env = vec![None; rule.num_vars()];
    fire_seeded(
        program,
        rule.body.iter(),
        &rule.head.args,
        &mut env,
        view,
        counters,
        emit,
    )
}

/// Fire a join over `body` literals under a pre-seeded environment,
/// emitting `head_terms` resolved against the final bindings.  This is
/// the §4 demand-probe entry point: the probe key is bound directly
/// into `env` instead of being substituted into a cloned rule, so the
/// per-probe cost is the join itself, not rule construction.  The env
/// is a borrowed slice so a hot caller can reuse a stack buffer across
/// probes; it is restored to its seeded state on return.  Atom
/// occurrence indexes (for [`RelView`]) count positions in `body`'s
/// iteration order, matching [`fire_rule`] when handed the full body.
pub fn fire_seeded<'r, V: RelView>(
    program: &Program,
    body: impl Iterator<Item = &'r Literal>,
    head_terms: &[Term],
    env: &mut [Option<Const>],
    view: &V,
    counters: &mut Counters,
    emit: &mut dyn FnMut(&[Const]),
) -> Result<(), UnsafeBuiltin> {
    // Atoms in body order, remembering their occurrence index; builtins
    // collected separately and re-checked as bindings accumulate.
    let mut atoms: Vec<(usize, &Atom)> = Vec::new();
    let mut builtins: Vec<&Literal> = Vec::new();
    for (i, l) in body.enumerate() {
        match l.as_atom() {
            Some(a) => atoms.push((i, a)),
            None => builtins.push(l),
        }
    }
    let mut scratch: Vec<u32> = Vec::new();
    join_rec(
        program,
        head_terms,
        view,
        &atoms,
        &builtins,
        0,
        env,
        &mut scratch,
        counters,
        emit,
    )
}

/// Error: a built-in literal still had unbound variables after all body
/// atoms were matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeBuiltin;

impl std::fmt::Display for UnsafeBuiltin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "built-in literal with unbound variable (unsafe rule)")
    }
}

impl std::error::Error for UnsafeBuiltin {}

/// Evaluate every built-in whose operands are fully bound.  Returns
/// `Ok(false)` if some bound built-in is false, `Ok(true)` otherwise.
fn builtins_hold(program: &Program, builtins: &[&Literal], env: &[Option<Const>]) -> bool {
    for lit in builtins {
        if let Literal::Cmp { op, lhs, rhs } = lit {
            if let (Some(a), Some(b)) = (resolve(env, *lhs), resolve(env, *rhs)) {
                let ord = program.consts.value(a).builtin_cmp(program.consts.value(b));
                if !op.eval(ord) {
                    return false;
                }
            }
        }
    }
    true
}

fn builtins_all_bound(builtins: &[&Literal], env: &[Option<Const>]) -> bool {
    builtins.iter().all(|lit| match lit {
        Literal::Cmp { lhs, rhs, .. } => {
            resolve(env, *lhs).is_some() && resolve(env, *rhs).is_some()
        }
        Literal::Atom(_) => true,
    })
}

#[allow(clippy::too_many_arguments)]
fn join_rec<V: RelView>(
    program: &Program,
    head_terms: &[Term],
    view: &V,
    atoms: &[(usize, &Atom)],
    builtins: &[&Literal],
    depth: usize,
    env: &mut [Option<Const>],
    scratch: &mut Vec<u32>,
    counters: &mut Counters,
    emit: &mut dyn FnMut(&[Const]),
) -> Result<(), UnsafeBuiltin> {
    // Prune early: any *bound* builtin that is false kills this branch.
    if !builtins_hold(program, builtins, env) {
        return Ok(());
    }
    if depth == atoms.len() {
        if !builtins_all_bound(builtins, env) {
            return Err(UnsafeBuiltin);
        }
        // Heads fit the same `MAX_ARITY` bound as probe keys (the
        // parser rejects wider atoms); resolving into a stack buffer
        // keeps firing allocation-free.
        counters.rule_firings += 1;
        let mut head = [Const::from_index(0); MAX_ARITY];
        for (slot, &t) in head.iter_mut().zip(head_terms) {
            *slot = resolve(env, t).expect("safe rule binds head vars");
        }
        emit(&head[..head_terms.len()]);
        return Ok(());
    }
    let (occurrence, atom) = atoms[depth];
    let rel = view.relation(atom.pred, occurrence);
    // Binding pattern: columns whose term is a constant or a bound var.
    // Column masks cap arity at `MAX_ARITY`, so the key fits a stack buffer —
    // this loop is the §4 cold path and must not allocate per probe.
    let mut key = [Const::from_index(0); MAX_ARITY];
    let mut key_len = 0usize;
    let mask = mask_of(atom.args.iter().enumerate().filter_map(|(i, &t)| {
        resolve(env, t).map(|c| {
            key[key_len] = c;
            key_len += 1;
            i
        })
    }));
    let start = scratch.len();
    counters.index_probes += 1;
    if rel.lookup(mask, &key[..key_len], scratch) {
        counters.csr_probes += 1;
    } else if mask != 0 {
        counters.trie_probes += 1;
    }
    let end = scratch.len();
    for idx in start..end {
        let ord = scratch[idx];
        counters.tuples_retrieved += 1;
        // Bind the free columns; repeated free vars must agree.  The
        // tuple is read in place (a slice into the shard's chunked
        // storage); `bound_here` stays on the stack for the same
        // no-allocation reason as `key`.
        let tuple: &[Const] = rel.tuple(ord);
        let mut bound_here = [0u32; MAX_ARITY];
        let mut num_bound = 0usize;
        let mut ok = true;
        for (i, &t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    if tuple[i] != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match env[v.0 as usize] {
                    Some(c) => {
                        if tuple[i] != c {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env[v.0 as usize] = Some(tuple[i]);
                        bound_here[num_bound] = v.0;
                        num_bound += 1;
                    }
                },
            }
        }
        if ok {
            join_rec(
                program,
                head_terms,
                view,
                atoms,
                builtins,
                depth + 1,
                env,
                scratch,
                counters,
                emit,
            )?;
        }
        for &v in &bound_here[..num_bound] {
            env[v as usize] = None;
        }
    }
    scratch.truncate(start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run_rule(src: &str) -> Vec<Vec<Const>> {
        let p = parse_program(src).unwrap();
        let db = Database::from_program(&p);
        let mut counters = Counters::new();
        let mut out = Vec::new();
        fire_rule(&p, &p.rules[0], &WholeDb(&db), &mut counters, &mut |t| {
            out.push(t.to_vec())
        })
        .unwrap();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn simple_join() {
        let out = run_rule(
            "p(X,Z) :- a(X,Y), b(Y,Z).\n\
             a(1,2). a(1,3). b(2,10). b(3,11). b(4,12).",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_with_constant_in_body() {
        let out = run_rule(
            "p(X) :- a(X,k).\n\
             a(u,k). a(v,m).",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn repeated_variable_selects_diagonal() {
        let out = run_rule(
            "p(X) :- a(X,X).\n\
             a(u,u). a(u,v). a(w,w).",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn builtin_defers_until_bound() {
        // `AT1 < DT1` precedes the literal binding DT1, as in the paper's
        // flight example.
        let out = run_rule(
            "p(S,D1) :- f(S,D1,A1), A1 < DT1, d(DT1).\n\
             f(hel,ams,1130). d(1200). d(1000).",
        );
        // DT1 ∈ {1200, 1000}; 1130 < 1200 only, so one binding of DT1
        // survives and one head tuple results.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn builtin_filters() {
        let out = run_rule(
            "p(X,Y) :- e(X,Y), X < Y.\n\
             e(1,2). e(2,1). e(3,3).",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unsafe_builtin_reported() {
        let p = parse_program("p(X,Y) :- e(X,Y), W < Y.\ne(1,2).").unwrap();
        let db = Database::from_program(&p);
        let mut counters = Counters::new();
        let err = fire_rule(&p, &p.rules[0], &WholeDb(&db), &mut counters, &mut |_| {});
        assert_eq!(err, Err(UnsafeBuiltin));
    }

    #[test]
    fn counters_charge_probes_and_tuples() {
        let p = parse_program("p(X,Z) :- a(X,Y), b(Y,Z).\na(1,2). b(2,3). b(2,4).").unwrap();
        let db = Database::from_program(&p);
        let mut counters = Counters::new();
        fire_rule(&p, &p.rules[0], &WholeDb(&db), &mut counters, &mut |_| {}).unwrap();
        // One probe for `a` (full scan), one for `b` keyed on Y=2.
        assert_eq!(counters.index_probes, 2);
        // One `a` tuple + two `b` tuples.
        assert_eq!(counters.tuples_retrieved, 3);
        assert_eq!(counters.rule_firings, 2);
    }
}
