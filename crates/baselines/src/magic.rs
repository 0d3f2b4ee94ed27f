//! The magic-sets query optimization \[3, 5\]: rewrite an adorned linear
//! program with *magic* predicates that restrict bottom-up evaluation to
//! the facts relevant to the query bindings, then run seminaive
//! evaluation on the rewritten program.
//!
//! For each adorned rule `p^a(X̄) :- before, q^d(Z̄), after` the rewriting
//! produces
//!
//! * a modified rule `p^a(X̄) :- m_p^a(X̄^b), before, q^d(Z̄), after`, and
//! * a magic rule  `m_q^d(Z̄^b) :- m_p^a(X̄^b), before`,
//!
//! seeded with the query's bound constants `m_root(ā)`.  Magic sets works
//! on *relations of the original arity* — the paper's intro quotes
//! Bancilhon–Ramakrishnan: node-set strategies beat arc-set strategies
//! "by an order of magnitude or more", which experiment E1 measures.

use rq_adorn::{adorn, AdornedBody, AdornedPred, AdornedProgram};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_datalog::{seminaive_eval, Atom, Literal, Program, Query, Rule, Term};

/// Result of a magic-sets evaluation.
#[derive(Clone, Debug)]
pub struct MagicOutcome {
    /// Answer rows: values of the query's free positions.
    pub rows: Vec<Vec<Const>>,
    /// Instrumentation from the seminaive run over the rewritten program.
    pub counters: Counters,
    /// The rewritten program (for inspection).
    pub rewritten: Program,
}

/// Rewrite with magic predicates and evaluate bottom-up.
pub fn magic_sets(program: &Program, query: &Query) -> Result<MagicOutcome, rq_adorn::AdornError> {
    let adorned = adorn(program, query)?;
    let rewritten = rewrite(program, query, &adorned);
    let result = seminaive_eval(&rewritten).expect("rewritten program is safe");

    // The adorned query predicate holds the answers.
    let ans_pred = rewritten
        .pred_by_name(&adorned_name(program, adorned.query))
        .expect("answer predicate exists");
    let tuples: Vec<Vec<Const>> = result
        .db
        .relation(ans_pred)
        .iter()
        .map(|t| t.to_vec())
        .collect();
    let rows = query.answer_from_relation(&tuples);
    Ok(MagicOutcome {
        rows,
        counters: result.counters,
        rewritten,
    })
}

fn adorned_name(program: &Program, ap: AdornedPred) -> String {
    format!("{}__{}", program.pred_name(ap.pred), ap.adornment)
}

fn magic_name(program: &Program, ap: AdornedPred) -> String {
    format!("m_{}__{}", program.pred_name(ap.pred), ap.adornment)
}

fn rewrite(program: &Program, query: &Query, adorned: &AdornedProgram) -> Program {
    let mut out = Program::new();
    out.consts = program.consts.clone();

    // Copy base predicates and facts.
    let mut pred_map: FxHashMap<Pred, Pred> = FxHashMap::default();
    for p in program.base_preds() {
        let np = out.pred(program.pred_name(p), program.arity(p));
        pred_map.insert(p, np);
    }
    for (p, tuple) in &program.facts {
        out.add_fact(pred_map[p], tuple);
    }

    // Adorned and magic predicates.
    let adorned_preds: FxHashSet<AdornedPred> = adorned
        .rules
        .iter()
        .flat_map(|r| [Some(r.head), r.body_child()].into_iter().flatten())
        .collect();
    let mut ap_pred: FxHashMap<AdornedPred, Pred> = FxHashMap::default();
    let mut magic_pred: FxHashMap<AdornedPred, Pred> = FxHashMap::default();
    for &ap in &adorned_preds {
        ap_pred.insert(
            ap,
            out.pred(&adorned_name(program, ap), program.arity(ap.pred)),
        );
        magic_pred.insert(
            ap,
            out.pred(
                &magic_name(program, ap),
                ap.adornment.bound_positions().len().max(1),
            ),
        );
    }

    let map_lit = |lit: &Literal| -> Literal {
        match lit {
            Literal::Atom(a) => Literal::Atom(Atom::new(pred_map[&a.pred], a.args.clone())),
            cmp => cmp.clone(),
        }
    };

    for ar in &adorned.rules {
        let rule = &program.rules[ar.rule_idx];
        let head_bound_args: Vec<Term> = ar
            .head
            .adornment
            .bound_positions()
            .into_iter()
            .map(|i| rule.head.args[i])
            .collect();
        let magic_head_args = if head_bound_args.is_empty() {
            // Nullary magic is encoded unary over a dummy constant; the
            // seed below provides it.
            vec![Term::Var(rq_common::Var(u32::MAX))] // replaced just below
        } else {
            head_bound_args.clone()
        };
        // Guard literal m_p^a(X̄^b).
        let guard = if head_bound_args.is_empty() {
            None
        } else {
            Some(Literal::Atom(Atom::new(
                magic_pred[&ar.head],
                magic_head_args,
            )))
        };

        match &ar.body {
            AdornedBody::Base => {
                let mut body: Vec<Literal> = Vec::with_capacity(rule.body.len() + 1);
                body.extend(guard.clone());
                body.extend(rule.body.iter().map(map_lit));
                out.add_rule(Rule {
                    head: Atom::new(ap_pred[&ar.head], rule.head.args.clone()),
                    body,
                    var_names: rule.var_names.clone(),
                });
            }
            AdornedBody::Recursive {
                derived_idx,
                child,
                before,
                after,
            } => {
                let child_atom = rule.body[*derived_idx].as_atom().expect("derived");
                // Modified rule: guard, before, child (adorned), after.
                let mut body: Vec<Literal> = Vec::new();
                body.extend(guard.clone());
                for &li in before {
                    body.push(map_lit(&rule.body[li]));
                }
                body.push(Literal::Atom(Atom::new(
                    ap_pred[child],
                    child_atom.args.clone(),
                )));
                for &li in after {
                    body.push(map_lit(&rule.body[li]));
                }
                out.add_rule(Rule {
                    head: Atom::new(ap_pred[&ar.head], rule.head.args.clone()),
                    body,
                    var_names: rule.var_names.clone(),
                });
                // Magic rule: m_child(Z̄^b) :- guard, before.
                let child_bound_args: Vec<Term> = child
                    .adornment
                    .bound_positions()
                    .into_iter()
                    .map(|i| child_atom.args[i])
                    .collect();
                if !child_bound_args.is_empty() {
                    let mut mbody: Vec<Literal> = Vec::new();
                    mbody.extend(guard.clone());
                    for &li in before {
                        mbody.push(map_lit(&rule.body[li]));
                    }
                    if mbody.is_empty() {
                        // No restriction flows: the magic set for the
                        // child is unrestricted; seed from the full base
                        // column is not expressible as a rule, so fall
                        // back to the child rules having no guard — here
                        // we simply skip generating the magic rule and
                        // the guard was already omitted for empty bounds.
                    } else {
                        out.add_rule(Rule {
                            head: Atom::new(magic_pred[child], child_bound_args),
                            body: mbody,
                            var_names: rule.var_names.clone(),
                        });
                    }
                }
            }
        }
    }

    // Seed: m_root(ā).
    let bound: Vec<Const> = query
        .args
        .iter()
        .filter_map(|a| match a {
            rq_datalog::QueryArg::Bound(c) => Some(*c),
            rq_datalog::QueryArg::Free => None,
        })
        .collect();
    if !bound.is_empty() {
        let root = AdornedPred {
            pred: adorned.query.pred,
            adornment: adorned.query.adornment,
        };
        out.add_fact(magic_pred[&root], &bound);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    fn run(src: &str, query: &str) -> (Program, Query, MagicOutcome) {
        let mut program = parse_program(src).unwrap();
        let q = Query::parse(&mut program, query).unwrap();
        let out = magic_sets(&program, &q).unwrap();
        (program, q, out)
    }

    #[test]
    fn magic_sg_matches_oracle() {
        let (program, q, out) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
             down(b2,b1). down(b1,b).",
            "sg(a, Y)",
        );
        let oracle = rq_adorn::oracle_rows(&program, &q);
        assert_eq!(out.rows, oracle);
    }

    #[test]
    fn magic_restricts_relevant_facts() {
        // A disconnected component must not be evaluated.
        let (program, q, out) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). flat(a1,b1). down(b1,b).\n\
             up(u0,u1). up(u1,u2). up(u2,u3). flat(u3,v3).\n\
             down(v3,v2). down(v2,v1). down(v1,v0).",
            "sg(a, Y)",
        );
        let oracle = rq_adorn::oracle_rows(&program, &q);
        assert_eq!(out.rows, oracle);
        // Without magic, seminaive derives the whole u/v component too.
        let plain = seminaive_eval(&program).unwrap();
        assert!(
            out.counters.nodes_inserted < plain.counters.nodes_inserted + 3,
            "magic {} should not blow up vs plain {}",
            out.counters.nodes_inserted,
            plain.counters.nodes_inserted
        );
        let sg = program.pred_by_name("sg").unwrap();
        // Plain seminaive computes 6 sg facts (both components); magic's
        // adorned sg holds only the a-component's two.
        assert_eq!(plain.db.relation(sg).len(), 6);
        let ans_pred = out
            .rewritten
            .pred_by_name("sg__bf")
            .expect("adorned predicate");
        let magic_db = seminaive_eval(&out.rewritten).unwrap();
        assert_eq!(magic_db.db.relation(ans_pred).len(), 2);
    }

    #[test]
    fn magic_flight_with_builtins() {
        let (program, q, out) = run(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130).\n\
             flight(ams,1200,cdg,1330).\n\
             flight(cdg,1400,nce,1530).\n\
             is_deptime(900). is_deptime(1200). is_deptime(1400).",
            "cnx(hel, 900, D, AT)",
        );
        let oracle = rq_adorn::oracle_rows(&program, &q);
        assert_eq!(out.rows, oracle);
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn magic_two_adornment_program() {
        let (program, q, out) = run(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(m1,n1). b0(m2,n2). b0(m3,n3).\n\
             b1(a,n2). b1(m2,n3). b1(m1,n1). b1(m3,n1).",
            "p(a, Y)",
        );
        let oracle = rq_adorn::oracle_rows(&program, &q);
        assert_eq!(out.rows, oracle);
    }

    #[test]
    fn magic_transitive_closure() {
        let (program, q, out) = run(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c). e(c,d). e(x,y).",
            "tc(a, Y)",
        );
        let oracle = rq_adorn::oracle_rows(&program, &q);
        assert_eq!(out.rows, oracle);
        assert_eq!(out.rows.len(), 3);
    }
}
