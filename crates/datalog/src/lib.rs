//! Datalog substrate for the `recursive-queries` workspace (§2 of the
//! paper): abstract syntax, a parser for the Prolog-like concrete syntax,
//! indexed relation storage, program analysis (recursion taxonomy, SCCs,
//! binary-chain and regularity checks), and the two completely general
//! bottom-up strategies — naive and seminaive evaluation — that serve as
//! correctness oracles and baselines for the paper's graph-traversal
//! method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod db;
pub mod eval;
pub mod naive;
pub mod parser;
pub mod pretty;
#[cfg(test)]
mod reference;
pub mod seminaive;

pub use analysis::{
    binary_chain_violations, pred_regularity, program_is_regular, rule_is_chain, strata,
    tarjan_scc, unsafe_rules, Analysis, ChainViolation, Regularity,
};
pub use ast::{Atom, CmpOp, Literal, PredInfo, Program, Rule, Term};
pub use db::{mask_cols, mask_of, ColMask, CompactStore, Database, Relation, MAX_ARITY};
pub use eval::{fire_rule, fire_seeded, DeltaView, Env, RelView, UnsafeBuiltin, WholeDb};
pub use naive::{naive_eval, EvalResult};
pub use parser::{parse_program, ParseError};
pub use pretty::{display_atom, display_literal, display_program, display_rule, display_term};
pub use seminaive::seminaive_eval;

/// A query: a predicate with each argument either bound to a constant or
/// free.  `sg(john, Y)` is `Query { pred: sg, args: [Bound(john), Free] }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The queried predicate.
    pub pred: rq_common::Pred,
    /// One entry per argument position.
    pub args: Vec<QueryArg>,
    /// For free positions, the variable name (`None` for bound
    /// positions and for the anonymous variable `_`).  A name occurring
    /// at several positions constrains those positions to be equal —
    /// `tc(X, X)` is the diagonal, not all pairs.
    pub var_names: Vec<Option<String>>,
}

/// One argument position of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryArg {
    /// Bound to a constant.
    Bound(rq_common::Const),
    /// Free (to be enumerated in the answer).
    Free,
}

impl Query {
    /// Parse a query literal like `sg(john, Y)` against an existing
    /// program (constants are interned into the program).
    pub fn parse(program: &mut Program, text: &str) -> Result<Self, ParseError> {
        // Reuse the clause parser by parsing `text.` as a fact-shaped
        // clause but allowing variables: parse manually instead.
        let text = text.trim().trim_end_matches('.');
        let open = text.find('(').ok_or_else(|| ParseError {
            line: 1,
            col: 1,
            msg: "query must look like pred(arg, ...)".into(),
        })?;
        if !text.ends_with(')') {
            return Err(ParseError {
                line: 1,
                col: text.len(),
                msg: "expected `)`".into(),
            });
        }
        let name = text[..open].trim();
        let inner = &text[open + 1..text.len() - 1];
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        if parts.iter().any(|p| p.is_empty()) || name.is_empty() {
            return Err(ParseError {
                line: 1,
                col: 1,
                msg: "empty argument in query".into(),
            });
        }
        let pred = program.pred_by_name(name).ok_or_else(|| ParseError {
            line: 1,
            col: 1,
            msg: format!("unknown predicate `{name}` in query"),
        })?;
        if program.arity(pred) != parts.len() {
            return Err(ParseError {
                line: 1,
                col: 1,
                msg: format!(
                    "query arity {} does not match predicate arity {}",
                    parts.len(),
                    program.arity(pred)
                ),
            });
        }
        let mut var_names: Vec<Option<String>> = Vec::with_capacity(parts.len());
        let args = parts
            .iter()
            .map(|p| {
                let first = p.chars().next().expect("nonempty");
                if first.is_ascii_uppercase() || first == '_' {
                    var_names.push(if *p == "_" { None } else { Some(p.to_string()) });
                    QueryArg::Free
                } else {
                    var_names.push(None);
                    if let Ok(i) = p.parse::<i64>() {
                        QueryArg::Bound(program.consts.intern_int(i))
                    } else {
                        QueryArg::Bound(program.consts.intern_str(p))
                    }
                }
            })
            .collect();
        Ok(Query {
            pred,
            args,
            var_names,
        })
    }

    /// The bound argument positions.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, QueryArg::Bound(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// The bound constants, in ascending position order — the §4
    /// anchor tuple.
    pub fn bound_values(&self) -> Vec<rq_common::Const> {
        self.args
            .iter()
            .filter_map(|a| match a {
                QueryArg::Bound(c) => Some(*c),
                QueryArg::Free => None,
            })
            .collect()
    }

    /// The free argument positions.
    pub fn free_positions(&self) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, QueryArg::Free))
            .map(|(i, _)| i)
            .collect()
    }

    /// The free positions to report in answers: every free position,
    /// except that a repeated variable name is reported only at its
    /// first occurrence (`tc(X, X)` has one answer column).
    pub fn distinct_free_positions(&self) -> Vec<usize> {
        let mut seen: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        for (i, a) in self.args.iter().enumerate() {
            if !matches!(a, QueryArg::Free) {
                continue;
            }
            match &self.var_names[i] {
                Some(name) => {
                    if !seen.contains(&name.as_str()) {
                        seen.push(name);
                        out.push(i);
                    }
                }
                None => out.push(i),
            }
        }
        out
    }

    /// Pairs `(first, later)` of argument positions carrying the same
    /// variable name; answer tuples must agree on them.
    pub fn repeat_constraints(&self) -> Vec<(usize, usize)> {
        let mut firsts: Vec<(usize, &str)> = Vec::new();
        let mut out = Vec::new();
        for (i, name) in self.var_names.iter().enumerate() {
            let Some(name) = name else { continue };
            match firsts.iter().find(|(_, n)| n == &name.as_str()) {
                Some(&(first, _)) => out.push((first, i)),
                None => firsts.push((i, name)),
            }
        }
        out
    }

    /// Filter the full extension of the query predicate down to the
    /// tuples matching the bound arguments and repeated-variable
    /// constraints, projecting onto the distinct free positions.  Used
    /// to turn an oracle's full relation into the answer to this query.
    pub fn answer_from_relation(
        &self,
        tuples: &[Vec<rq_common::Const>],
    ) -> Vec<Vec<rq_common::Const>> {
        let free = self.distinct_free_positions();
        let repeats = self.repeat_constraints();
        let mut out: Vec<Vec<rq_common::Const>> = tuples
            .iter()
            .filter(|t| {
                self.args.iter().enumerate().all(|(i, a)| match a {
                    QueryArg::Bound(c) => t[i] == *c,
                    QueryArg::Free => true,
                }) && repeats.iter().all(|&(a, b)| t[a] == t[b])
            })
            .map(|t| free.iter().map(|&i| t[i]).collect())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parse_bound_free() {
        let mut p = parse_program("sg(X,Y) :- flat(X,Y).\nflat(john,mary).").unwrap();
        let q = Query::parse(&mut p, "sg(john, Y)").unwrap();
        assert_eq!(q.bound_positions(), vec![0]);
        assert_eq!(q.free_positions(), vec![1]);
        let q2 = Query::parse(&mut p, "sg(X, Y)").unwrap();
        assert_eq!(q2.bound_positions(), Vec::<usize>::new());
    }

    #[test]
    fn query_parse_integer_constant() {
        let mut p = parse_program("c(X,Y) :- f(X,Y).\nf(1,2).").unwrap();
        let q = Query::parse(&mut p, "c(1, Y)").unwrap();
        assert_eq!(q.bound_positions(), vec![0]);
    }

    #[test]
    fn query_parse_errors() {
        let mut p = parse_program("f(a,b).").unwrap();
        assert!(Query::parse(&mut p, "nosuch(X)").is_err());
        assert!(Query::parse(&mut p, "f(X)").is_err());
        assert!(Query::parse(&mut p, "f").is_err());
    }

    #[test]
    fn answer_from_relation_projects_and_filters() {
        let mut p = parse_program("f(a,b). f(a,c). f(b,c).").unwrap();
        let q = Query::parse(&mut p, "f(a, Y)").unwrap();
        let f = p.pred_by_name("f").unwrap();
        let db = Database::from_program(&p);
        let tuples: Vec<Vec<rq_common::Const>> =
            db.relation(f).iter().map(|t| t.to_vec()).collect();
        let ans = q.answer_from_relation(&tuples);
        assert_eq!(ans.len(), 2);
        assert!(ans.iter().all(|t| t.len() == 1));
    }
}
