//! The Hunt–Szymanski–Ullman evaluator \[8\]: preconstruct the *entire*
//! graph of a derived-free binary-relational expression, then answer
//! queries by plain reachability.
//!
//! This is the algorithm the paper's §3 starts from and improves: "the
//! algorithm is impractical, because it involves the preconstruction of
//! the entire graph G(p).  By definition, this graph contains copies of
//! all tuples from every argument relation in the expression" — including
//! portions unreachable from any query constant.  Experiment E14
//! measures exactly that gap against the demand-driven engine.

use rq_automata::{thompson, Label, Nfa};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_datalog::Database;
use rq_relalg::Expr;

/// The preconstructed graph for one expression.
pub struct HuntGraph {
    nfa: Nfa,
    /// Adjacency: node → successors, over (state, const) nodes interned
    /// to dense ids.
    succ: Vec<Vec<u32>>,
    node_id: FxHashMap<(u32, Const), u32>,
    nodes: Vec<(u32, Const)>,
    /// Construction cost.
    pub build_counters: Counters,
}

impl HuntGraph {
    /// Preconstruct the graph of `e` over the whole database.  Every
    /// tuple of every occurrence of every argument relation becomes an
    /// arc; `id` transitions add an arc per active-domain constant.
    pub fn build(db: &Database, e: &Expr) -> Self {
        assert!(
            !matches!(e, Expr::Empty),
            "empty expression has an empty graph"
        );
        let nfa = thompson(e);
        let mut counters = Counters::new();
        let mut node_id: FxHashMap<(u32, Const), u32> = FxHashMap::default();
        let mut nodes: Vec<(u32, Const)> = Vec::new();
        let mut succ: Vec<Vec<u32>> = Vec::new();
        let intern = |n: (u32, Const),
                      nodes: &mut Vec<(u32, Const)>,
                      succ: &mut Vec<Vec<u32>>,
                      node_id: &mut FxHashMap<(u32, Const), u32>,
                      counters: &mut Counters| {
            *node_id.entry(n).or_insert_with(|| {
                counters.nodes_inserted += 1;
                nodes.push(n);
                succ.push(Vec::new());
                nodes.len() as u32 - 1
            })
        };
        // Active domain for id transitions.
        let mut domain: FxHashSet<Const> = FxHashSet::default();
        for pi in 0..db.num_preds() {
            for t in db.relation(Pred::from_index(pi)).iter() {
                domain.extend(t.iter().copied());
            }
        }
        for (q, row) in nfa.trans.iter().enumerate() {
            for &(label, to) in row {
                match label {
                    Label::Id => {
                        for &c in &domain {
                            let a = intern(
                                (q as u32, c),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            let b = intern(
                                (to as u32, c),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            succ[a as usize].push(b);
                            counters.rule_firings += 1;
                        }
                    }
                    Label::Sym(r) => {
                        for t in db.relation(r).iter() {
                            counters.tuples_retrieved += 1;
                            let a = intern(
                                (q as u32, t[0]),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            let b = intern(
                                (to as u32, t[1]),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            succ[a as usize].push(b);
                            counters.rule_firings += 1;
                        }
                    }
                    Label::Inv(r) => {
                        for t in db.relation(r).iter() {
                            counters.tuples_retrieved += 1;
                            let a = intern(
                                (q as u32, t[1]),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            let b = intern(
                                (to as u32, t[0]),
                                &mut nodes,
                                &mut succ,
                                &mut node_id,
                                &mut counters,
                            );
                            succ[a as usize].push(b);
                            counters.rule_firings += 1;
                        }
                    }
                }
            }
        }
        Self {
            nfa,
            succ,
            node_id,
            nodes,
            build_counters: counters,
        }
    }

    /// Number of nodes in the preconstructed graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Answer `p(a, Y)`: constants at final-state nodes reachable from
    /// `(q_s, a)`.  Charges per-query traversal costs to `counters`.
    pub fn query(&self, a: Const, counters: &mut Counters) -> FxHashSet<Const> {
        let mut answers = FxHashSet::default();
        let Some(&start) = self.node_id.get(&(self.nfa.starts[0] as u32, a)) else {
            return answers;
        };
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            counters.nodes_inserted += 1;
            let (state, c) = self.nodes[id as usize];
            if self.nfa.finals[state as usize] {
                answers.insert(c);
            }
            for &to in &self.succ[id as usize] {
                counters.rule_firings += 1;
                stack.push(to);
            }
        }
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::ConstValue;
    use rq_datalog::parse_program;
    use rq_engine::{EdbSource, EvalOptions, Evaluator};
    use rq_relalg::{lemma1, Lemma1Options};

    #[test]
    fn hunt_matches_engine_on_closure() {
        let src = "tc(X,Y) :- e(X,Y).\n\
                   tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                   e(a,b). e(b,c). e(c,d). e(x,y). e(y,z).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let graph = HuntGraph::build(&db, &sys.rhs[&tc]);
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let mut counters = Counters::new();
        let hunt_answers = graph.query(a, &mut counters);
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let engine = ev.evaluate(tc, a, &EvalOptions::default());
        assert_eq!(hunt_answers, engine.answers.into_iter().collect());
    }

    #[test]
    fn hunt_preconstruction_touches_everything() {
        // A big irrelevant component inflates the preconstructed graph
        // but not the demand-driven traversal.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b).\n");
        for i in 0..100 {
            src.push_str(&format!("e(u{}, u{}).\n", i, i + 1));
        }
        let program = parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let graph = HuntGraph::build(&db, &sys.rhs[&tc]);
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();

        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let engine = ev.evaluate(tc, a, &EvalOptions::default());
        // Hunt pays for all 101 edges twice (two occurrences of e in
        // e*·e); the engine touches only a's neighborhood.
        assert!(graph.build_counters.tuples_retrieved >= 202);
        assert!(engine.counters.tuples_retrieved <= 4);
        // Same answers regardless.
        let mut counters = Counters::new();
        assert_eq!(
            graph.query(a, &mut counters),
            engine.answers.into_iter().collect()
        );
    }

    #[test]
    fn hunt_query_for_unknown_constant_is_empty() {
        let program = parse_program("e(a,b).").unwrap();
        let db = Database::from_program(&program);
        let e = program.pred_by_name("e").unwrap();
        let graph = HuntGraph::build(&db, &Expr::star(Expr::Sym(e)));
        let mut counters = Counters::new();
        // b has no outgoing e edge, but (state, b) nodes exist; query an
        // entirely absent constant.
        let ghost = Const(9999);
        assert!(graph.query(ghost, &mut counters).is_empty());
    }
}
