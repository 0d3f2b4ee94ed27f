//! Shared helpers for the benchmark harness: one uniform way to run
//! every strategy on a [`Workload`] and collect its unit-cost counters.
//!
//! The experiment-to-code map lives in `DESIGN.md`; the measured results
//! and their comparison with the paper in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rq_baselines::{counting, henschen_naqvi, magic_sets, reverse_counting};
use rq_common::{Const, ConstValue, Counters, Pred};
use rq_datalog::{Database, Program, Query};
use rq_engine::{EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, EqSystem, Lemma1Options};
use rq_workloads::Workload;

/// A workload prepared for repeated strategy runs.
pub struct Prepared {
    /// The program.
    pub program: Program,
    /// Its extensional database.
    pub db: Database,
    /// The Lemma 1 equation system.
    pub system: EqSystem,
    /// The queried (derived) predicate.
    pub pred: Pred,
    /// The query's bound constant (first argument).
    pub source_const: Const,
    /// The query text.
    pub query: String,
}

/// Prepare a workload whose query has the form `p(a, Y)`.
pub fn prepare(w: &Workload) -> Prepared {
    let program = w.program.clone();
    let db = Database::from_program(&program);
    let system = lemma1(&program, &Lemma1Options::default())
        .expect("workload programs are binary-chain")
        .system;
    let query_pred_name = w.query.split('(').next().unwrap().trim();
    let pred = program.pred_by_name(query_pred_name).unwrap();
    let src_name = w
        .query
        .split('(')
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .trim();
    let source_const = program
        .consts
        .get(&ConstValue::Str(src_name.into()))
        .or_else(|| {
            src_name
                .parse::<i64>()
                .ok()
                .and_then(|i| program.consts.get(&ConstValue::Int(i)))
        })
        .expect("query constant is interned");
    Prepared {
        program,
        db,
        system,
        pred,
        source_const,
        query: w.query.clone(),
    }
}

/// Strategies comparable on `p(a, Y)` binary-chain workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The paper's graph-traversal engine.
    Ours,
    /// Henschen–Naqvi.
    HenschenNaqvi,
    /// Magic sets + seminaive.
    MagicSets,
    /// The counting method.
    Counting,
    /// The reverse-counting method.
    ReverseCounting,
    /// Plain seminaive bottom-up (no binding propagation).
    Seminaive,
}

impl StrategyKind {
    /// All strategies, in the §3 table's column order.
    pub const TABLE1: [StrategyKind; 5] = [
        StrategyKind::HenschenNaqvi,
        StrategyKind::MagicSets,
        StrategyKind::Counting,
        StrategyKind::ReverseCounting,
        StrategyKind::Ours,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Ours => "ours",
            StrategyKind::HenschenNaqvi => "HN",
            StrategyKind::MagicSets => "magic",
            StrategyKind::Counting => "counting",
            StrategyKind::ReverseCounting => "rev-count",
            StrategyKind::Seminaive => "seminaive",
        }
    }
}

/// Run one strategy; returns `(answer count, counters)`.  `max_levels`
/// bounds iteration for cyclic data.
pub fn run_strategy(
    p: &Prepared,
    strategy: StrategyKind,
    max_levels: Option<u64>,
) -> (usize, Counters) {
    match strategy {
        StrategyKind::Ours => {
            let source = EdbSource::new(&p.db);
            let ev = Evaluator::new(&p.system, &source);
            let out = ev.evaluate(
                p.pred,
                p.source_const,
                &EvalOptions {
                    max_iterations: max_levels,
                    ..EvalOptions::default()
                },
            );
            (out.answers.len(), out.counters)
        }
        StrategyKind::HenschenNaqvi => {
            let out = henschen_naqvi(&p.system, &p.db, p.pred, p.source_const, max_levels);
            (out.answers.len(), out.counters)
        }
        StrategyKind::Counting => {
            let out = counting(&p.system, &p.db, p.pred, p.source_const, max_levels);
            (out.answers.len(), out.counters)
        }
        StrategyKind::ReverseCounting => {
            let out = reverse_counting(&p.system, &p.db, p.pred, p.source_const, max_levels);
            (out.answers.len(), out.counters)
        }
        StrategyKind::MagicSets => {
            let mut program = p.program.clone();
            let q = Query::parse(&mut program, &p.query).unwrap();
            let out = magic_sets(&program, &q).unwrap();
            (out.rows.len(), out.counters)
        }
        StrategyKind::Seminaive => {
            let res = rq_datalog::seminaive_eval(&p.program).unwrap();
            let count = res
                .db
                .relation(p.pred)
                .iter()
                .filter(|t| t[0] == p.source_const)
                .count();
            (count, res.counters)
        }
    }
}

/// Least-squares slope of log(y) on log(x) — the growth exponent.
pub fn loglog_slope(points: &[(usize, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let lx = (x as f64).ln();
        let ly = y.max(1.0).ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_workloads::fig7;

    #[test]
    fn all_table1_strategies_run_and_agree() {
        let p = prepare(&fig7::sample_c(12));
        let (base_count, _) = run_strategy(&p, StrategyKind::Ours, None);
        for s in StrategyKind::TABLE1 {
            let (count, counters) = run_strategy(&p, s, None);
            assert_eq!(count, base_count, "{}", s.label());
            assert!(counters.total_work() > 0, "{}", s.label());
        }
    }

    #[test]
    fn slope_helper_fits_powers() {
        let lin: Vec<(usize, f64)> = vec![(10, 30.0), (20, 60.0), (40, 120.0)];
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
        let quad: Vec<(usize, f64)> = vec![(10, 100.0), (20, 400.0), (40, 1600.0)];
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
    }
}
