//! End-to-end evaluation of n-ary queries through the §4 pipeline:
//! adorn → chain check → binary-chain transformation → Lemma 1 →
//! graph-traversal evaluation over the virtual relations.
//!
//! The pipeline is split at the planning boundary: [`plan_nary_query`]
//! runs everything that depends only on the rules and the query's
//! *binding pattern* (adornment, transformation, equation rewriting,
//! machine compilation) and returns a reusable [`NaryPlan`];
//! [`evaluate_nary`] runs one plan against one database and one bound
//! tuple.  Serving layers cache plans per `(rules, predicate,
//! adornment)` and pay only the traversal per query; there is no
//! second, one-shot route — `rq-service` is the caller that turns a
//! query text into a plan key and a bound tuple.

use crate::adornment::{adorn_for, chain_violations, AdornError, Adornment};
use crate::source::{ProbeSpace, VirtualSource};
use crate::transform::{transform, BinaryProgram};
use rq_common::{Const, FxHashSet, Pred, Rows};
use rq_datalog::{Database, Program, Query};
use rq_engine::{CompiledPlan, EvalContext, EvalOptions, EvalOutcome, Evaluator};
use rq_relalg::{lemma1_from_system, Lemma1Error, Lemma1Options};
use std::fmt;

/// Why an n-ary query could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Adornment failed.
    Adorn(AdornError),
    /// The adorned program is not a chain program (Lemma 6's condition);
    /// the offending rule indices are attached.  Evaluating anyway (see
    /// [`plan_nary_query_unchecked`]) may produce a strict superset of
    /// the answer (Lemma 5).
    NotChain(Vec<usize>),
    /// Equation rewriting failed.
    Lemma1(Lemma1Error),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Adorn(e) => write!(f, "adornment failed: {e}"),
            QueryError::NotChain(rules) => {
                write!(f, "not a chain program (rules {rules:?})")
            }
            QueryError::Lemma1(e) => write!(f, "equation transformation failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<AdornError> for QueryError {
    fn from(e: AdornError) -> Self {
        QueryError::Adorn(e)
    }
}

impl From<Lemma1Error> for QueryError {
    fn from(e: Lemma1Error) -> Self {
        QueryError::Lemma1(e)
    }
}

/// A compiled §4 query plan: everything derivable from the rules and
/// the binding pattern alone, reusable across databases and bound
/// values.
pub struct NaryPlan {
    /// The queried predicate.
    pub pred: Pred,
    /// The binding pattern the plan was compiled for.
    pub adornment: Adornment,
    /// The transformed binary program (after Lemma 1 rewriting).
    pub binary: BinaryProgram,
    /// The served (ε-free position) machines for the transformed
    /// equation system, both orientations — immutable and `Sync`, so
    /// one compile serves concurrent query threads.
    pub compiled: CompiledPlan,
}

impl NaryPlan {
    /// Every real predicate a query under this plan can consult — the
    /// invalidation footprint (virtual predicates resolved back to the
    /// base relations their joins read).
    pub fn read_set(&self, program: &Program) -> FxHashSet<Pred> {
        self.binary.base_read_set(program)
    }
}

/// Compile the §4 pipeline for `(pred, adornment)`, rejecting programs
/// that fail the chain condition.
pub fn plan_nary_query(
    program: &Program,
    pred: Pred,
    adornment: Adornment,
) -> Result<NaryPlan, QueryError> {
    plan_nary_inner(program, pred, adornment, true)
}

/// Like [`plan_nary_query`] but skipping the chain check.  For
/// non-chain programs the transformed program may compute a *superset*
/// of the true answer (Lemma 5 guarantees containment in one direction
/// only) — this entry point exists to demonstrate exactly that failure
/// mode.
pub fn plan_nary_query_unchecked(
    program: &Program,
    pred: Pred,
    adornment: Adornment,
) -> Result<NaryPlan, QueryError> {
    plan_nary_inner(program, pred, adornment, false)
}

fn plan_nary_inner(
    program: &Program,
    pred: Pred,
    adornment: Adornment,
    check_chain: bool,
) -> Result<NaryPlan, QueryError> {
    let adorned = adorn_for(program, pred, adornment)?;
    if check_chain {
        let violations = chain_violations(program, &adorned);
        if !violations.is_empty() {
            return Err(QueryError::NotChain(violations));
        }
    }
    let mut binary = transform(program, &adorned);
    // Lemma 1 over the bin equations (e.g. the flight program's
    // bin-cnx = base ∪ in·bin-cnx becomes the regular in*·base).
    let simplified = lemma1_from_system(binary.system.clone(), &Lemma1Options::default())?;
    binary.system = simplified.system;
    let compiled = CompiledPlan::compile(&binary.system);
    Ok(NaryPlan {
        pred,
        adornment,
        binary,
        compiled,
    })
}

/// Run one compiled plan against one database: anchor the traversal at
/// the tuple of bound constants (ascending position order; `t()` when
/// nothing is bound), run the transformed machine, and decode the
/// answer tuple constants back to (flat, sorted) rows over the free
/// positions.
pub fn evaluate_nary(
    program: &Program,
    db: &Database,
    plan: &NaryPlan,
    bound: &[Const],
    options: &EvalOptions,
) -> (Rows, EvalOutcome) {
    evaluate_nary_shared(
        program,
        db,
        plan,
        bound,
        options,
        &ProbeSpace::new(program),
        None,
    )
}

/// [`evaluate_nary`] with the epoch-scoped sharing hooks: `space` is
/// the tuple interner + virtual-probe memo shared by every query of
/// one snapshot epoch against this plan, and `ctx` the engine's
/// machine-traversal memo for the same epoch.  Both must only ever be
/// shared between evaluations over the same database version; a
/// serving layer keys them per epoch and drops them wholesale on
/// publish.
pub fn evaluate_nary_shared(
    program: &Program,
    db: &Database,
    plan: &NaryPlan,
    bound: &[Const],
    options: &EvalOptions,
    space: &ProbeSpace,
    ctx: Option<&EvalContext>,
) -> (Rows, EvalOutcome) {
    debug_assert_eq!(bound.len(), plan.adornment.bound_positions().len());
    let source = VirtualSource::with_space(program, db, &plan.binary, space);
    let mut evaluator = Evaluator::with_plan(&plan.binary.system, &plan.compiled, &source);
    if let Some(ctx) = ctx {
        evaluator = evaluator.with_context(ctx);
    }
    let anchor = source.intern_tuple(bound.to_vec());
    let mut options = options.clone();
    if plan.adornment.free_positions().is_empty() && options.stop_on_answer.is_none() {
        // Fully bound query: the only possible answer is the empty
        // tuple, so stop the moment membership is established.
        options.stop_on_answer = Some(source.intern_tuple(Vec::new()));
    }
    let outcome = evaluator.evaluate(plan.binary.query_bin, anchor, &options);
    let width = plan.adornment.free_positions().len();
    let rows = source.decode_rows(width, outcome.answers.iter().copied());
    (rows, outcome)
}

/// Oracle comparison helper: the answer rows a bottom-up evaluation
/// produces for the same query.
pub fn oracle_rows(program: &Program, query: &Query) -> Vec<Vec<Const>> {
    let res = rq_datalog::seminaive_eval(program).expect("safe program");
    let tuples: Vec<Vec<Const>> = res
        .db
        .relation(query.pred)
        .iter()
        .map(|t| t.to_vec())
        .collect();
    query.answer_from_relation(&tuples)
}

/// Count the base-relation tuples a full bottom-up evaluation consults,
/// for the binding-restriction comparison (experiment E10).
pub fn bottom_up_counters(program: &Program) -> rq_common::Counters {
    rq_datalog::seminaive_eval(program)
        .expect("safe program")
        .counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::FxHashSet;
    use rq_datalog::parse_program;

    /// One evaluated query: nested rows (to compare with the oracle's)
    /// and the traversal outcome.
    struct Answer {
        rows: Vec<Vec<Const>>,
        outcome: EvalOutcome,
    }

    /// Plan (with or without the chain check) and evaluate `q` cold.
    fn answer(program: &Program, q: &Query, check_chain: bool) -> Result<Answer, QueryError> {
        let plan = if check_chain {
            plan_nary_query(program, q.pred, Adornment::of_query(q))?
        } else {
            plan_nary_query_unchecked(program, q.pred, Adornment::of_query(q))?
        };
        let db = Database::from_program(program);
        let (rows, outcome) = evaluate_nary(
            program,
            &db,
            &plan,
            &q.bound_values(),
            &EvalOptions::default(),
        );
        Ok(Answer {
            rows: rows.to_vecs(),
            outcome,
        })
    }

    fn run(src: &str, query: &str) -> (Program, Answer, Vec<Vec<Const>>) {
        let mut program = parse_program(src).unwrap();
        let q = Query::parse(&mut program, query).unwrap();
        let ans = answer(&program, &q, true).unwrap();
        let oracle = oracle_rows(&program, &q);
        (program, ans, oracle)
    }

    const FLIGHTS: &str = "\
cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
flight(hel,900,ams,1130).\n\
flight(ams,1200,cdg,1330).\n\
flight(ams,1100,cdg,1230).\n\
flight(cdg,1400,nce,1530).\n\
flight(osl,800,hel,930).\n\
is_deptime(900). is_deptime(1200). is_deptime(1100). is_deptime(1400). is_deptime(800).";

    #[test]
    fn flight_query_matches_oracle() {
        let (_, ans, oracle) = run(FLIGHTS, "cnx(hel, 900, D, AT)");
        assert_eq!(ans.rows, oracle);
        assert!(ans.outcome.converged);
        // hel@900 → ams@1130; ams@1200 → cdg@1330; cdg@1400 → nce@1530.
        assert_eq!(ans.rows.len(), 3);
    }

    #[test]
    fn flight_bindings_restrict_facts_consulted() {
        // The nce-anchored tail of the network is irrelevant for a
        // query from cdg; the demand-driven evaluation must touch fewer
        // tuples than the full bottom-up fixpoint.
        let (_, ans, oracle) = run(FLIGHTS, "cnx(cdg, 1400, D, AT)");
        assert_eq!(ans.rows, oracle);
        assert_eq!(ans.rows.len(), 1);
        let program = parse_program(FLIGHTS).unwrap();
        let bottom_up = bottom_up_counters(&program);
        assert!(
            ans.outcome.counters.tuples_retrieved < bottom_up.tuples_retrieved,
            "demand {} !< bottom-up {}",
            ans.outcome.counters.tuples_retrieved,
            bottom_up.tuples_retrieved
        );
    }

    #[test]
    fn naughton_query_matches_oracle() {
        let (_, ans, oracle) = run(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(m1,n1). b0(m2,n2). b0(m3,n3).\n\
             b1(a,n2). b1(m2,n3). b1(m1,n1). b1(m3,n1).",
            "p(a, Y)",
        );
        assert_eq!(ans.rows, oracle);
        assert!(!ans.rows.is_empty());
    }

    #[test]
    fn same_generation_through_section4() {
        let (_, ans, oracle) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
             down(b2,b1). down(b1,b).",
            "sg(a, Y)",
        );
        assert_eq!(ans.rows, oracle);
        assert_eq!(ans.rows.len(), 2); // {b, z}
    }

    #[test]
    fn second_argument_bound_via_section4() {
        // §3 cannot use a second-argument binding; §4 can (adornment fb).
        let (_, ans, oracle) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
             down(b2,b1). down(b1,b).",
            "sg(X, b)",
        );
        assert_eq!(ans.rows, oracle);
        assert_eq!(ans.rows.len(), 1); // {a}
    }

    #[test]
    fn both_arguments_bound() {
        let (_, ans, oracle) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). flat(a1,b1). down(b1,b).",
            "sg(a, b)",
        );
        assert_eq!(ans.rows, oracle);
        // Both bound: one empty row means "yes".
        assert_eq!(ans.rows, vec![Vec::<Const>::new()]);
    }

    #[test]
    fn all_free_query() {
        let (_, ans, oracle) = run(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c).",
            "tc(X, Y)",
        );
        assert_eq!(ans.rows, oracle);
        assert_eq!(ans.rows.len(), 3);
    }

    #[test]
    fn non_chain_rejected_and_overapproximates_unchecked() {
        // §4's counterexample: with bl(a,b), b0(b,c) the correct answer
        // to p(a,Y) is {b}; the transformed program yields every domain
        // element (Lemma 5's containment is strict here).
        let mut program = parse_program(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Y), p(Y,Z).\n\
             b1(a,b). b0(b,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        let err = answer(&program, &q, true).err().expect("chain check");
        assert!(matches!(err, QueryError::NotChain(_)));

        let forced = answer(&program, &q, false).unwrap();
        let oracle = oracle_rows(&program, &q);
        // Correct answer: {b}.
        assert_eq!(oracle.len(), 1);
        // The forced transformation overapproximates: a superset
        // containing every domain element (a, b, c).
        let got: FxHashSet<&Vec<Const>> = forced.rows.iter().collect();
        for row in &oracle {
            assert!(got.contains(row), "Lemma 5: answers must be contained");
        }
        assert_eq!(forced.rows.len(), 3, "all domain elements appear");
    }

    #[test]
    fn list_append_three_ary() {
        // A 3-ary chain-programmable recursion: app(Xs, Y, Zs) over
        // successor-encoded lists: app(nil,Y,cons(Y))-style flattened to
        // EDB facts.  Here we use a simple graded relation:
        // path3(A, B, N): B reachable from A in N steps (N as unary-ish
        // constants with a succ relation).
        let (_, ans, oracle) = run(
            "path3(A,B,N) :- edge(A,B), one(N).\n\
             path3(A,B,N) :- edge(A,C), succ(M,N), path3(C,B,M).\n\
             edge(x,y). edge(y,z). edge(z,w).\n\
             one(n1). succ(n1,n2). succ(n2,n3).",
            "path3(x, B, N)",
        );
        assert_eq!(ans.rows, oracle);
        // x→y (1), x→z (2), x→w (3).
        assert_eq!(ans.rows.len(), 3);
    }
}
