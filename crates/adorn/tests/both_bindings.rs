//! §3 ends by noting that for queries `p(a, b)` "the bindings of the
//! second argument cannot be utilized in the algorithm … However, if we
//! apply to the program the transformation to be presented in the next
//! section, then we can make use of the bindings of both arguments in
//! the evaluation."  These tests pin that claim: the §4 pipeline with a
//! `bb` adornment answers correctly *and* consults fewer facts than the
//! §3 evaluate-then-test-membership fallback when the second binding is
//! selective.

use rq_adorn::Adornment;
use rq_common::{Counters, Rows};
use rq_datalog::{parse_program, seminaive_eval, Database, Program, Query, QueryArg};
use rq_engine::{EdbSource, EvalOptions, EvalOutcome, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};

const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                  sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n";

/// An up chain of depth d from `a`, a flat edge at the top, and a wide
/// down tree: every level multiplies by `width`, but only one leaf is
/// the queried `b`.
fn deep_sg_with_wide_down(depth: usize, width: usize) -> (String, String) {
    let mut facts = String::new();
    for i in 0..depth {
        facts.push_str(&format!("up(a{i}, a{}).\n", i + 1));
    }
    facts.push_str(&format!("flat(a{depth}, d).\n"));
    // Down tree rooted at d with `depth` levels of fan-out `width`.
    let mut frontier = vec!["d".to_string()];
    let mut counter = 0usize;
    for _ in 0..depth {
        let mut next = Vec::new();
        for node in &frontier {
            for _ in 0..width {
                let child = format!("w{counter}");
                counter += 1;
                facts.push_str(&format!("down({node}, {child}).\n"));
                next.push(child);
            }
        }
        frontier = next;
    }
    // The queried constant is the *first* leaf.
    let b = frontier[0].clone();
    (facts, b)
}

fn oracle_holds(program: &Program, x: &str, y: &str) -> bool {
    let result = seminaive_eval(program).unwrap();
    let sg = program.pred_by_name("sg").unwrap();
    let to_name = |c: rq_common::Const| program.consts.display(c);
    result
        .tuples(sg)
        .iter()
        .any(|t| to_name(t[0]) == x && to_name(t[1]) == y)
}

/// §3's bb fallback: evaluate `sg(a, Y)` and test membership.
fn section3_bb(program: &Program, qtext: &str) -> (bool, Counters) {
    let mut p = program.clone();
    let query = Query::parse(&mut p, qtext).unwrap();
    let (QueryArg::Bound(a), QueryArg::Bound(b)) = (query.args[0], query.args[1]) else {
        panic!("bb query expected");
    };
    let db = Database::from_program(&p);
    let sys = lemma1(&p, &Lemma1Options::default()).unwrap().system;
    let source = EdbSource::new(&db);
    let ev = Evaluator::new(&sys, &source);
    let (holds, out) = rq_engine::query_bb(&ev, query.pred, a, b, &EvalOptions::default());
    (holds, out.counters)
}

/// §4 with both bindings.
fn section4_bb(program: &Program, qtext: &str) -> (bool, Counters) {
    let mut p = program.clone();
    let query = Query::parse(&mut p, qtext).unwrap();
    let (rows, outcome) = section4(&p, &query, &EvalOptions::default());
    // A bb query has no free positions: one empty row means "yes".
    (!rows.is_empty(), outcome.counters)
}

/// Plan and evaluate `query` cold through the §4 pipeline.
fn section4(p: &Program, query: &Query, options: &EvalOptions) -> (Rows, EvalOutcome) {
    let plan = rq_adorn::plan_nary_query(p, query.pred, Adornment::of_query(query))
        .unwrap_or_else(|e| panic!("§4 failed to plan: {e}"));
    let db = Database::from_program(p);
    rq_adorn::evaluate_nary(p, &db, &plan, &query.bound_values(), options)
}

#[test]
fn section4_bb_answers_match_oracle() {
    let (facts, b) = deep_sg_with_wide_down(3, 2);
    let program = parse_program(&format!("{SG}{facts}")).unwrap();
    let positive = format!("sg(a0, {b})");
    assert!(oracle_holds(&program, "a0", &b));
    let (got, _) = section4_bb(&program, &positive);
    assert!(got, "bb query should hold");
    // Negative: a constant on the up chain is not same-generation-0.
    let (got, _) = section4_bb(&program, "sg(a0, a1)");
    assert!(!got);
    assert!(!oracle_holds(&program, "a0", "a1"));
}

#[test]
fn section4_bb_agrees_with_section3_bb_everywhere() {
    let (facts, b) = deep_sg_with_wide_down(3, 2);
    let program = parse_program(&format!("{SG}{facts}")).unwrap();
    for y in ["d", "w0", "w5", &b, "a1"] {
        let q = format!("sg(a0, {y})");
        let (s3, _) = section3_bb(&program, &q);
        let (s4, _) = section4_bb(&program, &q);
        assert_eq!(s3, s4, "disagreement on {q}");
        assert_eq!(s3, oracle_holds(&program, "a0", y), "oracle on {q}");
    }
}

#[test]
fn second_binding_restricts_facts_consulted() {
    // Width 3, depth 5: the down tree has 3^5 = 243 leaves.  §3 must
    // fan out over all of them; §4's bb adornment walks backwards from
    // the single queried leaf.
    let (facts, b) = deep_sg_with_wide_down(5, 3);
    let program = parse_program(&format!("{SG}{facts}")).unwrap();
    let q = format!("sg(a0, {b})");
    let (yes3, c3) = section3_bb(&program, &q);
    let (yes4, c4) = section4_bb(&program, &q);
    assert!(yes3 && yes4);
    assert!(
        c4.tuples_retrieved * 4 < c3.tuples_retrieved,
        "§4 bb {} !≪ §3 bb {}",
        c4.tuples_retrieved,
        c3.tuples_retrieved
    );
}

#[test]
fn bb_on_cyclic_up_terminates_via_section4() {
    // Both arguments bound with a cyclic up relation: §4's bb machine
    // is driven by both frontiers, and the virtual relation runs out of
    // new pairs, so the traversal converges naturally.
    let src = format!(
        "{SG}\
         up(a0,a1). up(a1,a0). flat(a0,b0). flat(a1,b1).\n\
         down(b0,b1). down(b1,b0)."
    );
    let program = parse_program(&src).unwrap();
    let mut p = program.clone();
    let query = Query::parse(&mut p, "sg(a0, b0)").unwrap();
    let options = EvalOptions {
        max_iterations: Some(64),
        ..EvalOptions::default()
    };
    let (rows, _) = section4(&p, &query, &options);
    let holds = !rows.is_empty();
    assert_eq!(holds, oracle_holds(&program, "a0", "b0"));
}
