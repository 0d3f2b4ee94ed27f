//! §4 end-to-end acceptance: n-ary queries served through the
//! generalized `QuerySpec` pipeline must agree with the QSQ and
//! magic-sets baselines (a top-down and a bottom-up evaluator over the
//! *original* n-ary program) and with the seminaive oracle, across the
//! flights workload and random n-ary linear programs.  The two
//! baselines are independent of the traversal but not of the §4
//! rewrite: both take their binding patterns from `rq_adorn::adorn`,
//! the adornment pass the served plans use, so an adornment that is
//! too weak (still correct, but demanding more than sideways passing
//! does) goes unnoticed here; the seminaive oracle shares no part of
//! the pipeline and catches wrong answers only.

use rq_adorn::VirtualSource;
use rq_baselines::{magic_sets, qsq};
use rq_common::{Const, Counters};
use rq_datalog::{Program, Query};
use rq_engine::TupleSource;
use rq_service::{QueryService, QuerySpec, ServiceConfig, ServiceError};
use rq_workloads::flights;
use rq_workloads::randprog::{random_nary_program, NaryConfig};

/// Answer `query_text` through both baselines and asserts they agree;
/// returns the rows.
fn baseline_rows(program: &Program, query_text: &str) -> Vec<Vec<Const>> {
    let mut p = program.clone();
    let query = Query::parse(&mut p, query_text).expect("query parses");
    let q = qsq(&p, &query).expect("qsq accepts the program");
    let m = magic_sets(&p, &query).expect("magic sets accepts the program");
    let mut magic_rows = m.rows;
    magic_rows.sort();
    magic_rows.dedup();
    assert_eq!(q.rows, magic_rows, "qsq != magic for `{query_text}`");
    q.rows
}

/// Serve `query_text` and diff against both baselines.  Queries over
/// constants absent from the data are semantically empty.
fn check_query(service: &QueryService, query_text: &str) {
    let program = service.snapshot().program().clone();
    let expected = baseline_rows(&program, query_text);
    match service.parse_query(query_text) {
        Ok(spec) => {
            let answer = service.query(&spec).expect("service answers");
            assert!(answer.converged, "acyclic data must converge");
            assert_eq!(
                answer.rows.to_vecs(),
                expected,
                "service != baselines for `{query_text}`"
            );
        }
        Err(ServiceError::UnknownConstant(_)) => {
            assert!(
                expected.is_empty(),
                "`{query_text}`: unknown constant but baselines found rows"
            );
        }
        Err(e) => panic!("`{query_text}`: {e}"),
    }
}

#[test]
fn paper_flights_database_matches_baselines_end_to_end() {
    let workload = flights::paper_example();
    let service = QueryService::new(workload.program.clone());
    // The §4 walkthrough query, every airport/deptime anchor, both
    // fully bound forms, and the all-free form.
    check_query(&service, &workload.query);
    for q in [
        "cnx(ams, 720, D, AT)",
        "cnx(ams, 660, D, AT)",
        "cnx(cdg, 840, D, AT)",
        "cnx(hel, 540, nce, 930)",
        "cnx(hel, 540, nce, 750)",
        "cnx(S, DT, D, AT)",
        "cnx(S, DT, nce, 930)",
    ] {
        check_query(&service, q);
    }
    // The paper's walkthrough has exactly three connections from
    // hel@540.
    let spec = service.parse_query(&workload.query).unwrap();
    assert_eq!(
        service.query(&spec).unwrap().rows.len(),
        workload.expected_answers.unwrap()
    );
}

#[test]
fn generated_flight_networks_match_baselines_through_batches() {
    for (airports, per, seed) in [(4, 2, 7), (6, 3, 11)] {
        let workload = flights::network(airports, per, seed);
        let service = QueryService::with_config(workload.program.clone(), ServiceConfig::default());
        // The serving workload: every (airport, deptime) anchor, as one
        // deduped batch.
        let texts = flights::serve_queries(airports, per);
        let specs: Vec<QuerySpec> = texts
            .iter()
            .map(|t| service.parse_query(t).expect("generated anchors exist"))
            .collect();
        let program = service.snapshot().program().clone();
        for (text, result) in texts.iter().zip(service.query_batch(&specs)) {
            let answer = result.expect("service answers");
            assert_eq!(
                answer.rows.to_vecs(),
                baseline_rows(&program, text),
                "flights(a={airports},f={per},seed={seed}): `{text}`"
            );
        }
        // Plans were shared: one §4 plan per binding pattern, not per
        // query.
        assert_eq!(service.plan_cache().nary_plans(), 1);
    }
}

/// Each §4 defining join runs once per epoch: a single-threaded sweep of
/// every (airport, departure) anchor of a 300-airport network pays one
/// join per distinct probe key (`misses == entries`), answers every
/// other virtual probe from the memo, and matches the oracle.
#[test]
fn flight_sweep_runs_each_defining_join_once_per_epoch() {
    let (airports, per) = (300, 4);
    let workload = flights::network(airports, per, 42);
    let service = QueryService::with_config(workload.program.clone(), ServiceConfig::default());
    let texts = flights::serve_queries(airports, per);
    let specs: Vec<QuerySpec> = texts
        .iter()
        .map(|t| service.parse_query(t).expect("generated anchors exist"))
        .collect();
    let snapshot = service.snapshot();
    let mut program = snapshot.program().clone();
    let cnx = program.pred_by_name("cnx").unwrap();
    let fixpoint = rq_datalog::seminaive_eval(&program).expect("safe program");
    let truth: Vec<Vec<Const>> = fixpoint
        .db
        .relation(cnx)
        .iter()
        .map(<[Const]>::to_vec)
        .collect();
    let mut sweep = Counters::default();
    for (text, result) in texts.iter().zip(service.query_batch(&specs)) {
        let answer = result.expect("service answers");
        let query = Query::parse(&mut program, text).unwrap();
        assert_eq!(
            answer.rows.to_vecs(),
            query.answer_from_relation(&truth),
            "`{text}`"
        );
        sweep += answer.counters;
    }
    let adornment = specs[0].adornment();
    let stats = snapshot
        .context()
        .peek_probe_space(cnx, adornment)
        .expect("the sweep built the plan's probe space")
        .stats();
    assert_eq!(stats.misses as usize, stats.entries, "{stats:?}");

    // Every anchor is a key of every virtual relation.  Probing each key
    // once, cold, is what the sweep's joins should have cost in total;
    // every other probe it counted must be a memo hit.
    let plan = rq_adorn::plan_nary_query(&program, cnx, adornment).unwrap();
    let cold = VirtualSource::new(&program, snapshot.db(), &plan.binary);
    let (mut once, mut buf) = (Counters::default(), Vec::new());
    for spec in &specs {
        let key = cold.intern_tuple(spec.bound_values());
        for &r in plan.binary.virtuals.keys() {
            cold.successors(r, key, &mut buf, &mut once);
        }
    }
    assert_eq!(
        stats.entries,
        specs.len() * plan.binary.virtuals.len(),
        "{stats:?}"
    );
    assert_eq!(sweep.tuples_retrieved, once.tuples_retrieved);
    assert_eq!(sweep.index_probes, stats.hits + once.index_probes);
    assert!(stats.hits > 0, "{stats:?}");
}

#[test]
fn random_nary_programs_match_baselines() {
    for seed in 0..8 {
        let np = random_nary_program(&NaryConfig {
            seed,
            ..NaryConfig::default()
        });
        let service = QueryService::with_config(np.program.clone(), ServiceConfig::default());
        for q in &np.queries {
            check_query(&service, q);
        }
    }
}

/// The diagonal property: a repeated-variable query equals the
/// distinct-variable answer filtered on equality and projected — for
/// binary diagonals and their n-ary generalizations alike.
#[test]
fn diagonal_equals_filtered_all_answers() {
    // Binary: tc(X, X) vs tc(X, Y).
    let service = QueryService::from_source(
        "tc(X,Y) :- e(X,Y).\n\
         tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
         e(a,b). e(b,a). e(b,c). e(c,c).",
    )
    .unwrap();
    let all = service
        .query(&service.parse_query("tc(X, Y)").unwrap())
        .unwrap();
    let diag = service
        .query(&service.parse_query("tc(X, X)").unwrap())
        .unwrap();
    let mut filtered: Vec<Vec<Const>> = all
        .rows
        .iter()
        .filter(|r| r[0] == r[1])
        .map(|r| vec![r[0]])
        .collect();
    filtered.sort();
    filtered.dedup();
    assert_eq!(diag.rows.to_vecs(), filtered);
    assert!(!diag.rows.is_empty(), "cycles put members on the diagonal");

    // n-ary: random graded programs, q(A, A, G) vs q(A, B, G).
    for seed in 0..4 {
        let np = random_nary_program(&NaryConfig {
            seed,
            // Allow same-node pairs to exist via two-step paths.
            domain: 6,
            facts_per_base: 20,
            ..NaryConfig::default()
        });
        let service = QueryService::new(np.program.clone());
        for head in &np.derived {
            let all = service
                .query(&service.parse_query(&format!("{head}(A, B, G)")).unwrap())
                .unwrap();
            let diag = service
                .query(&service.parse_query(&format!("{head}(A, A, G)")).unwrap())
                .unwrap();
            let mut filtered: Vec<Vec<Const>> = all
                .rows
                .iter()
                .filter(|r| r[0] == r[1])
                .map(|r| vec![r[0], r[2]])
                .collect();
            filtered.sort();
            filtered.dedup();
            assert_eq!(
                diag.rows.to_vecs(),
                filtered,
                "seed {seed} {head}: diagonal != filtered all-answers"
            );
        }
    }
}
