//! §4 end-to-end acceptance: n-ary queries served through the
//! generalized `QuerySpec` pipeline must agree with the QSQ and
//! magic-sets baselines (two entirely independent top-down/bottom-up
//! evaluators over the *original* n-ary program) and with the
//! seminaive oracle, across the flights workload and random n-ary
//! linear programs.

use rq_baselines::{magic_sets, qsq};
use rq_common::Const;
use rq_datalog::{Program, Query};
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
        let service = QueryService::with_config(
            workload.program.clone(),
            ServiceConfig {
                threads: 4,
                ..ServiceConfig::default()
            },
        );
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

#[test]
fn random_nary_programs_match_baselines() {
    for seed in 0..8 {
        let np = random_nary_program(&NaryConfig {
            seed,
            ..NaryConfig::default()
        });
        let service = QueryService::with_config(
            np.program.clone(),
            ServiceConfig {
                threads: 2,
                ..ServiceConfig::default()
            },
        );
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
