//! Acceptance tests for the service: every answer the concurrent,
//! cached pipeline produces must be **byte-identical** (same sorted
//! row vector) to what the single-threaded `rq_engine::Evaluator`
//! produces on the same snapshot — across the `rq-workloads` scenarios
//! and under concurrent ingestion.  The seminaive bottom-up oracle
//! cross-checks converged answers through a completely different code
//! path.

use rq_common::Const;
use rq_datalog::seminaive_eval;
use rq_engine::{cyclic_iteration_bound, EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_service::{QueryService, QuerySpec, ServiceAnswer, ServiceConfig, ServiceError, Snapshot};
use rq_workloads::randprog::{seeded, RecursionStyle};
use rq_workloads::{fig7, fig8, graphs, Workload};
use std::sync::Arc;

/// Every constant interned by the program — the query surface.
fn all_constants(snapshot: &Snapshot) -> Vec<Const> {
    (0..snapshot.program().consts.len())
        .map(Const::from_index)
        .collect()
}

/// Both binary point forms for every constant of the snapshot.
fn point_specs(snapshot: &Snapshot, pred: rq_common::Pred) -> Vec<QuerySpec> {
    all_constants(snapshot)
        .into_iter()
        .flat_map(|constant| {
            [
                QuerySpec::bound_free(pred, constant),
                QuerySpec::free_bound(pred, constant),
            ]
        })
        .collect()
}

/// A fresh Lemma 1 compile, independent of the service's plan cache.
fn oracle_system(snapshot: &Snapshot) -> rq_relalg::EqSystem {
    lemma1(snapshot.program(), &Lemma1Options::default())
        .expect("workload programs are binary-chain")
        .system
}

/// The single-threaded oracle: a fresh `Evaluator` run on `snapshot`,
/// with the same cyclic guard the service applies.  (`system` is
/// hoisted by callers because rules — and so the system — never change
/// across epochs.)
fn oracle_rows(
    system: &rq_relalg::EqSystem,
    snapshot: &Snapshot,
    spec: &QuerySpec,
) -> Vec<Vec<Const>> {
    let source = EdbSource::new(snapshot.db());
    let evaluator = Evaluator::new(system, &source);
    let constant = spec.bound_values()[0];
    let inverse = spec.free_positions() == vec![0];
    let max_iterations =
        cyclic_iteration_bound(system, snapshot.db(), spec.pred, constant, inverse).map(|b| b + 1);
    let options = EvalOptions {
        max_iterations,
        ..EvalOptions::default()
    };
    let outcome = if inverse {
        evaluator.evaluate_inverse(spec.pred, constant, &options)
    } else {
        evaluator.evaluate(spec.pred, constant, &options)
    };
    let mut rows: Vec<Vec<Const>> = outcome.answers.into_iter().map(|c| vec![c]).collect();
    rows.sort_unstable();
    rows
}

/// The bottom-up oracle (different pipeline entirely).
fn seminaive_rows(snapshot: &Snapshot, spec: &QuerySpec) -> Vec<Vec<Const>> {
    let result = seminaive_eval(snapshot.program()).expect("workloads have no builtins");
    let constant = spec.bound_values()[0];
    let inverse = spec.free_positions() == vec![0];
    let mut rows: Vec<Vec<Const>> = result
        .tuples(spec.pred)
        .into_iter()
        .filter_map(|t| {
            if inverse {
                (t[1] == constant).then_some(vec![t[0]])
            } else {
                (t[0] == constant).then_some(vec![t[1]])
            }
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Run every (constant, adornment) point query of `workload` through
/// one batch and diff each answer against both oracles.
fn check_workload(workload: &Workload) {
    let service = QueryService::with_config(workload.program.clone(), ServiceConfig::default());
    let snapshot = service.snapshot();
    let pred = {
        let name = workload.query.split('(').next().unwrap().trim();
        snapshot.program().pred_by_name(name).unwrap()
    };
    let queries = point_specs(&snapshot, pred);
    let batch = service.query_batch(&queries);
    assert_eq!(batch.len(), queries.len());
    let system = oracle_system(&snapshot);
    for (query, result) in queries.iter().zip(&batch) {
        let answer = result.as_ref().unwrap_or_else(|e| {
            panic!("{}: query failed: {e}", workload.name);
        });
        let oracle = oracle_rows(&system, &snapshot, query);
        assert_eq!(
            answer.rows.to_vecs(),
            oracle,
            "{}: batch answer != single-threaded Evaluator oracle for {:?}",
            workload.name,
            query
        );
        if answer.converged {
            let bottom_up = seminaive_rows(&snapshot, query);
            assert_eq!(
                answer.rows.to_vecs(),
                bottom_up,
                "{}: converged answer != seminaive oracle for {:?}",
                workload.name,
                query
            );
        }
    }
}

#[test]
fn fig7_scenarios_match_oracles() {
    for workload in [fig7::sample_a(12), fig7::sample_b(10), fig7::sample_c(10)] {
        check_workload(&workload);
    }
}

#[test]
fn fig8_cyclic_scenarios_match_oracles() {
    for (m, n) in [(1, 1), (2, 3), (3, 5), (4, 6)] {
        let workload = fig8::cyclic(m, n);
        check_workload(&workload);
        // Sanity: the analytically known answer count holds at the
        // query the workload names.
        let service = QueryService::new(workload.program.clone());
        let q = service.parse_query(&workload.query).unwrap();
        let out = service.query(&q).unwrap();
        assert_eq!(Some(out.rows.len()), workload.expected_answers);
    }
}

#[test]
fn graph_scenarios_match_oracles() {
    for workload in [
        graphs::chain(24),
        graphs::binary_tree(4),
        graphs::grid(4, 4),
        graphs::layered_dag(4, 4, 0.5, 7),
        graphs::sg_tree(3),
    ] {
        check_workload(&workload);
    }
}

#[test]
fn random_programs_match_oracles() {
    for seed in 0..6 {
        for style in [
            RecursionStyle::Regular,
            RecursionStyle::MiddleLinear,
            RecursionStyle::Mixed,
        ] {
            let rp = seeded(seed, style);
            let service = QueryService::with_config(rp.program.clone(), ServiceConfig::default());
            let snapshot = service.snapshot();
            let system = oracle_system(&snapshot);
            for name in &rp.derived {
                let pred = snapshot.program().pred_by_name(name).unwrap();
                let queries = point_specs(&snapshot, pred);
                for (query, result) in queries.iter().zip(service.query_batch(&queries)) {
                    let answer = result.unwrap();
                    assert_eq!(
                        answer.rows.to_vecs(),
                        oracle_rows(&system, &snapshot, query),
                        "randprog seed {seed} {name}: {:?}",
                        query
                    );
                }
            }
        }
    }
}

/// Membership queries agree with the point-query answer set, on every
/// (source, target) pair of a cyclic workload — the early-exit fast
/// path must not change any verdict.
#[test]
fn membership_queries_match_point_answers() {
    let workload = fig8::cyclic(2, 3);
    let service = QueryService::new(workload.program.clone());
    let snapshot = service.snapshot();
    let pred = snapshot.program().pred_by_name("sg").unwrap();
    for a in all_constants(&snapshot) {
        let point = service.query(&QuerySpec::bound_free(pred, a)).unwrap();
        for b in all_constants(&snapshot) {
            let bb = service.query(&QuerySpec::bound_bound(pred, a, b)).unwrap();
            assert_eq!(
                bb.holds(),
                point.rows.iter().any(|r| r[0] == b),
                "sg({a:?}, {b:?}) membership disagrees with sg({a:?}, Y)"
            );
        }
    }
}

/// The concurrency-correctness test the tentpole asks for: a writer
/// ingests rounds of fresh edges while reader threads answer batches;
/// every answer is then diffed against the single-threaded oracle **on
/// the exact snapshot (epoch) it was computed from**.
#[test]
fn mixed_ingest_and_query_workload_matches_oracle_per_epoch() {
    const ROUNDS: usize = 8;
    let service = Arc::new(QueryService::with_config(
        rq_datalog::parse_program(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(n0,n1). e(n1,n2). e(n2,n3).",
        )
        .unwrap(),
        ServiceConfig::default(),
    ));

    // Recorded (query, answer) pairs from the readers, and every
    // snapshot the writer published (epoch 0 included).
    let mut snapshots: Vec<Arc<Snapshot>> = vec![service.snapshot()];
    let mut recorded: Vec<(QuerySpec, ServiceAnswer)> = Vec::new();

    std::thread::scope(|scope| {
        let writer = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let mut published = Vec::new();
                for round in 0..ROUNDS {
                    // Edges connecting new constants into the chain,
                    // plus a back edge to create cycles mid-run.
                    let facts = format!(
                        "e(n{}, m{round}). e(m{round}, n0). e(n3, n{}).",
                        round % 4,
                        (round + 1) % 4,
                    );
                    published.push(service.ingest(&facts).expect("ingest"));
                    std::thread::yield_now();
                }
                published
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|reader| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let mut seen: Vec<(QuerySpec, ServiceAnswer)> = Vec::new();
                    for round in 0..ROUNDS {
                        let snapshot = service.snapshot();
                        let pred = snapshot.program().pred_by_name("tc").unwrap();
                        let queries = point_specs(&snapshot, pred);
                        for (query, result) in queries.iter().zip(service.query_batch(&queries)) {
                            seen.push((query.clone(), result.unwrap()));
                        }
                        if (round + reader) % 2 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    seen
                })
            })
            .collect();
        snapshots.extend(writer.join().expect("writer panicked"));
        for reader in readers {
            recorded.extend(reader.join().expect("reader panicked"));
        }
    });

    assert_eq!(snapshots.len(), ROUNDS + 1);
    assert!(recorded.len() >= ROUNDS * 3, "readers actually ran");
    // Rules never change, so one system serves every epoch.
    let system = oracle_system(&snapshots[0]);
    // Epochs answered may lag the writer but must all exist.
    for (query, answer) in &recorded {
        let snapshot = snapshots
            .iter()
            .find(|s| s.epoch() == answer.epoch)
            .expect("answer from a published epoch");
        assert_eq!(
            answer.rows.to_vecs(),
            oracle_rows(&system, snapshot, query),
            "epoch {} {:?}",
            answer.epoch,
            query
        );
    }
    // The caches actually served: plans compiled once per epoch at most,
    // and the result cache took hits under repetition.
    assert!(service.plan_cache().stats().hits > 0);
    assert!(service.result_cache().stats().hits > 0);
    assert_eq!(service.plan_cache().programs(), 1, "plans survive ingest");
}

/// Sanity on the error path: a batch mixing good and bad specs reports
/// errors inline without disturbing its neighbors.
#[test]
fn batch_surfaces_errors_inline() {
    let service =
        QueryService::from_source("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b).")
            .unwrap();
    let snapshot = service.snapshot();
    let tc = snapshot.program().pred_by_name("tc").unwrap();
    let a = all_constants(&snapshot)[0];
    // A hand-built spec whose arity disagrees with the predicate
    // surfaces an inline error rather than poisoning the batch.
    let bad = QuerySpec::new(
        tc,
        [
            rq_service::Arg::Bound(a),
            rq_service::Arg::Free(0),
            rq_service::Arg::Free(1),
        ],
    );
    let good = QuerySpec::bound_free(tc, a);
    let batch = service.query_batch(&[good.clone(), bad, good]);
    assert!(batch[0].is_ok());
    assert!(matches!(batch[1], Err(ServiceError::ArityMismatch { .. })));
    assert!(batch[2].is_ok());
}
