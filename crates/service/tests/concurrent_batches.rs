//! Concurrent requests on one shared service: batches answered from
//! four OS threads at once, on one pinned snapshot, equal the same
//! batches answered sequentially on a fresh service.
//!
//! The service spawns no threads — a batch runs on the thread that
//! asked — so concurrency comes from front ends answering requests on
//! their own threads (the `rq-wire` workers).  What those threads share
//! is the snapshot's epoch context (the machine-traversal memo, the §4
//! probe spaces), the plan cache and the result cache; here every one
//! of them takes racing misses and records.  Each thread answers every
//! batch, starting at a different one, so the same keys are missed and
//! recorded by several threads at once.

use proptest::prelude::*;
use rq_common::Const;
use rq_service::{QueryService, QuerySpec, ServiceAnswer, ServiceConfig, ServiceError, Snapshot};
use rq_workloads::flights;
use rq_workloads::randprog::{seeded, RecursionStyle};
use std::sync::Arc;

/// Concurrent requests per property run.
const THREADS: usize = 4;

/// Queries per batch.
const BATCH: usize = 8;

/// What the comparison looks at: rows and convergence, or the error.
type Outcome = Result<(Vec<Vec<Const>>, bool), ServiceError>;

fn outcome(answer: Result<ServiceAnswer, ServiceError>) -> Outcome {
    answer.map(|a| (a.rows.to_vecs(), a.converged))
}

fn config(memoize: bool) -> ServiceConfig {
    ServiceConfig {
        memoize_results: memoize,
        ..ServiceConfig::default()
    }
}

/// Answer `batches` from [`THREADS`] threads at once, all on the one
/// pinned `snapshot`: thread `t` answers every batch, starting at batch
/// `t`.  Returns each thread's outcomes, indexed by batch.
fn answer_concurrently<Q: Sync>(
    batches: &[Vec<Q>],
    answer: impl Fn(&[Q]) -> Vec<Outcome> + Sync,
) -> Vec<Vec<Vec<Outcome>>> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let answer = &answer;
                scope.spawn(move || {
                    let mut by_batch: Vec<Vec<Outcome>> = vec![Vec::new(); batches.len()];
                    for k in 0..batches.len() {
                        let i = (t + k) % batches.len();
                        by_batch[i] = answer(&batches[i]);
                    }
                    by_batch
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a request thread panicked"))
            .collect()
    })
}

/// Every binary query form over every constant of a chain program:
/// point `p(c, Y)`, inverse `p(X, c)`, membership `p(c, d)` for
/// neighbouring constants, all pairs `p(X, Y)` and the diagonal.
fn chain_specs(snapshot: &Snapshot, derived: &[String]) -> Vec<QuerySpec> {
    let program = snapshot.program();
    let consts: Vec<Const> = (0..program.consts.len()).map(Const::from_index).collect();
    let mut specs = Vec::new();
    for name in derived {
        let pred = program.pred_by_name(name).expect("derived predicate");
        for (i, &c) in consts.iter().enumerate() {
            specs.push(QuerySpec::bound_free(pred, c));
            specs.push(QuerySpec::free_bound(pred, c));
            specs.push(QuerySpec::bound_bound(
                pred,
                c,
                consts[(i + 3) % consts.len()],
            ));
        }
        specs.push(QuerySpec::all_free(pred, 2));
        specs.push(QuerySpec::diagonal(pred));
    }
    specs
}

/// Deal `items` into batches of [`BATCH`], interleaved by `stride` so a
/// batch mixes predicates and query forms.
fn deal<T: Clone>(items: &[T], stride: usize) -> Vec<Vec<T>> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (i * stride) % items.len().max(1));
    order
        .chunks(BATCH)
        .map(|chunk| chunk.iter().map(|&i| items[i].clone()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random binary-chain programs: concurrent batches of every query
    /// form equal sequential batches on a fresh service.
    #[test]
    fn concurrent_chain_batches_equal_sequential(
        seed in 0u64..400,
        style in 0..3u8,
        memoize_bit in 0..2u8,
        stride in 0..4usize,
    ) {
        let memoize = memoize_bit == 1;
        let stride = [1, 5, 7, 11][stride];
        let style = [
            RecursionStyle::Regular,
            RecursionStyle::MiddleLinear,
            RecursionStyle::Mixed,
        ][style as usize];
        let rp = seeded(seed, style);
        let shared = QueryService::with_config(rp.program.clone(), config(memoize));
        let snapshot = shared.snapshot();
        let batches = deal(&chain_specs(&snapshot, &rp.derived), stride);

        let concurrent = answer_concurrently(&batches, |batch| {
            shared
                .query_batch_on(&snapshot, batch)
                .into_iter()
                .map(outcome)
                .collect()
        });

        let fresh = QueryService::with_config(rp.program.clone(), config(memoize));
        for (i, batch) in batches.iter().enumerate() {
            let sequential: Vec<Outcome> =
                fresh.query_batch(batch).into_iter().map(outcome).collect();
            for (t, thread) in concurrent.iter().enumerate() {
                prop_assert_eq!(
                    &thread[i],
                    &sequential,
                    "seed {} thread {} batch {:?}",
                    seed,
                    t,
                    batch
                );
            }
        }
        // The threads shared one epoch context.
        let stats = snapshot.context().stats();
        prop_assert!(stats.eval_entries > 0 || stats.scc_served > 0, "{:?}", stats);
    }

    /// §4 flight networks: one probe space and one machine memo serve
    /// every thread's `answer_texts` batches, and the answers equal
    /// sequential batches on a fresh service.
    #[test]
    fn concurrent_flight_batches_equal_sequential(
        seed in 0u64..1_000,
        airports in 6usize..40,
        per in 2usize..4,
        memoize_bit in 0..2u8,
    ) {
        let memoize = memoize_bit == 1;
        let workload = flights::network(airports, per, seed);
        let mut texts = flights::serve_queries(airports, per);
        texts.push("cnx(p0, 360, p1, AT)".to_string());
        texts.push("cnx(S, DT, D, AT)".to_string());
        let batches = deal(&texts, 3);
        let shared = QueryService::with_config(workload.program.clone(), config(memoize));
        let snapshot = shared.snapshot();
        let answer_texts = |service: &QueryService, snapshot: &Arc<Snapshot>, batch: &[String]| {
            let texts: Vec<&str> = batch.iter().map(String::as_str).collect();
            service
                .answer_texts(snapshot, &texts)
                .into_iter()
                .map(|a| outcome(a.map(|a| a.answer)))
                .collect::<Vec<Outcome>>()
        };

        let concurrent =
            answer_concurrently(&batches, |batch| answer_texts(&shared, &snapshot, batch));

        let fresh = QueryService::with_config(workload.program.clone(), config(memoize));
        let fresh_snapshot = fresh.snapshot();
        for (i, batch) in batches.iter().enumerate() {
            let sequential = answer_texts(&fresh, &fresh_snapshot, batch);
            for (t, thread) in concurrent.iter().enumerate() {
                prop_assert_eq!(
                    &thread[i],
                    &sequential,
                    "seed {} thread {} batch {:?}",
                    seed,
                    t,
                    batch
                );
            }
        }
        let stats = snapshot.context().stats();
        prop_assert!(stats.probe_entries > 0 && stats.eval_entries > 0, "{:?}", stats);
    }
}
