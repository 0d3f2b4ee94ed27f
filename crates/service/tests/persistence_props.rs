//! Property tests for the persistent predicate-sharded storage layer:
//! a database grown through k copy-on-write ingests must be
//! **indistinguishable** from a database rebuilt from scratch out of
//! the final program — same relations, same tuples, same query answers
//! — while sharing every untouched shard with its parent epoch
//! (`Arc::ptr_eq`), which is what makes the epochs O(delta).

use proptest::prelude::*;
use rq_common::{FxHashSet, Pred};
use rq_datalog::Database;
use rq_service::{QueryService, ServiceConfig, Snapshot};
use rq_store::{MemBackend, StorageBackend};
use std::sync::Arc;

/// Rules mixing a binary-chain closure over `e` with the §4 n-ary
/// flights program over `flight`/`is_deptime` — two disjoint read
/// footprints under one service.
const MIXED_RULES: &str = "\
tc(X,Y) :- e(X,Y).\n\
tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
e(n0,n1). flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
is_deptime(540). is_deptime(720).";

const RULES: &str = "tc(X,Y) :- e(X,Y).\n\
                     tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                     e(n0,n1).";

/// One ingested batch: facts over a small universe spread across a few
/// base relations (`e` plus fresh `r<k>` predicates), with plenty of
/// duplicate collisions.
fn batch_text(batch: &[(u8, u8, u8)]) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for &(rel, x, y) in batch {
        let rel = rel % 4;
        if rel == 0 {
            writeln!(text, "e(n{}, n{}).", x % 12, y % 12).unwrap();
        } else {
            writeln!(text, "r{rel}(n{}, n{}).", x % 12, y % 12).unwrap();
        }
    }
    text
}

/// Every `(pred, sorted tuple set)` of a database, for equality checks.
fn db_contents(snapshot: &Snapshot, db: &Database) -> Vec<(Pred, Vec<Vec<rq_common::Const>>)> {
    let mut out = Vec::new();
    for pred in snapshot.program().preds.ids() {
        let mut tuples: Vec<Vec<rq_common::Const>> =
            db.relation(pred).iter().map(|t| t.to_vec()).collect();
        tuples.sort();
        out.push((pred, tuples));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any sequence of ingests, the persistent database equals a
    /// database rebuilt from scratch from the final program's facts.
    #[test]
    fn grown_database_equals_rebuilt_database(
        batches in prop::collection::vec(
            prop::collection::vec((0..255u8, 0..255u8, 0..255u8), 1..8),
            1..6,
        )
    ) {
        let service = QueryService::from_source(RULES).unwrap();
        for batch in &batches {
            service.ingest(&batch_text(batch)).unwrap();
        }
        let snapshot = service.snapshot();
        prop_assert_eq!(snapshot.epoch(), batches.len() as u64);
        let rebuilt = Database::from_program(snapshot.program());
        prop_assert_eq!(
            db_contents(&snapshot, snapshot.db()),
            db_contents(&snapshot, &rebuilt)
        );
        prop_assert_eq!(snapshot.db().total_tuples(), rebuilt.total_tuples());
        // The bottom-up oracle agrees between the two databases, so the
        // persistent EDB is semantically interchangeable with a fresh one.
        let oracle = rq_datalog::seminaive_eval(snapshot.program()).unwrap();
        let tc = snapshot.program().pred_by_name("tc").unwrap();
        let q = service.parse_query("tc(n0, Y)").unwrap();
        let served = service.query(&q).unwrap();
        let mut expected: Vec<Vec<rq_common::Const>> = oracle
            .tuples(tc)
            .into_iter()
            .filter_map(|t| {
                (snapshot.program().consts.display(t[0]) == "n0").then_some(vec![t[1]])
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        if served.converged {
            prop_assert_eq!(served.rows.to_vecs(), expected);
        }
    }

    /// Result-cache entries keyed on **generalized adornments** (the
    /// §4 n-ary `cnx^bbff` entry and the binary `tc` entry, both served
    /// through the transformed pipeline) survive publishes that dirty
    /// only predicates outside their plan's read-set; when their own
    /// footprint is dirtied, the delta repair keeps them alive with
    /// **refreshed** rows (fresh `Arc`, correct against the bottom-up
    /// oracle) instead of dropping them.
    #[test]
    fn nary_adorned_entries_survive_unrelated_publishes(
        // Each step ingests into the tc side (0) or the cnx side (1).
        steps in prop::collection::vec(0..2u8, 1..8)
    ) {
        let service = QueryService::with_config(
            rq_datalog::parse_program(MIXED_RULES).unwrap(),
            ServiceConfig { threads: 1, ..ServiceConfig::default() },
        );
        let tc_q = service.parse_query("tc(n0, Y)").unwrap();
        let cnx_q = service.parse_query("cnx(hel, 540, D, AT)").unwrap();
        let mut tc_rows = service.query(&tc_q).unwrap().rows;
        let mut cnx_rows = service.query(&cnx_q).unwrap().rows;
        for (i, &step) in steps.iter().enumerate() {
            let touch_cnx = step == 1;
            let snap = if touch_cnx {
                // A new flight leg reachable from cdg keeps answers
                // changing, not just growing the fringe.
                service.ingest(&format!(
                    "flight(cdg, {dt}, x{i}, {at}). is_deptime({dt}).",
                    dt = 840 + i as i64,
                    at = 930 + i as i64,
                )).unwrap()
            } else {
                // Fresh edges only: a duplicate-only ingest dirties
                // nothing and (correctly) evicts nothing.
                service
                    .ingest(&format!("e(n{}, n{}).", i + 1, i + 2))
                    .unwrap()
            };
            prop_assert_eq!(snap.epoch(), i as u64 + 1);
            let tc_after = service.query(&tc_q).unwrap();
            let cnx_after = service.query(&cnx_q).unwrap();
            if touch_cnx {
                // The cnx entry was dirtied: repaired alive, new rows.
                prop_assert!(tc_after.from_cache, "tc entry must survive a flight publish");
                prop_assert!(Arc::ptr_eq(&tc_rows, &tc_after.rows));
                prop_assert!(cnx_after.from_cache, "cnx entry must be repaired alive");
                prop_assert!(
                    !Arc::ptr_eq(&cnx_rows, &cnx_after.rows),
                    "repaired cnx entry must hold refreshed rows"
                );
            } else {
                prop_assert!(cnx_after.from_cache, "cnx entry must survive an e publish");
                prop_assert!(Arc::ptr_eq(&cnx_rows, &cnx_after.rows));
                prop_assert!(tc_after.from_cache, "tc entry must be repaired alive");
                prop_assert!(
                    !Arc::ptr_eq(&tc_rows, &tc_after.rows),
                    "repaired tc entry must hold refreshed rows"
                );
            }
            prop_assert_eq!(tc_after.epoch, snap.epoch());
            prop_assert_eq!(cnx_after.epoch, snap.epoch());
            // Whatever the cache did, answers equal the bottom-up
            // oracle on the current snapshot.
            let oracle = rq_datalog::seminaive_eval(snap.program()).unwrap();
            let tc = snap.program().pred_by_name("tc").unwrap();
            let n0 = snap.program().consts.get(
                &rq_common::ConstValue::Str("n0".into())).unwrap();
            let mut expected: Vec<Vec<rq_common::Const>> = oracle
                .tuples(tc)
                .into_iter()
                .filter(|t| t[0] == n0)
                .map(|t| vec![t[1]])
                .collect();
            expected.sort();
            expected.dedup();
            prop_assert_eq!(tc_after.rows.to_vecs(), expected);
            let cnx = snap.program().pred_by_name("cnx").unwrap();
            let mut cnx_expected: Vec<Vec<rq_common::Const>> = oracle
                .tuples(cnx)
                .into_iter()
                .filter(|t| {
                    snap.program().consts.display(t[0]) == "hel"
                        && snap.program().consts.display(t[1]) == "540"
                })
                .map(|t| vec![t[2], t[3]])
                .collect();
            cnx_expected.sort();
            cnx_expected.dedup();
            prop_assert_eq!(cnx_after.rows.to_vecs(), cnx_expected);
            tc_rows = tc_after.rows;
            cnx_rows = cnx_after.rows;
        }
    }

    /// The replay oracle: N random ingests into a durable service,
    /// then a clean restart (write-ahead-log replay, no crash), must
    /// equal the never-restarted service exactly — same epoch, same
    /// interner ids, same database contents, same answers — memoizing
    /// and non-memoizing, 4 worker threads.
    #[test]
    fn restarted_service_equals_the_never_restarted_one(
        batches in prop::collection::vec(
            prop::collection::vec((0..255u8, 0..255u8, 0..255u8), 1..8),
            1..6,
        ),
        memoize_bit in 0..2u8,
    ) {
        let config = || ServiceConfig {
            threads: 4,
            memoize_results: memoize_bit == 1,
            ..ServiceConfig::default()
        };
        let parse = || rq_datalog::parse_program(RULES).unwrap();
        // The never-restarted oracle runs in memory; the subject runs
        // durably and is reopened from its backend after the workload.
        let oracle = QueryService::with_config(parse(), config());
        let backend = Arc::new(MemBackend::new());
        {
            let durable = QueryService::open_backend(
                parse(), backend.clone() as Arc<dyn StorageBackend>, config(),
            ).unwrap();
            for batch in &batches {
                let text = batch_text(batch);
                oracle.ingest(&text).unwrap();
                durable.ingest(&text).unwrap();
            }
        }
        let restarted = QueryService::open_backend(
            parse(), backend.clone() as Arc<dyn StorageBackend>, config(),
        ).unwrap();
        let a = restarted.snapshot();
        let b = oracle.snapshot();
        prop_assert_eq!(a.epoch(), b.epoch());
        prop_assert_eq!(a.program().consts.len(), b.program().consts.len());
        for i in 0..a.program().consts.len() {
            let c = rq_common::Const::from_index(i);
            prop_assert_eq!(a.program().consts.value(c), b.program().consts.value(c));
        }
        prop_assert_eq!(db_contents(&a, a.db()), db_contents(&b, b.db()));
        // Identical answers in raw interner ids, the byte-parity seam
        // the wire layer serializes through.
        let q_restarted = restarted.parse_query("tc(n0, Y)").unwrap();
        let q_oracle = oracle.parse_query("tc(n0, Y)").unwrap();
        prop_assert_eq!(
            restarted.query(&q_restarted).unwrap().rows,
            oracle.query(&q_oracle).unwrap().rows
        );
    }

    /// Every publish shares each shard it did not dirty with the parent
    /// epoch, pointer-identically.
    #[test]
    fn publishes_share_every_clean_shard(
        batches in prop::collection::vec(
            prop::collection::vec((0..255u8, 0..255u8, 0..255u8), 1..8),
            1..6,
        )
    ) {
        let service = QueryService::with_config(
            rq_datalog::parse_program(RULES).unwrap(),
            ServiceConfig { threads: 1, ..ServiceConfig::default() },
        );
        let mut parent = service.snapshot();
        for batch in &batches {
            let next = service.ingest(&batch_text(batch)).unwrap();
            let dirty: &FxHashSet<Pred> = next.dirty_preds();
            for pred in parent.program().preds.ids() {
                let before = parent.db().shard(pred).unwrap();
                let after = next.db().shard(pred).unwrap();
                if dirty.contains(&pred) {
                    prop_assert!(
                        !Arc::ptr_eq(before, after),
                        "dirty shard {:?} must detach", pred
                    );
                } else {
                    prop_assert!(
                        Arc::ptr_eq(before, after),
                        "clean shard {:?} must stay shared", pred
                    );
                }
            }
            parent = next;
        }
    }

    /// Publish-time shard compaction is invisible to readers: the
    /// compacted (published) database reads exactly like an
    /// uncompacted twin grown by the same inserts, every dirty shard
    /// ends a publish with no tail excess, and clean shards keep their
    /// structural sharing with the parent epoch.
    #[test]
    fn compacted_shards_read_like_uncompacted_ones(
        batches in prop::collection::vec(
            prop::collection::vec((0..255u8, 0..255u8, 0..255u8), 1..8),
            1..6,
        )
    ) {
        let service = QueryService::with_config(
            rq_datalog::parse_program(RULES).unwrap(),
            ServiceConfig { threads: 1, ..ServiceConfig::default() },
        );
        // The uncompacted twin: the same growth applied to a plain
        // database that never runs compaction.
        let mut twin = Database::from_program(service.snapshot().program());
        for batch in &batches {
            let next = service.ingest(&batch_text(batch)).unwrap();
            for pred in next.program().preds.ids() {
                twin.ensure_pred(pred, next.program().arity(pred));
            }
            for (pred, tuple) in next.program().facts.iter() {
                twin.insert(*pred, tuple);
            }
            for &pred in next.dirty_preds() {
                prop_assert_eq!(
                    next.db().relation(pred).excess_capacity(),
                    0,
                    "dirty shard {:?} must be compacted at publish", pred
                );
            }
        }
        let snapshot = service.snapshot();
        prop_assert_eq!(
            db_contents(&snapshot, snapshot.db()),
            db_contents(&snapshot, &twin)
        );
        // Indexed lookups agree too (compaction must not disturb the
        // index caches).
        for pred in snapshot.program().preds.ids() {
            let rel = snapshot.db().relation(pred);
            if rel.arity() != 2 {
                continue;
            }
            for tuple in twin.relation(pred).iter() {
                let mut compacted = Vec::new();
                rel.lookup(rq_datalog::mask_of([0]), &[tuple[0]], &mut compacted);
                let mut plain = Vec::new();
                twin.relation(pred).lookup(rq_datalog::mask_of([0]), &[tuple[0]], &mut plain);
                prop_assert_eq!(compacted.len(), plain.len());
            }
        }
    }
}
