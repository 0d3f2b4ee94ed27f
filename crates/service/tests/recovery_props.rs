//! Crash-injection recovery properties for the durable storage layer.
//!
//! The central contract: for any workload and any crash point,
//! `recover(crash_at_any_point(workload))` equals the replay-prefix of
//! `never_crashed(workload)` — same epoch, same interner ids, same
//! database contents, same query answers.  The crash is injected
//! deterministically with [`rq_store::MemBackend::with_fault`], which
//! kills the write-ahead-log append stream at a chosen byte offset and
//! leaves exactly the torn prefix a power cut would.
//!
//! Corruption recovery is exercised separately: truncated tails are
//! dropped cleanly (counted, never fatal), a flipped byte mid-log
//! fails the frame CRC and recovery stops at the last valid record,
//! and a corrupted checkpoint whose log was already truncated refuses
//! to serve (a silent gap would be worse).

use proptest::prelude::*;
use rq_common::Pred;
use rq_service::{QueryService, ServiceConfig, ServiceError, Snapshot};
use rq_store::MemBackend;
use std::sync::Arc;

const RULES: &str = "tc(X,Y) :- e(X,Y).\n\
                     tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                     e(n0,n1).";

fn program() -> rq_datalog::Program {
    rq_datalog::parse_program(RULES).unwrap()
}

/// Durable test settings: a short checkpoint cadence so workloads
/// cross checkpoint boundaries.
fn config() -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.durability.checkpoint_interval = 2;
    config
}

/// One ingested batch over a small universe: edges plus fresh `r<k>`
/// relations (their first appearance exercises predicate re-interning
/// on replay), with plenty of duplicate collisions.
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

/// Every `(pred, sorted tuple set)` of a snapshot's database.  Raw
/// interner ids, deliberately: recovery must reproduce them exactly,
/// not just name-equivalent contents.
fn db_contents(snapshot: &Snapshot) -> Vec<(Pred, Vec<Vec<rq_common::Const>>)> {
    let mut out = Vec::new();
    for pred in snapshot.program().preds.ids() {
        let mut tuples: Vec<Vec<rq_common::Const>> = snapshot
            .db()
            .relation(pred)
            .iter()
            .map(|t| t.to_vec())
            .collect();
        tuples.sort();
        out.push((pred, tuples));
    }
    out
}

/// Assert two snapshots are indistinguishable: epoch, interner sizes,
/// per-id constant values, facts, and database contents.
fn assert_snapshots_identical(a: &Snapshot, b: &Snapshot) {
    assert_eq!(a.epoch(), b.epoch());
    assert_eq!(a.program().preds.len(), b.program().preds.len());
    assert_eq!(a.program().consts.len(), b.program().consts.len());
    for i in 0..a.program().consts.len() {
        let c = rq_common::Const::from_index(i);
        assert_eq!(
            a.program().consts.value(c),
            b.program().consts.value(c),
            "constant id {i} diverged"
        );
    }
    assert_eq!(a.program().facts.len(), b.program().facts.len());
    for (fa, fb) in a.program().facts.iter().zip(b.program().facts.iter()) {
        assert_eq!(fa, fb);
    }
    assert_eq!(db_contents(a), db_contents(b));
}

/// Answer `tc(n0, Y)` as raw id rows — byte-identical recovery means
/// identical ids, so the rows compare with `==` directly.
fn answer(service: &QueryService) -> Vec<Vec<rq_common::Const>> {
    let q = service.parse_query("tc(n0, Y)").unwrap();
    service.query(&q).unwrap().rows.to_vecs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash the write-ahead-log append at an arbitrary byte offset,
    /// "restart" (clear the fault, reopen the backend), and compare
    /// the recovered service against the never-crashed oracle's
    /// prefix: same epoch, same interner ids, same database, same
    /// answers.
    #[test]
    fn recovery_equals_the_never_crashed_prefix(
        batches in prop::collection::vec(
            prop::collection::vec((0..255u8, 0..255u8, 0..255u8), 1..6),
            1..6,
        ),
        kill_fraction in 0..=1000u32,
    ) {
        // The never-crashed oracle, capturing one snapshot per epoch.
        let oracle = QueryService::open_backend(
            program(), Arc::new(MemBackend::new()), config(),
        ).unwrap();
        let mut oracle_snaps = vec![oracle.snapshot()];
        for batch in &batches {
            oracle_snaps.push(oracle.ingest(&batch_text(batch)).unwrap());
        }

        // Learn the clean log length, then pick the crash offset as a
        // fraction of it (offset == length means no crash fires).
        let total = clean_log_len(&batches);
        let kill = (total as u64).saturating_mul(u64::from(kill_fraction)) / 1000;

        // The crashing run: ingest until the injected fault aborts a
        // publish (every later ingest fails on the dead "descriptor").
        let backend = Arc::new(MemBackend::with_fault(kill));
        let crashed = QueryService::open_backend(
            program(), backend.clone() as Arc<dyn rq_store::StorageBackend>, config(),
        ).unwrap();
        let mut acked = 0u64;
        for batch in &batches {
            match crashed.ingest(&batch_text(batch)) {
                Ok(snap) => {
                    prop_assert!(snap.epoch() == acked + 1);
                    acked += 1;
                }
                Err(e) => {
                    prop_assert!(
                        matches!(e, ServiceError::Ingest(_)),
                        "crash must surface as an ingest error, got {e}"
                    );
                    break;
                }
            }
        }
        drop(crashed);

        // Restart over the same backing store.
        backend.clear_fault();
        let recovered = QueryService::open_backend(
            program(), backend.clone() as Arc<dyn rq_store::StorageBackend>, config(),
        ).unwrap();
        let report = recovered.recovery_report().unwrap().clone();
        prop_assert_eq!(report.recovered_epoch, acked,
            "recovery must restore exactly the acknowledged epochs");
        prop_assert!(report.dropped_records <= 1,
            "the scan stops at the first torn frame");

        // The recovered service equals the oracle's prefix …
        let oracle_prefix = &oracle_snaps[acked as usize];
        assert_snapshots_identical(&recovered.snapshot(), oracle_prefix);

        // … answers queries identically (raw ids — byte parity) …
        let prefix_service = QueryService::with_config(
            oracle_prefix.program().clone(), config(),
        );
        prop_assert_eq!(answer(&recovered), answer(&prefix_service));

        // … and keeps serving durably: the next ingest appends again.
        if acked < batches.len() as u64 {
            let resumed = recovered
                .ingest(&batch_text(&batches[acked as usize]))
                .unwrap();
            prop_assert_eq!(resumed.epoch(), acked + 1);
            assert_snapshots_identical(&resumed, &oracle_snaps[acked as usize + 1]);

            // The resumed epoch must itself survive a *second* restart:
            // recovery truncated the torn tail, so the new record sits
            // on verified bytes, not behind a bad frame the next scan
            // would stop at (which would silently drop an acknowledged,
            // fsynced ingest).
            drop(resumed);
            drop(recovered);
            let reopened = QueryService::open_backend(
                program(), backend.clone() as Arc<dyn rq_store::StorageBackend>, config(),
            ).unwrap();
            let second = reopened.recovery_report().unwrap();
            prop_assert_eq!(second.recovered_epoch, acked + 1,
                "an epoch acknowledged after recovery must survive the next restart");
            prop_assert_eq!(second.dropped_records, 0,
                "the first recovery already truncated the unverifiable tail");
            assert_snapshots_identical(&reopened.snapshot(), &oracle_snaps[acked as usize + 1]);
        }
    }
}

/// The clean (never-crashed) write-ahead-log length for `batches`,
/// measured on a throwaway backend.
fn clean_log_len(batches: &[Vec<(u8, u8, u8)>]) -> usize {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        config(),
    )
    .unwrap();
    for batch in batches {
        svc.ingest(&batch_text(batch)).unwrap();
    }
    backend.log_len()
}

#[test]
fn truncated_tail_record_is_dropped_cleanly_with_a_counter() {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        {
            let mut c = config();
            c.durability.checkpoint_interval = 0; // keep every record in the log
            c
        },
    )
    .unwrap();
    svc.ingest("e(n1, n2).").unwrap();
    let two = backend.log_len();
    svc.ingest("e(n2, n3). r1(n0, n5).").unwrap();
    drop(svc);
    // Tear the last record anywhere strictly inside it.
    for cut in two + 1..backend.log_len() {
        let fresh = Arc::new(MemBackend::new());
        fresh.set_raw_log(backend.raw_log());
        fresh.truncate_log(cut);
        let recovered = QueryService::open_backend(program(), fresh, config()).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.recovered_epoch, 1, "cut at {cut}");
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.dropped_records, 1, "torn tail must be counted");
        assert!(report.dropped_bytes > 0);
    }
    // A cut exactly on the record boundary is a clean (shorter) log.
    let fresh = Arc::new(MemBackend::new());
    fresh.set_raw_log(backend.raw_log());
    fresh.truncate_log(two);
    let recovered = QueryService::open_backend(program(), fresh, config()).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.recovered_epoch, 1);
    assert_eq!(report.dropped_records, 0);
}

#[test]
fn flipped_byte_mid_log_stops_recovery_at_the_last_valid_record() {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        {
            let mut c = config();
            c.durability.checkpoint_interval = 0;
            c
        },
    )
    .unwrap();
    svc.ingest("e(n1, n2).").unwrap();
    let one = backend.log_len();
    svc.ingest("e(n2, n3).").unwrap();
    let two = backend.log_len();
    svc.ingest("e(n3, n4).").unwrap();
    drop(svc);
    // Flip one byte inside the *middle* record: epoch 1 survives,
    // epochs 2 and 3 are untrusted, and nothing panics.
    for offset in [one, one + 7, two - 1] {
        let fresh = Arc::new(MemBackend::new());
        fresh.set_raw_log(backend.raw_log());
        fresh.corrupt_log_byte(offset);
        let recovered = QueryService::open_backend(program(), fresh, config()).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!(
            report.recovered_epoch, 1,
            "flip at {offset}: recovery must stop at the last valid record"
        );
        assert_eq!(report.dropped_records, 1);
        assert!(!recovered
            .snapshot()
            .db()
            .relation(recovered.snapshot().program().pred_by_name("e").unwrap())
            .is_empty());
    }
}

#[test]
fn corrupt_checkpoint_with_a_truncated_log_refuses_to_serve() {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        {
            let mut c = config();
            c.durability.checkpoint_interval = 2; // checkpoint at epoch 2, truncating records 1-2
            c
        },
    )
    .unwrap();
    svc.ingest("e(n1, n2).").unwrap();
    svc.ingest("e(n2, n3).").unwrap();
    svc.ingest("e(n3, n4).").unwrap();
    drop(svc);
    assert!(backend.raw_checkpoint().is_some());
    backend.corrupt_checkpoint_byte(10);
    // The checkpoint fails verification and the surviving log starts
    // at epoch 3 — a gap.  Serving would silently lose epochs 1-2, so
    // recovery must refuse (an error, never a panic or silent data
    // loss).
    let Err(err) = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        config(),
    ) else {
        panic!("a gapped log must not serve");
    };
    assert!(
        matches!(&err, ServiceError::Recovery(m) if m.contains("gap")),
        "{err}"
    );
}

#[test]
fn checkpoint_plus_tail_recovery_counts_skipped_duplicates() {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        {
            let mut c = config();
            c.durability.checkpoint_interval = 2;
            c
        },
    )
    .unwrap();
    svc.ingest("e(n1, n2).").unwrap(); // epoch 1
    svc.ingest("e(n2, n3). r1(n0, n1).").unwrap(); // epoch 2 → checkpoint + truncate
    svc.ingest("e(n3, n4).").unwrap(); // epoch 3, in the log tail
    drop(svc);
    let recovered = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        config(),
    )
    .unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.recovered_epoch, 3);
    assert_eq!(report.checkpoint_epoch, Some(2));
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.skipped_duplicates, 0);
    assert_eq!(report.dropped_records, 0);
    // The recovered state equals a from-scratch oracle fed the same
    // batches — including the fresh `r1` predicate interned by the
    // checkpointed epoch.
    let oracle = QueryService::from_source(RULES).unwrap();
    oracle.ingest("e(n1, n2).").unwrap();
    oracle.ingest("e(n2, n3). r1(n0, n1).").unwrap();
    oracle.ingest("e(n3, n4).").unwrap();
    assert_snapshots_identical(&recovered.snapshot(), &oracle.snapshot());
}

#[test]
fn reopening_under_a_different_rule_set_is_refused() {
    let backend = Arc::new(MemBackend::new());
    let svc = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        config(),
    )
    .unwrap();
    svc.ingest("e(n1, n2).").unwrap();
    drop(svc);
    let other = rq_datalog::parse_program("p(X,Y) :- q(X,Y).\nq(a,b).").unwrap();
    let Err(err) = QueryService::open_backend(
        other,
        backend.clone() as Arc<dyn rq_store::StorageBackend>,
        config(),
    ) else {
        panic!("a foreign rule set must not replay this log");
    };
    assert!(
        matches!(&err, ServiceError::Recovery(m) if m.contains("rule set")),
        "{err}"
    );
}
