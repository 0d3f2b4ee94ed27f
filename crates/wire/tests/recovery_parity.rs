//! Wire-level recovery parity: a service that crashed mid-append and
//! recovered must answer **byte-identically** through the full HTTP
//! API surface — same `/query`, `/batch` and `/healthz` payload bytes
//! as a never-crashed twin at the same epoch.  This is the end-to-end
//! face of the interner-order invariant: replaying the write-ahead log
//! re-interns every constant at the same id, so even the row *order*
//! inside a JSON answer (sorted by id) cannot drift.

use rq_service::{QueryService, ServiceConfig, ServiceError};
use rq_store::{MemBackend, StorageBackend};
use std::sync::Arc;

const RULES: &str = "tc(X,Y) :- e(X,Y).\n\
                     tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                     e(n0,n1).";

fn program() -> rq_datalog::Program {
    rq_datalog::parse_program(RULES).unwrap()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    }
}

/// The exact response bytes the HTTP layer would put on the wire.
fn payload(service: &QueryService, method: &str, path: &str, body: &str) -> (u16, String) {
    let resp = rq_wire::handle(service, method, path, body.as_bytes());
    (resp.status, resp.payload().to_string())
}

const BATCHES: &[&str] = &[
    "e(n1, n2). e(n2, n3).",
    "r1(n3, n9). e(n3, n0).",
    "e(n2, n7). r1(n9, n4). e(n7, n8).",
];

#[test]
fn recovered_service_answers_byte_identically_through_the_wire() {
    // Never-crashed twin.
    let twin = QueryService::with_config(program(), config());
    for batch in BATCHES {
        twin.ingest(batch).unwrap();
    }

    // Learn the clean log length, then crash in the middle of the
    // final append and recover.
    let clean = Arc::new(MemBackend::new());
    {
        let svc = QueryService::open_backend(
            program(),
            clean.clone() as Arc<dyn StorageBackend>,
            config(),
        )
        .unwrap();
        for batch in BATCHES {
            svc.ingest(batch).unwrap();
        }
    }
    let total = clean.log_len();
    let backend = Arc::new(MemBackend::with_fault(total as u64 - 3));
    let crashed = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
    )
    .unwrap();
    let mut acked = 0usize;
    for batch in BATCHES {
        match crashed.ingest(batch) {
            Ok(_) => acked += 1,
            Err(e) => {
                assert!(matches!(e, ServiceError::Ingest(_)), "{e}");
                break;
            }
        }
    }
    assert_eq!(acked, BATCHES.len() - 1, "the fault tears the last append");
    drop(crashed);
    backend.clear_fault();
    let recovered = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
    )
    .unwrap();
    assert_eq!(recovered.snapshot().epoch(), acked as u64);

    // The twin at the same epoch: replay the acknowledged prefix.
    let prefix_twin = QueryService::with_config(program(), config());
    for batch in &BATCHES[..acked] {
        prefix_twin.ingest(batch).unwrap();
    }

    // Byte-for-byte identical responses across the API surface.
    let requests: &[(&str, &str, &str)] = &[
        ("POST", "/query", r#"{"query": "tc(n0, Y)"}"#),
        ("POST", "/query", r#"{"query": "tc(X, Y)"}"#),
        ("POST", "/query", r#"{"query": "tc(n1, n3)"}"#),
        (
            "POST",
            "/batch",
            r#"{"queries": ["tc(n0, Y)", "tc(X, X)", "r1(n3, Y)", "zzz(a)"]}"#,
        ),
    ];
    for &(method, path, body) in requests {
        let (status_a, bytes_a) = payload(&recovered, method, path, body);
        let (status_b, bytes_b) = payload(&prefix_twin, method, path, body);
        assert_eq!(status_a, status_b, "{method} {path}");
        assert_eq!(bytes_a, bytes_b, "{method} {path} {body}");
    }
}

#[test]
fn ingest_ack_reports_durability_and_stats_report_recovery() {
    // In-memory: the ack says so.
    let memory = QueryService::with_config(program(), config());
    let (status, bytes) = payload(&memory, "POST", "/ingest", r#"{"facts": "e(n1, n2)."}"#);
    assert_eq!(status, 200);
    assert!(bytes.contains("\"durable\":false"), "{bytes}");
    let (_, stats) = payload(&memory, "GET", "/stats", "");
    assert!(stats.contains("\"durability\":null"), "{stats}");

    // Durable: the ack flips, and /stats + /metrics carry the
    // recovery counters.
    let backend = Arc::new(MemBackend::new());
    let durable = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
    )
    .unwrap();
    let (status, bytes) = payload(&durable, "POST", "/ingest", r#"{"facts": "e(n1, n2)."}"#);
    assert_eq!(status, 200);
    assert!(bytes.contains("\"durable\":true"), "{bytes}");
    drop(durable);

    let reopened = QueryService::open_backend(
        program(),
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
    )
    .unwrap();
    let (_, stats) = payload(&reopened, "GET", "/stats", "");
    assert!(stats.contains("\"durability\":{"), "{stats}");
    assert!(stats.contains("\"replayed_records\":1"), "{stats}");
    let (_, metrics) = payload(&reopened, "GET", "/metrics", "");
    assert!(metrics.contains("rq_recovery_epoch 1\n"), "{metrics}");
    assert!(
        metrics.contains("rq_recovery_replayed_records 1\n"),
        "{metrics}"
    );
    assert!(metrics.contains("rq_wal_records_total"), "{metrics}");
}
