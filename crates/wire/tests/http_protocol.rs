//! Wire-protocol tests over real sockets: a spawned [`WireServer`] on
//! an OS-assigned port, raw `TcpStream` clients, and a hand-rolled
//! response reader (so the tests exercise exactly the bytes a real
//! HTTP client would see).

use rq_common::Json;
use rq_service::{QueryService, ServiceConfig};
use rq_wire::{ServerHandle, WireConfig, WireServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                  tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                  rc(X,Y) :- f(X,Y).\n\
                  rc(X,Z) :- f(X,Y), rc(Y,Z).\n\
                  e(a,b). e(b,c). f(m,n). f(n,o).";

fn start(source: &str, config: WireConfig) -> (Arc<QueryService>, ServerHandle) {
    let service = Arc::new(QueryService::from_source(source).unwrap());
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    (service, server.spawn().unwrap())
}

/// One parsed client-side response.
struct ClientResponse {
    status: u16,
    connection: String,
    body: Json,
}

/// Read one HTTP response off a buffered stream (status line, headers,
/// content-length-framed body).
fn read_response(reader: &mut BufReader<TcpStream>) -> ClientResponse {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => content_length = value.trim().parse().unwrap(),
            "connection" => connection = value.trim().to_string(),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    ClientResponse {
        status,
        connection,
        body: Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
    }
}

fn request_bytes(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One-shot helper: fresh connection, one request, one response.
fn roundtrip(handle: &ServerHandle, method: &str, path: &str, body: &str) -> ClientResponse {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(request_bytes(method, path, body).as_bytes())
        .unwrap();
    read_response(&mut reader)
}

#[test]
fn healthz_and_stats_respond() {
    let (_service, handle) = start(TC, WireConfig::default());
    let health = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body.get("status").and_then(Json::as_str), Some("ok"));
    let stats = roundtrip(&handle, "GET", "/stats", "");
    assert_eq!(stats.status, 200);
    assert!(stats.body.get("plan_cache").is_some());
    handle.shutdown();
}

#[test]
fn batch_rows_are_byte_identical_to_the_service() {
    // The acceptance parity check at the wire level: the JSON rows of
    // POST /batch, re-encoded, must equal the rows of the same specs
    // asked directly of the shared QueryService, encoded the same way.
    let (service, handle) = start(TC, WireConfig::default());
    let texts = ["tc(a, Y)", "tc(X, c)", "tc(X, Y)", "tc(a, c)", "rc(m, Y)"];
    let queries: Vec<Json> = texts.iter().map(|t| Json::Str(t.to_string())).collect();
    let body = Json::object([("queries", Json::Array(queries))]).encode();
    let response = roundtrip(&handle, "POST", "/batch", &body);
    assert_eq!(response.status, 200);

    let specs: Vec<_> = texts
        .iter()
        .map(|t| service.parse_query(t).unwrap())
        .collect();
    let direct = service.query_batch(&specs);
    let snapshot = service.snapshot();
    let answers = response
        .body
        .get("answers")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(answers.len(), texts.len());
    for (wire_answer, direct_answer) in answers.iter().zip(&direct) {
        let direct_answer = direct_answer.as_ref().unwrap();
        let expected_rows = Json::Array(
            direct_answer
                .rows
                .iter()
                .map(|row| {
                    Json::Array(
                        row.iter()
                            .map(|&c| Json::Str(snapshot.program().consts.display(c)))
                            .collect(),
                    )
                })
                .collect(),
        );
        let wire_rows = wire_answer.get("rows").unwrap();
        assert_eq!(
            wire_rows.encode(),
            expected_rows.encode(),
            "byte-identical rows for {:?}",
            wire_answer.get("query")
        );
    }
    handle.shutdown();
}

#[test]
fn keep_alive_pipelined_requests_answer_in_order() {
    let (_service, handle) = start(TC, WireConfig::default());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Three pipelined requests in one write: two queries and a stats
    // probe.  Responses must come back in order on the same socket.
    let mut bytes = String::new();
    bytes.push_str(&request_bytes("POST", "/query", r#"{"query": "tc(a, Y)"}"#));
    bytes.push_str(&request_bytes("POST", "/query", r#"{"query": "tc(a, c)"}"#));
    bytes.push_str(&request_bytes("GET", "/healthz", ""));
    writer.write_all(bytes.as_bytes()).unwrap();

    let first = read_response(&mut reader);
    assert_eq!(first.status, 200);
    assert_eq!(first.connection, "keep-alive");
    assert_eq!(
        first
            .body
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        2
    );
    let second = read_response(&mut reader);
    assert_eq!(second.body.get("holds").and_then(Json::as_bool), Some(true));
    let third = read_response(&mut reader);
    assert_eq!(third.body.get("status").and_then(Json::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_413_and_close() {
    let config = WireConfig {
        limits: rq_wire::Limits {
            max_body_bytes: 256,
            ..rq_wire::Limits::default()
        },
        ..WireConfig::default()
    };
    let (_service, handle) = start(TC, config);
    let big = format!(r#"{{"query": "tc(a, {})"}}"#, "Y".repeat(400));
    let response = roundtrip(&handle, "POST", "/query", &big);
    assert_eq!(response.status, 413);
    assert_eq!(response.connection, "close");
    assert!(response
        .body
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("too large"));
    // The server survives and keeps serving new connections.
    let health = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn malformed_json_and_unknown_predicates_are_clean_errors() {
    let (_service, handle) = start(TC, WireConfig::default());
    let bad_json = roundtrip(&handle, "POST", "/query", r#"{"query": "tc(a"#);
    assert_eq!(bad_json.status, 400);
    assert!(bad_json
        .body
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("JSON"));
    let unknown = roundtrip(&handle, "POST", "/query", r#"{"query": "zzz(a, Y)"}"#);
    assert_eq!(unknown.status, 400);
    assert!(unknown
        .body
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown predicate"));
    // In a batch the same failure is inline, not fatal.
    let batch = roundtrip(
        &handle,
        "POST",
        "/batch",
        r#"{"queries": ["zzz(a, Y)", "tc(a, Y)"]}"#,
    );
    assert_eq!(batch.status, 200);
    let answers = batch.body.get("answers").and_then(Json::as_array).unwrap();
    assert!(answers[0].get("error").is_some());
    assert_eq!(
        answers[1]
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        2
    );
    handle.shutdown();
}

#[test]
fn raw_garbage_gets_400_not_a_hang() {
    let (_service, handle) = start(TC, WireConfig::default());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.status, 400);
    handle.shutdown();
}

#[test]
fn ambiguous_content_length_is_a_400_that_closes_like_any_other() {
    // Each head is followed by a pipelined request that must never be
    // answered: after a framing error the server trusts nothing more
    // on the stream.  Garbage sets the bar the two framings must meet.
    let (_service, handle) = start(TC, WireConfig::default());
    for head in [
        "NOT HTTP AT ALL\r\n\r\n",
        "POST /query HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 100\r\n\r\n",
        "POST /query HTTP/1.1\r\ncontent-length: +5\r\n\r\n",
    ] {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut bytes = format!("{head}hello");
        bytes.push_str(&request_bytes("GET", "/healthz", ""));
        writer.write_all(bytes.as_bytes()).unwrap();
        let response = read_response(&mut reader);
        assert_eq!(response.status, 400, "{head:?}");
        assert_eq!(response.connection, "close", "{head:?}");
        // EOF or a reset (bytes left unread): either way, closed.
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(
            rest.is_empty(),
            "{head:?}: the pipelined request got an answer"
        );
    }
    // The server survives and keeps serving new connections.
    assert_eq!(roundtrip(&handle, "GET", "/healthz", "").status, 200);
    handle.shutdown();
}

#[test]
fn concurrent_ingest_while_querying_over_sockets() {
    // A writer publishes epochs over /ingest while readers hammer
    // /query on their own connections.  Every response must be
    // well-formed and exact for the epoch it names: ingest `i` adds
    // one `tc(a, Y)` answer, so epoch `e` answers `2 + e` rows (a stale
    // carried memo would answer fewer).  No connection's epochs go
    // backwards, and a read issued after an ingest was acknowledged at
    // epoch `e` answers at an epoch >= `e`.
    let service_config = ServiceConfig::default();
    let service = Arc::new(QueryService::with_config(
        rq_datalog::parse_program(TC).unwrap(),
        service_config,
    ));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireConfig {
            workers: 4,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    const INGESTS: usize = 8;
    // The highest epoch an /ingest acknowledged so far.
    let acked = Arc::new(AtomicI64::new(0));
    let writer_acked = Arc::clone(&acked);
    let writer = std::thread::spawn(move || {
        for i in 0..INGESTS {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let facts = format!("e(c, x{i}).");
            let body = format!(r#"{{"facts": "{facts}"}}"#);
            w.write_all(request_bytes("POST", "/ingest", &body).as_bytes())
                .unwrap();
            let response = read_response(&mut r);
            assert_eq!(response.status, 200);
            let epoch = response.body.get("epoch").and_then(Json::as_i64).unwrap();
            writer_acked.fetch_max(epoch, Ordering::SeqCst);
        }
    });

    let mut readers = Vec::new();
    for _ in 0..3 {
        let acked = Arc::clone(&acked);
        readers.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let mut last = 0;
            for _ in 0..20 {
                let floor = acked.load(Ordering::SeqCst);
                w.write_all(request_bytes("POST", "/query", r#"{"query": "tc(a, Y)"}"#).as_bytes())
                    .unwrap();
                let response = read_response(&mut r);
                assert_eq!(response.status, 200);
                let rows = response.body.get("rows").and_then(Json::as_array).unwrap();
                let epoch = response.body.get("epoch").and_then(Json::as_i64).unwrap();
                assert!((0..=INGESTS as i64).contains(&epoch));
                // Epoch 0 answers {b, c}; ingest `i` adds `x{i}`.
                assert_eq!(rows.len() as i64, 2 + epoch, "{:?}", response.body);
                assert!(epoch >= last, "epoch went back: {last} -> {epoch}");
                assert!(epoch >= floor, "read after ack {floor} served {epoch}");
                last = epoch;
            }
        }));
    }
    writer.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }
    // Quiesced: the final epoch serves every added edge.
    let final_answer = roundtrip(&handle, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    let rows = final_answer
        .body
        .get("rows")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(rows.len(), 2 + INGESTS);
    assert_eq!(
        final_answer.body.get("epoch").and_then(Json::as_i64),
        Some(INGESTS as i64)
    );
    // The clean-read-set rc plan kept its carried context through all
    // those disjoint publishes.
    let stats = roundtrip(&handle, "GET", "/stats", "");
    let epoch = stats.body.get("epoch").and_then(Json::as_i64).unwrap();
    assert_eq!(epoch, INGESTS as i64);
    handle.shutdown();
}

#[test]
fn last_allowed_request_on_a_connection_advertises_close() {
    // With a 2-request connection cap, the second response must say
    // `connection: close` (not invite more traffic and then reset),
    // and the server must close its end afterwards.
    let config = WireConfig {
        max_requests_per_connection: 2,
        ..WireConfig::default()
    };
    let (_service, handle) = start(TC, config);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(request_bytes("GET", "/healthz", "").as_bytes())
        .unwrap();
    let first = read_response(&mut reader);
    assert_eq!(first.connection, "keep-alive");
    writer
        .write_all(request_bytes("GET", "/healthz", "").as_bytes())
        .unwrap();
    let second = read_response(&mut reader);
    assert_eq!(second.status, 200);
    assert_eq!(second.connection, "close", "cap reached: must say close");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closed after the advertised close");
    handle.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let (_service, handle) = start(TC, WireConfig::default());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.status, 200);
    assert_eq!(response.connection, "close");
    // The server closed its end: the next read sees EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}
