//! End-to-end tests of `rqc serve --http`: the real binary, a real
//! socket, and the acceptance parity check — `POST /batch` must answer
//! with byte-identical rows to the same specs asked of a
//! [`ServeSession`]'s service directly.  Doubles as the CI smoke test
//! (`cargo test --test http_serve`).

use recursive_queries::cli::ServeSession;
use rq_common::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const RQC: &str = env!("CARGO_BIN_EXE_rqc");

const PROGRAM: &str = "\
tc(X,Y) :- e(X,Y).\n\
tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
e(a,b). e(b,c). e(c,d).\n\
flight(hel,540,ams,690). flight(ams,720,cdg,810). flight(cdg,840,nce,930).\n\
is_deptime(540). is_deptime(720). is_deptime(840).\n";

/// A running `rqc serve --http` child, killed on drop (SIGKILL — the
/// child gets no chance to flush anything not already durable).
struct Server {
    child: Child,
    addr: String,
    banner: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server() -> Server {
    spawn_server_with(None)
}

fn spawn_server_with(data_dir: Option<&std::path::Path>) -> Server {
    // Written once per test binary: the tests run on parallel threads,
    // and re-writing the file (truncate, then write) while a sibling's
    // server is parsing it could hand that server an empty program.
    static PROGRAM_FILE: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    let program = PROGRAM_FILE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("rqc-http-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.dl");
        std::fs::write(&path, PROGRAM).unwrap();
        path
    });
    let mut cmd = Command::new(RQC);
    cmd.arg("serve")
        .arg(program)
        .arg("--http")
        .arg("127.0.0.1:0")
        .arg("--threads")
        .arg("2");
    if let Some(d) = data_dir {
        cmd.arg("--data-dir").arg(d);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A banner line on stderr carries the bound address:
    // `rqc serve --http 127.0.0.1:PORT — …`.  With `--data-dir` a
    // recovery banner precedes it, so scan until the address appears.
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            panic!("server exited before binding; stderr so far: {banner}");
        }
        banner.push_str(&line);
        if let Some(word) = line
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
        {
            break word.to_string();
        }
    };
    Server {
        child,
        addr,
        banner,
    }
}

/// One request, raw: status line, full header section, and body text.
fn request_raw(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status")
        .parse()
        .unwrap();
    let mut text = String::new();
    reader.read_to_string(&mut text).unwrap();
    let (head, body_text) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((String::new(), text));
    (status, head, body_text)
}

fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, _head, body_text) = request_raw(addr, method, path, body);
    (status, Json::parse(&body_text).unwrap())
}

/// Encode one service answer's rows exactly as the wire does, so the
/// comparison is byte-for-byte.
fn rows_as_wire_json(program: &rq_datalog::Program, rows: &rq_common::Rows) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| {
                Json::Array(
                    row.iter()
                        .map(|&c| match program.consts.value(c) {
                            rq_common::ConstValue::Int(i) => Json::Int(*i),
                            _ => Json::Str(program.consts.display(c)),
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

#[test]
fn healthz_answers_and_batch_matches_serve_session_byte_for_byte() {
    let server = spawn_server();

    // Smoke: the health endpoint answers.
    let (status, health) = request(&server.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("epoch").and_then(Json::as_i64), Some(0));
    assert!(health.get("uptime_seconds").and_then(Json::as_i64) >= Some(0));

    // Acceptance parity: every query form through POST /batch against
    // the binary must produce byte-identical rows to the same specs
    // through a ServeSession over the same program.
    let texts = [
        "tc(a, Y)",
        "tc(X, c)",
        "tc(X, Y)",
        "tc(X, X)",
        "tc(a, d)",
        "tc(d, a)",
        "cnx(hel, 540, D, AT)",
        "cnx(hel, 540, nce, 930)",
    ];
    let body = Json::object([(
        "queries",
        Json::Array(texts.iter().map(|t| Json::Str(t.to_string())).collect()),
    )])
    .encode();
    let (status, batch) = request(&server.addr, "POST", "/batch", &body);
    assert_eq!(status, 200, "{batch:?}");
    let answers = batch.get("answers").and_then(Json::as_array).unwrap();
    assert_eq!(answers.len(), texts.len());

    let session = ServeSession::new(PROGRAM).unwrap();
    let service = session.service();
    let snapshot = service.snapshot();
    let specs: Vec<_> = texts
        .iter()
        .map(|t| service.parse_query(t).unwrap())
        .collect();
    let direct = service.query_batch(&specs);
    for ((text, wire_answer), direct_answer) in texts.iter().zip(answers).zip(&direct) {
        let expected = rows_as_wire_json(snapshot.program(), &direct_answer.as_ref().unwrap().rows);
        let got = wire_answer.get("rows").expect("rows field");
        assert_eq!(
            got.encode(),
            expected.encode(),
            "rows for `{text}` must be byte-identical"
        );
    }

    // One query through /query for good measure, then an ingest and
    // the refreshed answer.
    let (status, one) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(status, 200);
    assert_eq!(one.get("rows").and_then(Json::as_array).unwrap().len(), 3);

    let (status, ingest) = request(&server.addr, "POST", "/ingest", r#"{"facts": "e(d, z)."}"#);
    assert_eq!(status, 200, "{ingest:?}");
    assert_eq!(ingest.get("epoch").and_then(Json::as_i64), Some(1));

    let (_, after) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(after.get("rows").and_then(Json::as_array).unwrap().len(), 4);
    assert_eq!(after.get("epoch").and_then(Json::as_i64), Some(1));

    // The ingest dirtied only `e`: the cnx plan's probe space carried,
    // and /stats (the shared StatsReport rendering) says so.
    let (_, stats) = request(&server.addr, "GET", "/stats", "");
    let carried = stats
        .get("epoch_context")
        .and_then(|c| c.get("carried"))
        .expect("carried counters in /stats");
    assert!(
        carried.get("probe_spaces").and_then(Json::as_i64).unwrap() >= 1,
        "{stats:?}"
    );
}

#[test]
fn sigkilled_server_recovers_its_data_dir_and_answers_identically() {
    let data_dir = std::env::temp_dir().join(format!("rqc-recover-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // First life: ingest twice (both acks must say durable), take a
    // reference answer, then SIGKILL without any shutdown courtesy.
    let server = spawn_server_with(Some(&data_dir));
    let (status, ingest) = request(
        &server.addr,
        "POST",
        "/ingest",
        r#"{"facts": "e(d, q). e(q, r)."}"#,
    );
    assert_eq!(status, 200, "{ingest:?}");
    assert_eq!(ingest.get("epoch").and_then(Json::as_i64), Some(1));
    assert_eq!(ingest.get("durable"), Some(&Json::Bool(true)), "{ingest:?}");
    let (status, ingest) = request(&server.addr, "POST", "/ingest", r#"{"facts": "e(r, s)."}"#);
    assert_eq!(status, 200, "{ingest:?}");
    assert_eq!(ingest.get("epoch").and_then(Json::as_i64), Some(2));
    let (status, before) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(status, 200);
    assert_eq!(
        before.get("rows").and_then(Json::as_array).unwrap().len(),
        6
    );
    drop(server); // SIGKILL

    // Second life, same data dir: the banner reports the recovery, the
    // epoch survives, and the answer is byte-identical to pre-crash.
    let server = spawn_server_with(Some(&data_dir));
    assert!(
        server.banner.contains("recovered to epoch 2"),
        "no recovery banner in stderr: {}",
        server.banner
    );
    let (status, health) = request(&server.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("epoch").and_then(Json::as_i64), Some(2));
    let (status, after) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(status, 200);
    assert_eq!(after.encode(), before.encode());
    let (_, stats) = request(&server.addr, "GET", "/stats", "");
    let recovery = stats
        .get("durability")
        .and_then(|d| d.get("recovery"))
        .expect("recovery counters in /stats");
    assert_eq!(recovery.get("epoch").and_then(Json::as_i64), Some(2));
    assert_eq!(
        recovery.get("dropped_records").and_then(Json::as_i64),
        Some(0)
    );

    // And the recovered service keeps going: a third ingest lands on
    // epoch 3 and is durable in turn.
    let (status, ingest) = request(&server.addr, "POST", "/ingest", r#"{"facts": "e(s, t)."}"#);
    assert_eq!(status, 200, "{ingest:?}");
    assert_eq!(ingest.get("epoch").and_then(Json::as_i64), Some(3));
    assert_eq!(ingest.get("durable"), Some(&Json::Bool(true)));

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn metrics_scrape_and_traced_query_over_a_real_socket() {
    let server = spawn_server();

    // Warm the stack so the scrape has non-trivial values to show.
    let (status, _) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(status, 200);
    let (status, _) = request(&server.addr, "POST", "/query", r#"{"query": "tc(a, Y)"}"#);
    assert_eq!(status, 200);

    let (status, head, text) = request_raw(&server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    // Prometheus text-format validity: every non-comment line is
    // `name{labels} value`, every sample is preceded by # HELP/# TYPE
    // for its family, histogram series expose _bucket/_sum/_count.
    let mut typed: Vec<&str> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.push(rest.split_whitespace().next().unwrap());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad sample line: {line}"));
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            typed.iter().any(|t| {
                name == *t
                    || name
                        .strip_prefix(t)
                        .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))
            }),
            "sample `{name}` has no preceding # TYPE"
        );
    }
    // Core families: per-endpoint latency histograms, cache hit/miss
    // counters, service counters, report gauges.
    for needle in [
        "# TYPE rq_http_request_seconds histogram",
        "rq_http_request_seconds_bucket{endpoint=\"/query\",le=\"+Inf\"} 2",
        "rq_http_request_seconds_count{endpoint=\"/query\"} 2",
        "rq_http_requests_total{endpoint=\"/query\"} 2",
        "rq_result_cache_hits_total 1",
        "rq_result_cache_misses_total 1",
        "# TYPE rq_plan_cache_misses_total counter",
        "rq_queries_total 2",
        "rq_epoch 0",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // A traced query returns the span tree, root covering its children.
    let (status, traced) = request(
        &server.addr,
        "POST",
        "/query",
        r#"{"query": "tc(b, Y)", "trace": true}"#,
    );
    assert_eq!(status, 200, "{traced:?}");
    let trace = traced.get("trace").expect("trace field");
    assert_eq!(
        trace.get("name").and_then(Json::as_str),
        Some("service.query")
    );
    let root_dur = trace.get("dur_ns").and_then(Json::as_i64).unwrap();
    let children = trace.get("children").and_then(Json::as_array).unwrap();
    assert!(!children.is_empty(), "{trace:?}");
    let child_sum: i64 = children
        .iter()
        .filter_map(|c| c.get("dur_ns").and_then(Json::as_i64))
        .sum();
    assert!(root_dur >= child_sum, "{root_dur} < {child_sum}");
}
