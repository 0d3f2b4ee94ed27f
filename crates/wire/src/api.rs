//! The JSON-over-HTTP API surface: pure request → response routing,
//! testable without a socket.
//!
//! Every response body is JSON (Prometheus text on `GET /metrics`).
//! Query texts go through the service's one text entry
//! ([`QueryService::answer_text`] / [`QueryService::answer_texts`]),
//! the same calls behind `rqc serve`, the REPL and `solve`, so a query
//! means the same thing whichever front end carries it; see the crate
//! docs for verbatim request/response examples.
//!
//! There is one implementation of every endpoint: [`respond`] writes
//! the body bytes straight into a caller-owned buffer — answer rows go
//! from the service's flat [`rq_common::Rows`] through the snapshot's
//! interner to bytes, with no [`Json`] node and no `String` per
//! constant.  The server calls it with a buffer it keeps per
//! connection; [`handle`] wraps it for callers that want a parsed body.

use rq_common::json::{escape_str_into, write_i64};
use rq_common::{obs, ConstInterner, ConstValue, Json};
use rq_service::{QueryService, Snapshot, TextAnswer};
use std::sync::Arc;

const JSON: &str = "application/json";
/// The Prometheus text exposition format's registered type.
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// What [`respond`] decided about a response whose body it wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The HTTP status code.
    pub status: u16,
    /// The `content-type` the body must be served with.
    pub content_type: &'static str,
}

/// A routed response with its body parsed back: the socket-free view
/// of [`respond`] for tests, embedders and the benchmark's layer
/// replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The JSON response body, parsed from the served bytes
    /// (`Json::Null` when [`ApiResponse::text`] is set).
    pub body: Json,
    /// A plain-text body; `Some` only for `GET /metrics`.
    pub text: Option<String>,
    /// The served bytes of a JSON body.
    json: String,
}

impl ApiResponse {
    /// The `content-type` this response must be served with.
    pub fn content_type(&self) -> &'static str {
        if self.text.is_some() {
            PROMETHEUS_TEXT
        } else {
            JSON
        }
    }

    /// The encoded body, exactly as [`respond`] wrote it.
    pub fn payload(&self) -> &str {
        self.text.as_deref().unwrap_or(&self.json)
    }
}

/// Route one request to its endpoint and parse the response back.
/// `body` is the raw request body (decoded as JSON where the endpoint
/// takes one).
pub fn handle(service: &QueryService, method: &str, path: &str, body: &[u8]) -> ApiResponse {
    let mut bytes = Vec::new();
    let reply = respond(service, method, path, body, &mut bytes);
    let served = String::from_utf8(bytes).expect("response bodies are UTF-8");
    if reply.content_type == JSON {
        ApiResponse {
            status: reply.status,
            body: Json::parse(&served).expect("a JSON endpoint wrote its body"),
            text: None,
            json: served,
        }
    } else {
        ApiResponse {
            status: reply.status,
            body: Json::Null,
            text: Some(served),
            json: String::new(),
        }
    }
}

/// Route one request to its endpoint, writing the response body into
/// `out` (cleared first, so a connection can reuse one buffer).
pub fn respond(
    service: &QueryService,
    method: &str,
    path: &str,
    body: &[u8],
    out: &mut Vec<u8>,
) -> Reply {
    out.clear();
    let status = match (method, path) {
        ("GET", "/healthz") => write_json(
            out,
            &Json::object([
                ("status", Json::Str("ok".into())),
                ("epoch", Json::Int(service.snapshot().epoch() as i64)),
                (
                    "uptime_seconds",
                    Json::Int(service.uptime().as_secs().min(i64::MAX as u64) as i64),
                ),
            ]),
        ),
        ("GET", "/stats") => write_json(out, &service.stats_report().to_json()),
        ("GET", "/metrics") => {
            out.extend_from_slice(service.metrics_prometheus().as_bytes());
            return Reply {
                status: 200,
                content_type: PROMETHEUS_TEXT,
            };
        }
        ("POST", "/query") => {
            with_json_body(body, out, |json, out| query_endpoint(service, json, out))
        }
        ("POST", "/batch") => {
            with_json_body(body, out, |json, out| batch_endpoint(service, json, out))
        }
        ("POST", "/ingest") => {
            with_json_body(body, out, |json, out| ingest_endpoint(service, json, out))
        }
        (_, "/healthz" | "/stats" | "/metrics") => write_error(out, 405, "use GET"),
        (_, "/query" | "/batch" | "/ingest") => write_error(out, 405, "use POST"),
        _ => write_error(
            out,
            404,
            &format!("no endpoint `{path}`; try /query /batch /ingest /stats /healthz /metrics"),
        ),
    };
    Reply {
        status,
        content_type: JSON,
    }
}

/// A `200` whose body is `json` (the small, row-free documents).
fn write_json(out: &mut Vec<u8>, json: &Json) -> u16 {
    json.encode_into(out);
    200
}

/// A `{"error": …}` body under `status`, replacing whatever the
/// endpoint had written.
fn write_error(out: &mut Vec<u8>, status: u16, message: &str) -> u16 {
    out.clear();
    out.extend_from_slice(b"{\"error\":");
    escape_str_into(message, out);
    out.push(b'}');
    status
}

/// Decode the request body and run `endpoint` on it; `400` if it is
/// not a JSON document.
fn with_json_body(
    body: &[u8],
    out: &mut Vec<u8>,
    endpoint: impl FnOnce(&Json, &mut Vec<u8>) -> u16,
) -> u16 {
    let Ok(text) = std::str::from_utf8(body) else {
        return write_error(out, 400, "request body is not UTF-8");
    };
    match Json::parse(text) {
        Ok(json) => endpoint(&json, out),
        Err(e) => write_error(out, 400, &format!("request body is not JSON: {e}")),
    }
}

/// `POST /query` — answer one query text on the current snapshot.
/// `{"trace": true}` additionally records the evaluation's span tree
/// and returns it under `"trace"`.
fn query_endpoint(service: &QueryService, json: &Json, out: &mut Vec<u8>) -> u16 {
    let Some(text) = json.get("query").and_then(Json::as_str) else {
        return write_error(out, 400, "body must be {\"query\": \"pred(arg, …)\"}");
    };
    let trace = json.get("trace").and_then(Json::as_bool).unwrap_or(false);
    let snapshot = service.snapshot();
    let (result, spans) = if trace {
        if obs::trace_active() {
            // The server is already tracing this request (slow-query
            // log): take only our slice, leave the buffer running.
            let mark = obs::trace_mark();
            let result = service.answer_text(&snapshot, text);
            (result, obs::trace_since(mark))
        } else {
            obs::trace_start();
            let result = service.answer_text(&snapshot, text);
            (result, obs::trace_finish())
        }
    } else {
        (service.answer_text(&snapshot, text), Vec::new())
    };
    match result {
        Ok(answered) => {
            write_answer(out, &snapshot.program().consts, text, &answered);
            if trace {
                out.extend_from_slice(b",\"trace\":");
                obs::trace_to_json(&spans).encode_into(out);
            }
            out.push(b'}');
            200
        }
        Err(e) => write_error(out, 400, &e.to_string()),
    }
}

/// `POST /batch` — answer many query texts as one batch on one
/// snapshot; per-query errors are reported inline so one bad query
/// cannot fail its neighbors.
fn batch_endpoint(service: &QueryService, json: &Json, out: &mut Vec<u8>) -> u16 {
    let Some(items) = json.get("queries").and_then(Json::as_array) else {
        return write_error(
            out,
            400,
            "body must be {\"queries\": [\"pred(arg, …)\", …]}",
        );
    };
    let mut texts: Vec<&str> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item.as_str() {
            Some(text) => texts.push(text),
            None => return write_error(out, 400, &format!("queries[{i}] is not a string")),
        }
    }
    answer_batch(service, &service.snapshot(), &texts, out);
    200
}

/// Answer `texts` on `snapshot` ([`QueryService::answer_texts`]: one
/// pinned snapshot from parse to decode) and write the `/batch` body,
/// each answer in its text's slot, mirroring the REPL's `a; b; c` line.
fn answer_batch(
    service: &QueryService,
    snapshot: &Arc<Snapshot>,
    texts: &[&str],
    out: &mut Vec<u8>,
) {
    let answers = service.answer_texts(snapshot, texts);
    out.extend_from_slice(b"{\"epoch\":");
    write_i64(snapshot.epoch() as i64, out);
    out.extend_from_slice(b",\"answers\":[");
    for (i, (text, answered)) in texts.iter().zip(answers).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match answered {
            Ok(answered) => write_answer(out, &snapshot.program().consts, text, &answered),
            Err(e) => {
                out.extend_from_slice(b"{\"query\":");
                escape_str_into(text, out);
                out.extend_from_slice(b",\"error\":");
                escape_str_into(&e.to_string(), out);
            }
        }
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// `POST /ingest` — publish fact clauses as the next epoch.  Bad
/// batches are rejected by the service before any copy-on-write clone,
/// so a failed ingest costs nothing and publishes nothing.
fn ingest_endpoint(service: &QueryService, json: &Json, out: &mut Vec<u8>) -> u16 {
    let Some(facts) = json.get("facts").and_then(Json::as_str) else {
        return write_error(out, 400, "body must be {\"facts\": \"e(a,b). e(b,c).\"}");
    };
    match service.ingest(facts) {
        Ok(snap) => write_json(
            out,
            &Json::object([
                ("epoch", Json::Int(snap.epoch() as i64)),
                ("tuples", Json::Int(snap.db().total_tuples() as i64)),
                // `true` means the epoch's write-ahead-log record was
                // persisted (and, under `FsyncPolicy::Always`, fsynced)
                // before this acknowledgement; `false` means the service
                // is in-memory and the epoch dies with the process.
                ("durable", Json::Bool(service.durable())),
                (
                    "dirty",
                    Json::Array({
                        let mut names: Vec<String> = snap
                            .dirty_preds()
                            .iter()
                            .map(|&p| snap.program().pred_name(p).to_string())
                            .collect();
                        names.sort_unstable();
                        names.into_iter().map(Json::Str).collect()
                    }),
                ),
            ]),
        ),
        Err(e) => write_error(out, 400, &e.to_string()),
    }
}

/// The JSON shape of one served answer, minus the closing brace:
/// `{"query":…,"epoch":…[,"holds":…],"rows":[[…],…],"converged":…,"from_cache":…`
/// (`holds` only for a fully bound query: yes/no made explicit rather
/// than forcing clients to decode the `[[]]`-versus-`[]` encoding;
/// `/query` appends a trace before closing).
fn write_answer(out: &mut Vec<u8>, consts: &ConstInterner, text: &str, answered: &TextAnswer) {
    let answer = &answered.answer;
    let bool_bytes = |b: bool| if b { &b"true"[..] } else { &b"false"[..] };
    out.extend_from_slice(b"{\"query\":");
    escape_str_into(text, out);
    out.extend_from_slice(b",\"epoch\":");
    write_i64(answer.epoch as i64, out);
    if answered.fully_bound {
        out.extend_from_slice(b",\"holds\":");
        out.extend_from_slice(bool_bytes(answer.holds()));
    }
    out.extend_from_slice(b",\"rows\":[");
    for (i, row) in answer.rows.iter().enumerate() {
        out.extend_from_slice(if i > 0 { b",[" } else { b"[" });
        for (j, &c) in row.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            match consts.value(c) {
                ConstValue::Int(i) => write_i64(*i, out),
                ConstValue::Str(s) => escape_str_into(s, out),
                ConstValue::Tuple(_) => escape_str_into(&consts.display(c), out),
            }
        }
        out.push(b']');
    }
    out.extend_from_slice(b"],\"converged\":");
    out.extend_from_slice(bool_bytes(answer.converged));
    out.extend_from_slice(b",\"from_cache\":");
    out.extend_from_slice(bool_bytes(answer.from_cache));
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::Rows;
    use rq_service::ServiceAnswer;

    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c).";

    fn service() -> QueryService {
        QueryService::from_source(TC).unwrap()
    }

    fn post(service: &QueryService, path: &str, body: &str) -> ApiResponse {
        handle(service, "POST", path, body.as_bytes())
    }

    #[test]
    fn healthz_reports_epoch_and_uptime() {
        let s = service();
        let resp = handle(&s, "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.body.get("epoch").and_then(Json::as_i64), Some(0));
        assert!(resp.body.get("uptime_seconds").and_then(Json::as_i64) >= Some(0));
        post(&s, "/ingest", r#"{"facts": "e(c,d)."}"#);
        let resp = handle(&s, "GET", "/healthz", b"");
        assert_eq!(resp.body.get("epoch").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn metrics_serves_prometheus_text() {
        let s = service();
        post(&s, "/query", r#"{"query": "tc(a, Y)"}"#);
        let resp = handle(&s, "GET", "/metrics", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.content_type(),
            "text/plain; version=0.0.4; charset=utf-8"
        );
        let text = resp.text.as_deref().unwrap();
        assert_eq!(resp.payload(), text);
        assert!(text.contains("# TYPE rq_queries_total counter\n"), "{text}");
        assert!(text.contains("rq_queries_total 1\n"));
        assert!(text.contains("rq_result_cache_misses_total 1\n"));
        assert!(text.contains("rq_epoch 0\n"));
        // JSON endpoints keep their content type.
        let healthz = handle(&s, "GET", "/healthz", b"");
        assert_eq!(healthz.content_type(), "application/json");
        assert_eq!(handle(&s, "POST", "/metrics", b"").status, 405);
    }

    #[test]
    fn query_trace_returns_a_span_tree() {
        let s = service();
        let resp = post(&s, "/query", r#"{"query": "tc(a, Y)", "trace": true}"#);
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let trace = resp.body.get("trace").expect("trace field");
        // One root: the service.query span, with its children nested
        // and the root covering at least the sum of its children.
        assert_eq!(
            trace.get("name").and_then(Json::as_str),
            Some("service.query")
        );
        let root_dur = trace.get("dur_ns").and_then(Json::as_i64).unwrap();
        let children = trace.get("children").and_then(Json::as_array).unwrap();
        assert!(!children.is_empty(), "expected nested spans: {trace:?}");
        assert!(children
            .iter()
            .any(|c| c.get("name").and_then(Json::as_str) == Some("engine.traverse")));
        let child_sum: i64 = children
            .iter()
            .filter_map(|c| c.get("dur_ns").and_then(Json::as_i64))
            .sum();
        assert!(root_dur >= child_sum, "{root_dur} < {child_sum}");
        // Without the flag there is no trace field, and no buffer is
        // left armed on this thread.
        let plain = post(&s, "/query", r#"{"query": "tc(a, Y)"}"#);
        assert_eq!(plain.body.get("trace"), None);
        assert!(!obs::trace_active());
    }

    #[test]
    fn query_answers_rows() {
        let s = service();
        let resp = post(&s, "/query", r#"{"query": "tc(a, Y)"}"#);
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let rows = resp.body.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("b"));
        assert_eq!(
            resp.body.get("converged").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(resp.body.get("holds"), None, "free query has no holds");
    }

    #[test]
    fn membership_queries_report_holds() {
        let s = service();
        let yes = post(&s, "/query", r#"{"query": "tc(a, c)"}"#);
        assert_eq!(yes.body.get("holds").and_then(Json::as_bool), Some(true));
        let no = post(&s, "/query", r#"{"query": "tc(c, a)"}"#);
        assert_eq!(no.body.get("holds").and_then(Json::as_bool), Some(false));
        // Unknown constants are semantically empty, not errors.
        let unseen = post(&s, "/query", r#"{"query": "tc(a, zz)"}"#);
        assert_eq!(unseen.status, 200);
        assert_eq!(
            unseen.body.get("holds").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn query_errors_are_400_with_reason() {
        let s = service();
        for (body, needle) in [
            (r#"{"query": "zzz(a, Y)"}"#, "unknown predicate"),
            (r#"{"query": "e(a, Y)"}"#, "base predicate"),
            (r#"{"query": "tc(a"}"#, "malformed"),
            (r#"{"nope": 1}"#, "body must be"),
            (r#"{"#, "not JSON"),
        ] {
            let resp = post(&s, "/query", body);
            assert_eq!(resp.status, 400, "{body}");
            let error = resp.body.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(needle), "{body}: {error}");
        }
    }

    #[test]
    fn batch_mixes_answers_and_inline_errors() {
        let s = service();
        let resp = post(
            &s,
            "/batch",
            r#"{"queries": ["tc(a, Y)", "zzz(a, Y)", "tc(a, b)", "tc(unseen, Y)"]}"#,
        );
        assert_eq!(resp.status, 200);
        let answers = resp.body.get("answers").and_then(Json::as_array).unwrap();
        assert_eq!(answers.len(), 4);
        assert_eq!(
            answers[0]
                .get("rows")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
        assert!(answers[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("zzz"));
        assert_eq!(answers[2].get("holds").and_then(Json::as_bool), Some(true));
        let empty = answers[3].get("rows").and_then(Json::as_array).unwrap();
        assert!(empty.is_empty());
        assert_eq!(answers[3].get("holds"), None, "free query, no holds field");
    }

    #[test]
    fn ingest_publishes_and_reports_dirty_preds() {
        let s = service();
        let resp = post(&s, "/ingest", r#"{"facts": "e(c,d). w(a, 10)."}"#);
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        assert_eq!(resp.body.get("epoch").and_then(Json::as_i64), Some(1));
        let dirty: Vec<&str> = resp
            .body
            .get("dirty")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(dirty, vec!["e", "w"]);
        // Integer constants come back as JSON numbers.
        let w = post(&s, "/query", r#"{"query": "tc(a, Y)"}"#);
        assert_eq!(
            w.body.get("rows").and_then(Json::as_array).unwrap().len(),
            3
        );
    }

    #[test]
    fn ingest_rejections_are_400_and_publish_nothing() {
        let s = service();
        for body in [
            r#"{"facts": "p(X,Y) :- e(X,Y)."}"#,
            r#"{"facts": "tc(a,b)."}"#,
            r#"{"facts": "e(a,"}"#,
            r#"{"nope": 1}"#,
        ] {
            let resp = post(&s, "/ingest", body);
            assert_eq!(resp.status, 400, "{body}");
        }
        assert_eq!(s.snapshot().epoch(), 0);
    }

    #[test]
    fn routing_404_and_405() {
        let s = service();
        assert_eq!(handle(&s, "GET", "/nope", b"").status, 404);
        assert_eq!(handle(&s, "POST", "/healthz", b"").status, 405);
        assert_eq!(handle(&s, "GET", "/query", b"").status, 405);
        assert_eq!(handle(&s, "DELETE", "/ingest", b"").status, 405);
    }

    #[test]
    fn stats_serves_the_shared_report() {
        let s = service();
        s.query(&s.parse_query("tc(a, Y)").unwrap()).unwrap();
        let resp = handle(&s, "GET", "/stats", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, s.stats_report().to_json());
        assert!(resp.body.get("result_cache").is_some());
        assert!(resp.body.get("epoch_context").is_some());
    }

    /// Everything the differential suite asks about: a cycle (so the
    /// diagonal is non-empty), a chain, and the §4 flights program.
    const DIFF: &str = "tc(X,Y) :- e(X,Y).\n\
                        tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                        e(a,b). e(b,a). e(b,c). e(c,d).\n\
                        cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
                        cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
                        flight(hel,540,ams,690). flight(ams,720,cdg,810). flight(cdg,840,nce,930).\n\
                        is_deptime(540). is_deptime(720). is_deptime(840).";

    /// `respond`'s bytes for one request.
    fn direct(service: &QueryService, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut out = b"stale bytes from the previous response".to_vec();
        let reply = respond(service, method, path, body, &mut out);
        assert_eq!(reply.content_type, "application/json");
        (reply.status, String::from_utf8(out).unwrap())
    }

    /// Run `requests` in order against two identical fresh services —
    /// one through the byte responder, one through the reference tree
    /// — and demand the same status and the same bytes every time.
    /// (Two services, so cache state and `from_cache` evolve alike.)
    fn assert_byte_identical(requests: &[(&str, &str, &[u8])]) {
        let ours = QueryService::from_source(DIFF).unwrap();
        let theirs = QueryService::from_source(DIFF).unwrap();
        for &(method, path, body) in requests {
            let (status, bytes) = direct(&ours, method, path, body);
            let (ref_status, tree) = reference::handle(&theirs, method, path, body);
            let shown = String::from_utf8_lossy(body);
            assert_eq!(status, ref_status, "{method} {path} {shown}");
            assert_eq!(bytes, tree.encode(), "{method} {path} {shown}");
            // And `handle` is the same bytes, parsed.
            let adapted = handle(&theirs, method, path, body);
            assert_eq!(adapted.body, Json::parse(adapted.payload()).unwrap());
        }
    }

    const QUERY_TEXTS: [&str; 17] = [
        "tc(a, Y)",                // forward point
        "tc(X, c)",                // inverse point
        "tc(a, c)",                // membership: yes
        "tc(d, a)",                // membership: no
        "tc(X, Y)",                // all pairs
        "tc(X, X)",                // diagonal
        "cnx(hel, 540, D, AT)",    // §4, integer cells
        "cnx(hel, 540, nce, 930)", // §4 membership
        "tc(zz, Y)",               // unknown constant, free
        "tc(a, zz)",               // unknown constant, fully bound
        "tc(a, Y, Z)",             // arity
        "tc(a",                    // parse error
        "zzz(a, Y)",               // unknown predicate
        "e(a, Y)",                 // base predicate
        "tc(\"a\\b\", \u{1}é)",    // escapes in the echoed text
        "tc(a, Y)",                // again: from_cache
        "tc( a , Y )",             // same spec, different text
    ];

    #[test]
    fn query_bytes_match_the_reference_tree() {
        let bodies: Vec<String> = QUERY_TEXTS
            .iter()
            .map(|q| Json::object([("query", Json::Str(q.to_string()))]).encode())
            .collect();
        let mut requests: Vec<(&str, &str, &[u8])> = bodies
            .iter()
            .map(|b| ("POST", "/query", b.as_bytes()))
            .collect();
        requests.extend([
            ("POST", "/query", &br#"{"nope": 1}"#[..]),
            ("POST", "/query", &br#"{"query": 7}"#[..]),
            ("POST", "/query", &b"{"[..]),
            ("POST", "/query", &b"\xff\xfe"[..]),
            ("GET", "/query", &b""[..]),
            ("POST", "/nope", &b""[..]),
        ]);
        assert_byte_identical(&requests);
    }

    #[test]
    fn batch_bytes_match_the_reference_tree() {
        let all = Json::object([(
            "queries",
            Json::Array(
                QUERY_TEXTS
                    .iter()
                    .map(|q| Json::Str(q.to_string()))
                    .collect(),
            ),
        )])
        .encode();
        assert_byte_identical(&[
            ("POST", "/batch", all.as_bytes()),
            // Again: every answer now comes from the cache.
            ("POST", "/batch", all.as_bytes()),
            ("POST", "/batch", br#"{"queries": []}"#),
            ("POST", "/batch", br#"{"queries": ["zzz(a, Y)"]}"#),
            ("POST", "/batch", br#"{"queries": ["tc(a, Y)", 7]}"#),
            ("POST", "/batch", br#"{"queries": "tc(a, Y)"}"#),
            ("POST", "/batch", b"[1,"),
            ("PUT", "/batch", b""),
        ]);
    }

    #[test]
    fn traced_query_bytes_are_the_answer_plus_one_trailing_field() {
        // Span timings differ run to run, so the trace itself cannot
        // be compared across two evaluations; everything around it
        // can.  The traced body is the untraced reference body with
        // `,"trace":<tree>` spliced in before the closing brace, and
        // the tree re-encodes to exactly the bytes it was served as.
        let ours = QueryService::from_source(DIFF).unwrap();
        let theirs = QueryService::from_source(DIFF).unwrap();
        for text in ["tc(a, Y)", "tc(a, c)", "cnx(hel, 540, D, AT)", "tc(zz, Y)"] {
            let traced = Json::object([
                ("query", Json::Str(text.to_string())),
                ("trace", Json::Bool(true)),
            ])
            .encode();
            let (status, bytes) = direct(&ours, "POST", "/query", traced.as_bytes());
            assert_eq!(status, 200);
            let (_, tree) = reference::handle(&theirs, "POST", "/query", traced.as_bytes());
            let Json::Object(mut pairs) = tree else {
                panic!("an answer is an object")
            };
            assert_eq!(pairs.pop().unwrap().0, "trace", "trace is the last field");
            let untraced = Json::Object(pairs).encode();
            let prefix = format!("{},\"trace\":", untraced.strip_suffix('}').unwrap());
            let served_trace = bytes
                .strip_prefix(prefix.as_str())
                .and_then(|rest| rest.strip_suffix('}'))
                .unwrap_or_else(|| panic!("{bytes} does not extend {untraced}"));
            assert_eq!(Json::parse(served_trace).unwrap().encode(), served_trace);
        }
        assert!(!obs::trace_active());
    }

    #[test]
    fn queries_parse_on_the_pinned_snapshot() {
        // A front end captures a snapshot, an /ingest publishes a new
        // constant, and only then are the texts parsed: the parse must
        // still run against the *captured* program.  `brand_new` does
        // not exist at epoch 0, so both queries naming it are empty by
        // construction — answered without an evaluation, never turned
        // into specs carrying an id the pinned interner cannot decode.
        let s = QueryService::from_source(DIFF).unwrap();
        let pinned = s.snapshot();
        post(&s, "/ingest", r#"{"facts": "e(d, brand_new)."}"#);
        let mut out = Vec::new();
        answer_batch(
            &s,
            &pinned,
            &["tc(c, Y)", "tc(brand_new, Y)", "tc(c, brand_new)"],
            &mut out,
        );
        let body = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(body.get("epoch").and_then(Json::as_i64), Some(0));
        let answers = body.get("answers").and_then(Json::as_array).unwrap();
        assert_eq!(answers[0].get("rows").unwrap().encode(), r#"[["d"]]"#);
        assert_eq!(answers[1].get("rows").unwrap().encode(), "[]");
        assert_eq!(answers[2].get("holds").and_then(Json::as_bool), Some(false));
        // One evaluation — `tc(c, Y)` — reached the service.
        assert_eq!(s.result_cache().stats().misses, 1);
        assert_eq!(s.result_cache().len(), 1);
        // The single-query path pins the same way: no pipeline ran.
        let single = s.answer_text(&pinned, "tc(c, brand_new)").unwrap();
        assert!(single.fully_bound && !single.answer.holds());
        assert_eq!(single.answer.route, None);
        assert_eq!(s.result_cache().stats().misses, 1);
        // On the current snapshot the constant exists and is reachable.
        let now = post(&s, "/query", r#"{"query": "tc(c, brand_new)"}"#);
        assert_eq!(now.body.get("holds").and_then(Json::as_bool), Some(true));
    }

    /// Characters a constant name can put through the escaper: plain,
    /// the two escaped printables, named and `\u00XX` controls, DEL,
    /// and 2-, 3- and 4-byte UTF-8.
    const NAME_ALPHABET: [char; 14] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Direct encoder == reference tree over random answers: widths
        /// 0–4, names drawn from [`NAME_ALPHABET`], integers including
        /// both `i64` extremes, every flag combination.
        #[test]
        fn answer_bytes_match_the_reference_tree_on_random_rows(
            names in proptest::collection::vec(
                proptest::collection::vec(0..NAME_ALPHABET.len(), 0..6), 1..8),
            ints in proptest::collection::vec(0..5usize, 0..4),
            width in 0..5usize,
            cells in proptest::collection::vec(0..64usize, 0..40),
            text in proptest::collection::vec(0..NAME_ALPHABET.len(), 0..10),
            flags in 0..8u8,
            epoch in 0..3u64,
        ) {
            let mut consts = ConstInterner::new();
            let mut ids = Vec::new();
            for name in &names {
                let name: String = name.iter().map(|&i| NAME_ALPHABET[i]).collect();
                ids.push(consts.intern_str(&name));
            }
            for &i in &ints {
                ids.push(consts.intern_int([i64::MIN, -1, 0, 1430, i64::MAX][i]));
            }
            let nested = consts.intern_tuple(vec![ids[0], ids[ids.len() - 1]]);
            ids.push(nested);
            let mut rows = Rows::builder(width);
            match width {
                0 => (0..cells.len() % 2).for_each(|_| rows.push(&[])),
                _ => cells.chunks_exact(width).for_each(|row| {
                    let row: Vec<_> = row.iter().map(|&i| ids[i % ids.len()]).collect();
                    rows.push(&row);
                }),
            }
            let answer = ServiceAnswer {
                epoch,
                rows: Arc::new(rows.finish()),
                converged: flags & 1 != 0,
                from_cache: flags & 2 != 0,
                route: None,
                counters: Default::default(),
            };
            let fully_bound = flags & 4 != 0;
            let answered = TextAnswer { fully_bound, answer };
            let text: String = text.iter().map(|&i| NAME_ALPHABET[i]).collect();
            let mut out = Vec::new();
            write_answer(&mut out, &consts, &text, &answered);
            out.push(b'}');
            let tree = reference::answer_json(&text, fully_bound, &answered.answer, &consts);
            proptest::prop_assert_eq!(String::from_utf8(out).unwrap(), tree.encode());
        }
    }

    #[test]
    fn integer_constants_round_trip_as_numbers() {
        let s = QueryService::from_source(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
             is_deptime(540). is_deptime(720).",
        )
        .unwrap();
        let resp = post(&s, "/query", r#"{"query": "cnx(hel, 540, D, AT)"}"#);
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let rows = resp.body.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_array().unwrap();
        assert_eq!(first[0].as_str(), Some("ams"));
        assert_eq!(first[1].as_i64(), Some(690));
    }
}
