//! `rq-wire` — a dependency-free HTTP/1.1 wire protocol in front of
//! the [`rq_service::QueryService`] serving layer.
//!
//! The build environment has no registry access, so — mirroring the
//! `shims/` approach — the whole stack is hand-rolled on `std`:
//! [`std::net::TcpListener`] accept loop ([`server`]), request parsing
//! with `Content-Length` framing, keep-alive, and hard size limits
//! ([`http`]), and JSON bodies through the workspace's shared
//! [`rq_common::json`] codec ([`api`]).  Endpoint semantics mirror the
//! `rqc serve` REPL exactly: the same query text means the same thing
//! on either front end, and both render their counters from the same
//! [`rq_service::StatsReport`].
//!
//! # Endpoints
//!
//! ## `POST /query` — answer one query
//!
//! Request and response bodies, verbatim:
//!
//! ```text
//! POST /query
//! {"query": "tc(a, Y)"}
//!
//! 200 OK
//! {"query":"tc(a, Y)","epoch":0,"rows":[["b"],["c"]],"converged":true,"from_cache":false}
//! ```
//!
//! Every query form of the serving REPL is accepted: point queries
//! `tc(a, Y)`, inverse `tc(X, a)`, all-pairs `tc(X, Y)`, diagonals
//! `tc(X, X)`, and n-ary §4 forms like `cnx(hel, 540, D, AT)` (integer
//! constants come back as JSON numbers).  Fully bound membership
//! queries add an explicit verdict:
//!
//! ```text
//! POST /query
//! {"query": "tc(a, c)"}
//!
//! 200 OK
//! {"query":"tc(a, c)","epoch":0,"holds":true,"rows":[[]],"converged":true,"from_cache":false}
//! ```
//!
//! Unparseable queries are `400 {"error": "…"}`; a query naming a
//! constant the program has never seen is not an error but the
//! semantically empty answer (`rows: []`, and `holds: false` when
//! fully bound) — the same contract as the REPL.
//!
//! Adding `"trace": true` to the body returns the evaluation's span
//! tree alongside the answer — each node is
//! `{"name", "start_ns", "dur_ns", "notes", "children"}`, rooted at
//! the `service.query` span:
//!
//! ```text
//! POST /query
//! {"query": "tc(a, Y)", "trace": true}
//!
//! 200 OK
//! {"query":"tc(a, Y)", …, "trace":{"name":"service.query","dur_ns":83250,
//!   "notes":{"result_cache":"miss","rows":"2","converged":"true"},
//!   "children":[{"name":"service.plan",…},{"name":"engine.traverse",…}]}}
//! ```
//!
//! ## `POST /batch` — many queries, one snapshot
//!
//! ```text
//! POST /batch
//! {"queries": ["tc(a, Y)", "tc(a, c)", "zzz(a, Y)"]}
//!
//! 200 OK
//! {"epoch":0,"answers":[
//!   {"query":"tc(a, Y)","epoch":0,"rows":[["b"],["c"]],"converged":true,"from_cache":false},
//!   {"query":"tc(a, c)","epoch":0,"holds":true,"rows":[[]],"converged":true,"from_cache":true},
//!   {"query":"zzz(a, Y)","error":"unknown predicate `zzz`"}]}
//! ```
//!
//! The whole batch is answered on **one** snapshot epoch through
//! [`rq_service::QueryService::query_batch`] — identical specs are
//! evaluated once, the rest fan out across the service's worker
//! threads — and per-query errors are reported inline so one bad query
//! cannot fail its neighbors.
//!
//! ## `POST /ingest` — publish the next epoch
//!
//! ```text
//! POST /ingest
//! {"facts": "e(c,d). e(d,f)."}
//!
//! 200 OK
//! {"epoch":1,"tuples":4,"durable":false,"dirty":["e"]}
//! ```
//!
//! Fact clauses only; the batch is validated **before** any
//! copy-on-write clone, so a rejected ingest (`400`) costs nothing and
//! publishes nothing.  `dirty` lists the predicates whose storage
//! shard the publish replaced — the unit of cache invalidation.
//! `durable` is `true` when the service runs with a data directory
//! (`rqc serve --data-dir`): the epoch's write-ahead-log record was
//! persisted *before* the acknowledgement, so the published epoch
//! survives a crash.
//!
//! ## `GET /stats` — the shared counter report
//!
//! Serializes [`rq_service::StatsReport`] (the same struct the REPL's
//! `:stats` prints as text): plan-cache hits/misses and compiled-plan
//! counts, result-cache hits/misses/evictions/dedup with entry and
//! byte footprints, and the epoch context's probe/machine-memo
//! counters including what the last publish carried forward.  The
//! result cache's `refused` counts answers it did not keep: first
//! sights once it holds its admission allowance of 8,192 entries.
//!
//! ```text
//! GET /stats
//!
//! 200 OK
//! {"epoch":1,
//!  "plan_cache":{"hits":3,"misses":1,"chain_programs":1,"nary_plans":0},
//!  "result_cache":{"hits":2,"misses":2,"evictions":0,"deduped":0,"entries":2,"bytes":208,
//!                  "refused":0},
//!  "epoch_context":{"probe_memo":{"hits":0,"misses":0,"entries":0},
//!                   "machine_memo":{"hits":1,"misses":2,"entries":2},
//!                   "scc_served":0,
//!                   "carried":{"machine_entries":2,"probe_spaces":0}}}
//! ```
//!
//! ## `GET /metrics` — Prometheus exposition
//!
//! The whole stack's metrics in Prometheus text format (content type
//! `text/plain; version=0.0.4`), rendered from **one** instance-scoped
//! [`rq_common::Registry`]: the caches' own hit/miss counter cells
//! (adopted at service construction, so `/stats`, `:stats`, and
//! `/metrics` can never disagree), service counters
//! (`rq_queries_total`, `rq_ingests_total`, `rq_engine_*_total`),
//! report-derived gauges (`rq_epoch`, cache sizes, epoch-context memo
//! counters), and this server's own per-endpoint series:
//!
//! ```text
//! GET /metrics
//!
//! 200 OK
//! # HELP rq_http_request_seconds Wall-clock request latency, by endpoint.
//! # TYPE rq_http_request_seconds histogram
//! rq_http_request_seconds_bucket{endpoint="/query",le="1e-6"} 0
//! …
//! rq_http_request_seconds_sum{endpoint="/query"} 0.000213
//! rq_http_request_seconds_count{endpoint="/query"} 2
//! # HELP rq_queries_total Queries evaluated by the service.
//! # TYPE rq_queries_total counter
//! rq_queries_total 2
//! ```
//!
//! Unknown paths fold into the `endpoint="other"` series so the label
//! set stays bounded.  Setting the `RQC_SLOW_QUERY_MS` environment
//! variable (or [`WireConfig::slow_query_ms`]) additionally logs any
//! request at or over the threshold as one JSON line on stderr with
//! its request id and slowest spans.
//!
//! ## `GET /healthz` — liveness
//!
//! ```text
//! 200 OK
//! {"status":"ok","epoch":1,"uptime_seconds":7}
//! ```
//!
//! # Protocol behavior
//!
//! * HTTP/1.1 persistent connections by default (`Connection: close`
//!   honored); pipelined requests are answered in order.
//! * Bodies are framed by `Content-Length` only; `Transfer-Encoding`
//!   is rejected (`400`), which also closes the request-smuggling
//!   ambiguity.  `POST` without a length is `411`.
//! * Oversized header sections are `431`, oversized bodies `413`
//!   (limits in [`http::Limits`]); both close the connection since the
//!   stream position is no longer trustworthy.
//! * `Expect: 100-continue` is honored.
//!
//! # Serving
//!
//! `rqc serve <program.dl> --http <addr>` binds this server in front
//! of the same session the REPL would serve.  Embedders do the same in
//! three lines:
//!
//! ```
//! use std::sync::Arc;
//! let service = Arc::new(rq_service::QueryService::from_source(
//!     "tc(X,Y) :- e(X,Y).\n tc(X,Z) :- e(X,Y), tc(Y,Z).\n e(a,b). e(b,c).",
//! ).unwrap());
//! let server = rq_wire::WireServer::bind(
//!     Arc::clone(&service),
//!     "127.0.0.1:0", // port 0: let the OS pick
//!     rq_wire::WireConfig::default(),
//! ).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! // Speak plain HTTP to it.
//! use std::io::{Read, Write};
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! let body = r#"{"query": "tc(a, Y)"}"#;
//! write!(conn, "POST /query HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
//!        body.len(), body).unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! assert!(response.contains(r#""rows":[["b"],["c"]]"#));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod http;
pub mod server;

pub use api::{handle, ApiResponse};
pub use http::Limits;
pub use server::{ServerHandle, WireConfig, WireServer};
