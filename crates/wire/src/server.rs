//! The TCP front end: a worker-pool accept loop feeding the pure
//! [`crate::api`] router over persistent HTTP/1.1 connections.
//!
//! The shape is deliberately simple — N OS threads, each blocked in
//! `accept`, each serving one connection at a time with keep-alive —
//! and it is the process's only parallelism: a request, a whole
//! `/batch` included, is answered on the worker that read it (the
//! service spawns no threads).  The worker count is
//! [`WireConfig::workers`] (`rqc serve --threads`).

use crate::api;
use crate::http::{self, Limits, RequestError};
use rq_common::obs::{self, Counter, Gauge, Histogram};
use rq_common::{Json, Registry};
use rq_service::QueryService;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settings of one [`WireServer`].
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Accept-loop worker threads (each serves one connection at a
    /// time).  `0` means the machine's available parallelism.
    pub workers: usize,
    /// Per-request size limits (header section and body).
    pub limits: Limits,
    /// Per-connection read timeout: an idle or stalled peer is
    /// disconnected after this long, so a worker can never be parked
    /// forever by a silent client.  `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Maximum requests served on one connection before the server
    /// closes it (bounds how long one client can monopolize a worker).
    pub max_requests_per_connection: usize,
    /// Slow-query log threshold: a request that takes at least this
    /// many milliseconds is logged to stderr as one JSON line with its
    /// request id and the spans where the time went.  `None` disables
    /// the log.  The default reads the `RQC_SLOW_QUERY_MS` environment
    /// variable (unset ⇒ disabled).
    pub slow_query_ms: Option<u64>,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            limits: Limits::default(),
            read_timeout: Some(Duration::from_secs(30)),
            max_requests_per_connection: 10_000,
            slow_query_ms: std::env::var("RQC_SLOW_QUERY_MS")
                .ok()
                .and_then(|v| v.trim().parse().ok()),
        }
    }
}

/// The HTTP server: a bound listener plus the shared [`QueryService`].
///
/// Bind first, then either [`WireServer::run`] (blocking — the `rqc
/// serve --http` path) or [`WireServer::spawn`] (background — tests
/// and embedding).
pub struct WireServer {
    listener: TcpListener,
    service: Arc<QueryService>,
    config: WireConfig,
    metrics: Arc<WireMetrics>,
}

/// Pre-resolved registry handles for the request loop: one counter +
/// latency histogram per endpoint (resolved once, not per request) and
/// the in-flight gauge.  Registered into the **service's** registry so
/// one `GET /metrics` scrape covers wire and service alike.
struct WireMetrics {
    /// Requests currently being routed (accepted, not yet answered).
    in_flight: Gauge,
    /// `(path, requests counter, latency histogram)` per endpoint; the
    /// last entry (`other`) absorbs unknown paths so the label set
    /// stays bounded no matter what clients probe.
    endpoints: Vec<(&'static str, Counter, Histogram)>,
}

/// The served endpoints, in routing order; unknown paths map to the
/// trailing `other`.
const ENDPOINTS: [&str; 7] = [
    "/query", "/batch", "/ingest", "/stats", "/healthz", "/metrics", "other",
];

impl WireMetrics {
    fn register(registry: &Registry) -> Self {
        let endpoints = ENDPOINTS
            .iter()
            .map(|&endpoint| {
                (
                    endpoint,
                    registry.counter_with(
                        "rq_http_requests_total",
                        "HTTP requests routed, by endpoint.",
                        &[("endpoint", endpoint)],
                    ),
                    registry.histogram_with(
                        "rq_http_request_seconds",
                        "Wall-clock request latency, by endpoint.",
                        &[("endpoint", endpoint)],
                    ),
                )
            })
            .collect();
        Self {
            in_flight: registry.gauge(
                "rq_http_in_flight",
                "Requests currently being served by wire workers.",
            ),
            endpoints,
        }
    }

    fn endpoint(&self, path: &str) -> &(&'static str, Counter, Histogram) {
        self.endpoints
            .iter()
            .find(|(name, _, _)| *name == path)
            .unwrap_or_else(|| self.endpoints.last().expect("endpoint table is non-empty"))
    }
}

impl WireServer {
    /// Bind `addr` (e.g. `127.0.0.1:7474`, or port `0` for an
    /// OS-assigned port) in front of `service`.
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let metrics = Arc::new(WireMetrics::register(service.metrics()));
        Ok(Self {
            listener,
            service,
            config,
            metrics,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The worker count the accept loop will use: the configured
    /// number, or available parallelism for `0`.
    pub fn workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Serve until the process exits (the accept loop never stops on
    /// its own).  Connection-level errors are contained to their
    /// worker; they never take the server down.
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        for worker in handle.workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Start the accept loop on background threads and return a handle
    /// for address discovery and clean shutdown.  When the OS refuses a
    /// worker thread, the workers already started are shut down and the
    /// error is returned.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let workers = self.workers();
        let mut handle = ServerHandle {
            addr: self.listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(workers),
        };
        let listener = Arc::new(self.listener);
        for _ in 0..workers {
            let listener = Arc::clone(&listener);
            let service = Arc::clone(&self.service);
            let config = self.config.clone();
            let metrics = Arc::clone(&self.metrics);
            let shutdown = Arc::clone(&handle.shutdown);
            let spawned = std::thread::Builder::new().spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if shutdown.load(Ordering::Relaxed) {
                                break;
                            }
                            // One connection at a time per worker; any
                            // I/O error just drops the connection.
                            let _ = serve_connection(&service, &metrics, stream, &config);
                        }
                        Err(_) => {
                            // Transient accept errors (EMFILE, aborted
                            // handshakes) must not kill the worker.
                            std::thread::yield_now();
                        }
                    }
                }
            });
            match spawned {
                Ok(worker) => handle.workers.push(worker),
                Err(e) => {
                    handle.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(handle)
    }
}

/// A running server started by [`WireServer::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every worker, and join them.  Connections
    /// already being served finish their current request.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Each wake-up connection unblocks at most one worker's
        // `accept`; workers re-check the flag and exit.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// A connection's response buffers are reused across its requests,
/// but one huge answer must not pin its size for the connection's
/// life: beyond this they shrink back after the response is sent.
const KEPT_BUFFER_BYTES: usize = 1 << 20;

/// Serve one connection: read requests back-to-back (keep-alive and
/// pipelining fall out of reading sequentially from one buffered
/// stream), route each through the API, and write the response —
/// body encoded into one reused buffer, framed into a second, sent
/// with one `write_all`.
fn serve_connection(
    service: &QueryService,
    metrics: &WireMetrics,
    stream: TcpStream,
    config: &WireConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut body: Vec<u8> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    for served in 0..config.max_requests_per_connection {
        let mut request = match http::read_head(&mut reader, &config.limits) {
            Ok(request) => request,
            Err(RequestError::Closed) => return Ok(()),
            Err(e) => return refuse(&mut writer, e),
        };
        // `Expect: 100-continue` peers wait for the interim response
        // before sending the body.
        if request
            .header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        {
            http::write_continue(&mut writer)?;
        }
        if let Err(e) = http::read_body(&mut reader, &mut request, &config.limits) {
            return refuse(&mut writer, e);
        }
        // The last request this connection is allowed must say so:
        // advertising keep-alive and then closing would surprise a
        // pipelining client mid-request.
        let last_allowed = served + 1 == config.max_requests_per_connection;
        let keep_alive = request.keep_alive() && !last_allowed;
        let request_id = obs::next_request_id();
        let (_, requests, latency) = metrics.endpoint(&request.path);
        metrics.in_flight.add(1);
        // The slow-query log needs spans to point at; arm a trace for
        // the whole request when the log is on.  `/query` traces
        // compose with it (`trace_since`) and stay untouched.
        if config.slow_query_ms.is_some() {
            obs::trace_start();
        }
        let start = Instant::now();
        let reply = api::respond(
            service,
            &request.method,
            &request.path,
            &request.body,
            &mut body,
        );
        let elapsed = start.elapsed();
        latency.observe(elapsed);
        requests.inc();
        metrics.in_flight.sub(1);
        if let Some(threshold_ms) = config.slow_query_ms {
            let spans = obs::trace_finish();
            if elapsed.as_millis() as u64 >= threshold_ms {
                log_slow_request(
                    request_id,
                    &request.method,
                    &request.path,
                    reply.status,
                    elapsed,
                    &spans,
                );
            }
        }
        http::frame_response(
            &mut frame,
            reply.status,
            reply.content_type,
            &body,
            keep_alive,
        );
        writer.write_all(&frame)?;
        body.shrink_to(KEPT_BUFFER_BYTES);
        frame.shrink_to(KEPT_BUFFER_BYTES);
        if !keep_alive {
            return Ok(());
        }
    }
    Ok(())
}

/// Emit one slow-request JSON line to stderr: request id, route,
/// status, elapsed time, and the longest spans (name + duration) so
/// the log points at where the time went without needing a client-side
/// trace.
fn log_slow_request(
    request_id: u64,
    method: &str,
    path: &str,
    status: u16,
    elapsed: Duration,
    spans: &[obs::SpanRec],
) {
    let mut slowest: Vec<&obs::SpanRec> = spans.iter().collect();
    slowest.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    slowest.truncate(8);
    let spans_json: Vec<Json> = slowest
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::Str(s.name.to_string())),
                ("dur_us", Json::Int((s.dur_ns / 1_000) as i64)),
            ])
        })
        .collect();
    let line = Json::object([
        ("slow_request", Json::Bool(true)),
        (
            "request_id",
            Json::Int(request_id.min(i64::MAX as u64) as i64),
        ),
        ("method", Json::Str(method.to_string())),
        ("path", Json::Str(path.to_string())),
        ("status", Json::Int(i64::from(status))),
        (
            "elapsed_ms",
            Json::Int(elapsed.as_millis().min(i64::MAX as u128) as i64),
        ),
        ("spans", Json::Array(spans_json)),
    ]);
    eprintln!("{}", line.encode());
}

/// Answer a protocol-level failure with its status code and close the
/// connection (after a framing error the stream position is
/// untrustworthy, so keep-alive is never offered).
fn refuse(writer: &mut TcpStream, error: RequestError) -> std::io::Result<()> {
    let Some(status) = error.status() else {
        return Ok(()); // peer is gone; nothing to say
    };
    let body = Json::object([("error", Json::Str(error.to_string()))]).encode();
    http::write_response(writer, status, "application/json", &body, false)
}
