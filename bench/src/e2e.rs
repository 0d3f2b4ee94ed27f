//! End-to-end mode: spawn the release binary, drive it over real
//! sockets in a closed loop, check what it answered.
//!
//! Load model: one generator process, one thread per connection, as
//! many connections as the server has workers.  Callers wait for
//! replies, so reads are a closed loop; the `durable_mixed` writer
//! alone is paced on a fixed schedule and timed from each ingest's due
//! time.

use crate::client::{render, Conn};
use crate::gen::{Ingest, Kind, Query, Request, Workload, INGEST_HZ};
use crate::json;
use crate::metrics::{per_layer_unit, Readings};
use crate::oracle::{Expected, Reference};
use crate::rng::mix;
use crate::server::{wipe_dir, Server, SERVER_THREADS};
use crate::stats::{median, percentile, tail_percentile};
use rq_common::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub struct Config {
    /// The release `rqc` binary.
    pub rqc: PathBuf,
    /// Scratch directory for generated programs and the data dir.
    pub out: PathBuf,
    /// Length of the timed part.
    pub seconds: u64,
}

/// The server is started and warmed this many times per run and
/// `setup_s` is the median (the benchmark contract asks for a median of
/// several set-ups); the timed part runs against the last one.
const SETUPS: usize = 3;

/// What one end-to-end run measured.
pub struct E2eRun {
    /// The end-to-end metrics plus the ungated tail readings.
    pub metrics: Readings,
    /// Counter deltas over the timed part, read from `/stats` and
    /// `/metrics`, under their per-layer names.
    pub counts: Readings,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl E2eRun {
    /// Everything this run reports under a per-layer name: the
    /// end-to-end readings `BENCHMARK.json` does not gate, then the
    /// counter deltas.
    pub fn per_layer(&self) -> Readings {
        let mut out = Readings::default();
        for m in &self.metrics.0 {
            if per_layer_unit(m.name).is_some() {
                out.layer(m.name, m.value, m.samples);
            }
        }
        out.extend(self.counts.clone());
        out
    }
}

/// One response kept for answer checking after the clock has stopped.
struct Kept {
    request: Request,
    status: u16,
    body: Vec<u8>,
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// One reader connection's timed part.
#[derive(Default)]
struct ReadLog {
    latencies_ms: Vec<f64>,
    /// Queries in responses that passed the in-loop check (status 200,
    /// every answer converged).
    queries_ok: u64,
    non_200: u64,
    kept: Vec<Kept>,
    tally: Tally,
    finished: Option<Instant>,
}

/// The writer connection's timed part.
#[derive(Default)]
struct WriteLog {
    /// Acknowledgement latency from each ingest's due time.
    latencies_ms: Vec<f64>,
    late_ms_max: f64,
    /// Ingests acknowledged with the epoch the ack carried.
    acked: Vec<(Ingest, u64)>,
    non_200: u64,
    tally: Tally,
}

const NEEDLE: &[u8] = b"\"converged\":true";

fn count_in(hay: &[u8], needle: &[u8]) -> usize {
    let mut count = 0;
    let mut at = 0;
    while let Some(i) = hay[at..].iter().position(|&b| b == needle[0]) {
        let start = at + i;
        if hay[start..].starts_with(needle) {
            count += 1;
            at = start + needle.len();
        } else {
            at = start + 1;
        }
    }
    count
}

/// The in-loop check, cheap enough not to steal the server's CPU: every
/// answer of the response says it converged.
fn all_converged(request: &Request, body: &[u8]) -> bool {
    count_in(body, NEEDLE) == request.queries().len()
}

/// How many timed responses are kept for full checking: the first 128
/// of each connection and a seeded one in `stride` after that, so at
/// least 256 per run whatever the server's speed.
fn keep(kind: Kind, seed: u64, conn: usize, i: u64) -> bool {
    let stride = match kind {
        Kind::NarySweep => 8,
        _ => 64,
    };
    i < 128 || mix(seed ^ ((conn as u64) << 48) ^ i).is_multiple_of(stride)
}

/// One reader's closed loop until `deadline`.  A finite stream that
/// runs out raises `drained`, which stops the other readers too: the
/// timed part never runs at less than full concurrency.
fn read_loop(
    w: &Workload,
    conn_index: usize,
    conns: usize,
    conn: &mut Conn,
    deadline: Instant,
    drained: &AtomicBool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut stream = w.read_stream(conn_index, conns);
    let (mut raw, mut body) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    while Instant::now() < deadline && !drained.load(Ordering::Relaxed) {
        let Some(request) = stream.next_request() else {
            drained.store(true, Ordering::Relaxed);
            break;
        };
        render(&mut raw, "POST", request.path(), &request.body());
        log.tally.attempted += 1;
        // (`exchange` makes a due reconnect before it starts the stopwatch.)
        match conn.exchange(&raw, &mut body) {
            Ok((status, took)) => {
                log.latencies_ms.push(took.as_secs_f64() * 1e3);
                if status != 200 {
                    log.non_200 += 1;
                    log.tally
                        .fail(format!("{}: status {status}", request.body()));
                } else if !all_converged(&request, &body) {
                    log.tally
                        .fail(format!("{}: an answer did not converge", request.body()));
                } else {
                    log.queries_ok += request.queries().len() as u64;
                    if keep(w.kind, w.seed, conn_index, i) {
                        log.kept.push(Kept {
                            request,
                            status,
                            body: body.clone(),
                        });
                    }
                }
            }
            Err(e) => {
                log.tally.fail(format!("{}: {e}", request.body()));
                conn.mark_broken();
                if conn.ensure_open().is_err() {
                    break; // the server is gone; no point hammering
                }
            }
        }
        i += 1;
    }
    log.finished = Some(Instant::now());
    log
}

fn write_loop(w: &Workload, conn: &mut Conn, start: Instant, deadline: Instant) -> WriteLog {
    let mut log = WriteLog::default();
    let period = Duration::from_secs(1) / INGEST_HZ as u32;
    let (mut raw, mut body) = (Vec::new(), Vec::new());
    for k in 1u64.. {
        let due = start + period * (k as u32 - 1);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let ingest = w.ingest(k);
        render(&mut raw, "POST", "/ingest", &ingest.body());
        log.tally.attempted += 1;
        if conn.ensure_open().is_err() {
            log.tally.fail(format!("ingest {k}: cannot reconnect"));
            break;
        }
        let late = Instant::now().saturating_duration_since(due);
        log.late_ms_max = log.late_ms_max.max(late.as_secs_f64() * 1e3);
        match conn.exchange(&raw, &mut body) {
            Ok((status, _)) => {
                // From the due time: a stall charges every ingest it delays.
                log.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let ack = std::str::from_utf8(&body)
                    .ok()
                    .and_then(|t| json::parse(t).ok());
                let epoch = ack
                    .as_ref()
                    .and_then(|a| a.get("epoch"))
                    .and_then(Json::as_i64);
                let durable = ack
                    .as_ref()
                    .and_then(|a| a.get("durable"))
                    .and_then(Json::as_bool);
                match (status, epoch, durable) {
                    (200, Some(epoch), Some(true)) => log.acked.push((ingest, epoch as u64)),
                    _ => {
                        log.non_200 += u64::from(status != 200);
                        log.tally.fail(format!(
                            "ingest {k}: status {status}, body {}",
                            String::from_utf8_lossy(&body)
                        ));
                    }
                }
            }
            Err(e) => {
                log.tally.fail(format!("ingest {k}: {e}"));
                conn.mark_broken();
            }
        }
    }
    log
}

/// One served answer to `query`, in the oracle's terms, with the epoch
/// it was computed on.
fn served(query: &Query, answer: &Json) -> Result<(Expected, u64), String> {
    if let Some(error) = answer.get("error").and_then(Json::as_str) {
        return Err(format!("server error: {error}"));
    }
    if answer.get("converged").and_then(Json::as_bool) != Some(true) {
        return Err("answer did not converge".into());
    }
    let epoch = answer
        .get("epoch")
        .and_then(Json::as_i64)
        .ok_or("answer without an epoch")? as u64;
    if let Query::Member(..) = query {
        let holds = answer.get("holds").and_then(Json::as_bool);
        return Ok((
            Expected::Holds(holds.ok_or("membership answer without `holds`")?),
            epoch,
        ));
    }
    let rows = answer
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("answer without rows")?;
    // Constants come back as the generator named them: `n<id>`, `p<id>`.
    let id = |col: Option<&Json>, prefix: char| {
        col.and_then(Json::as_str)
            .and_then(|s| s.strip_prefix(prefix))
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| format!("unexpected column {col:?}"))
    };
    let expected = if let Query::Cnx(..) = query {
        let mut pairs = Vec::with_capacity(rows.len());
        for row in rows {
            let [dest, at] = row.as_array().unwrap_or_default() else {
                return Err(format!("a cnx row has two columns, not {row:?}"));
            };
            let at = at.as_i64().ok_or("arrival is not a number")?;
            pairs.push((id(Some(dest), 'p')?, at as u32));
        }
        pairs.sort_unstable();
        Expected::Pairs(pairs)
    } else {
        let mut nodes = Vec::with_capacity(rows.len());
        for row in rows {
            let [node] = row.as_array().unwrap_or_default() else {
                return Err(format!("a tc row has one column, not {row:?}"));
            };
            nodes.push(id(Some(node), 'n')?);
        }
        nodes.sort_unstable();
        Expected::Nodes(nodes)
    };
    Ok((expected, epoch))
}

/// Compare one response body (already decoded) with the reference
/// answers: the row set of every query in it, at the epoch the answer
/// says it was computed on.
pub fn check_answers(reference: &Reference, request: &Request, json: &Json) -> Result<(), String> {
    let check_one = |query: &Query, answer: &Json| -> Result<(), String> {
        let (got, epoch) = served(query, answer)?;
        let want = reference.answer(query, epoch);
        if got == want {
            return Ok(());
        }
        Err(format!(
            "{} at epoch {epoch}: served {}, reference {}",
            query.text(),
            got.describe(),
            want.describe()
        ))
    };
    match request {
        Request::Query(q) => check_one(q, json),
        Request::Batch(queries) => {
            let answers = json
                .get("answers")
                .and_then(Json::as_array)
                .ok_or("batch response without answers")?;
            if answers.len() != queries.len() {
                return Err(format!(
                    "{} answers for {} queries",
                    answers.len(),
                    queries.len()
                ));
            }
            queries
                .iter()
                .zip(answers)
                .try_for_each(|(q, a)| check_one(q, a))
        }
    }
}

/// Compare one kept response with the reference answers.
fn check(reference: &Reference, kept: &Kept) -> Result<(), String> {
    if kept.status != 200 {
        return Err(format!("status {}", kept.status));
    }
    let json = std::str::from_utf8(&kept.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|t| json::parse(t).map_err(|e| format!("body is not JSON: {e}")))?;
    check_answers(reference, &kept.request, &json)
}

/// Send every warm-up request once, dealt round-robin to the
/// connections, and keep every response for checking.
fn warm_up(w: &Workload, conns: &mut [Conn]) -> (Vec<Kept>, Tally) {
    let n = conns.len();
    let results: Vec<(Vec<Kept>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let (mut kept, mut tally) = (Vec::new(), Tally::default());
                    let (mut raw, mut body) = (Vec::new(), Vec::new());
                    for request in w.warmup.iter().skip(c).step_by(n) {
                        render(&mut raw, "POST", request.path(), &request.body());
                        tally.attempted += 1;
                        match conn.exchange(&raw, &mut body) {
                            Ok((status, _)) => kept.push(Kept {
                                request: request.clone(),
                                status,
                                body: body.clone(),
                            }),
                            Err(e) => {
                                tally.fail(format!("warm-up {}: {e}", request.body()));
                                conn.mark_broken();
                            }
                        }
                    }
                    (kept, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let (mut kept, mut tally) = (Vec::new(), Tally::default());
    for (k, t) in results {
        kept.extend(k);
        tally.absorb(t);
    }
    (kept, tally)
}

/// A server that has answered its warm-up.
struct Warm {
    server: Server,
    conns: Vec<Conn>,
    kept: Vec<Kept>,
    tally: Tally,
}

fn set_up(
    w: &Workload,
    cfg: &Config,
    program: &Path,
    data_dir: Option<&Path>,
) -> Result<(Warm, f64), String> {
    if let Some(dir) = data_dir {
        wipe_dir(dir)?;
    }
    let start = Instant::now();
    let server = Server::spawn(&cfg.rqc, program, data_dir)?;
    let mut conns = (0..SERVER_THREADS)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect to {}: {e}", server.addr))?;
    let (kept, tally) = warm_up(w, &mut conns);
    let took = start.elapsed().as_secs_f64();
    Ok((
        Warm {
            server,
            conns,
            kept,
            tally,
        },
        took,
    ))
}

/// `GET /stats` as JSON and `GET /metrics` as text.
fn scrape(conn: &mut Conn) -> Result<(Json, String), String> {
    let (status, stats) = conn
        .call("GET", "/stats", "")
        .map_err(|e| format!("/stats: {e}"))?;
    let stats = json::parse(&stats).map_err(|e| format!("/stats is not JSON: {e}"))?;
    let (mstatus, metrics) = conn
        .call("GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 || mstatus != 200 {
        return Err(format!("/stats answered {status}, /metrics {mstatus}"));
    }
    Ok((stats, metrics))
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The sum of every unlabelled-or-labelled sample of one metric family
/// in a Prometheus text exposition.
fn prom(metrics: &str, family: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Counter deltas over the timed part, under their per-layer names.
fn counts(
    before: &(Json, String),
    after: &(Json, String),
    reconnects: u64,
    non_200: u64,
    acked_facts: u64,
    data_dir: Option<&Path>,
) -> Readings {
    let mut out = Readings::default();
    let delta = |path: &[&str]| stat(&after.0, path) - stat(&before.0, path);
    let prom_delta = |family: &str| prom(&after.1, family) - prom(&before.1, family);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let requests = prom_delta("rq_http_requests_total");
    out.layer("wire.reconnects", reconnects as f64, 1);
    out.layer("wire.requests_total", requests, 1);
    out.layer("wire.non2xx_total", non_200 as f64, 1);
    let (hits, misses) = (
        delta(&["result_cache", "hits"]),
        delta(&["result_cache", "misses"]),
    );
    out.layer(
        "service.result_cache_hit_ratio",
        ratio(hits, misses),
        (hits + misses) as u64,
    );
    out.layer(
        "service.result_cache_evictions",
        delta(&["result_cache", "evictions"]),
        1,
    );
    out.layer(
        "service.result_cache_bytes",
        stat(&after.0, &["result_cache", "bytes"]),
        1,
    );
    out.layer(
        "service.plan_cache_misses",
        delta(&["plan_cache", "misses"]),
        1,
    );
    // The epoch context's memo counters restart at every publish: a
    // delta only means something when no epoch was published between
    // the two scrapes; otherwise the current epoch's own counts stand.
    let same_epoch = stat(&before.0, &["epoch"]) == stat(&after.0, &["epoch"]);
    let memo = |which: &str, field: &str| {
        let path = ["epoch_context", which, field];
        if same_epoch {
            delta(&path)
        } else {
            stat(&after.0, &path)
        }
    };
    for (name, which) in [
        ("service.machine_memo_hit_ratio", "machine_memo"),
        ("service.probe_memo_hit_ratio", "probe_memo"),
    ] {
        let (hits, misses) = (memo(which, "hits"), memo(which, "misses"));
        out.layer(name, ratio(hits, misses), (hits + misses) as u64);
    }
    out.layer(
        "service.delta_repairs",
        delta(&["delta_repair", "repairs"]),
        1,
    );
    out.layer(
        "service.delta_repaired_rows",
        delta(&["delta_repair", "repaired_rows"]),
        1,
    );
    out.layer(
        "service.delta_fallback_cold",
        delta(&["delta_repair", "fallback_cold"]),
        1,
    );
    out.layer(
        "service.carried_machine_entries",
        stat(&after.0, &["epoch_context", "carried", "machine_entries"]),
        1,
    );
    out.layer(
        "engine.graph_nodes_total",
        prom_delta("rq_engine_graph_nodes_total"),
        1,
    );
    out.layer(
        "engine.memo_teleports_total",
        prom_delta("rq_engine_memo_teleports_total"),
        1,
    );
    out.layer(
        "engine.machine_instances_total",
        prom_delta("rq_engine_machine_instances_total"),
        1,
    );
    out.layer("datalog.csr_builds", delta(&["storage", "csr_builds"]), 1);
    out.layer(
        "datalog.csr_build_us",
        delta(&["storage", "csr_build_micros"]),
        1,
    );
    out.layer("datalog.csr_probes", delta(&["storage", "csr_probes"]), 1);
    out.layer("datalog.trie_probes", delta(&["storage", "trie_probes"]), 1);
    let wal = ["durability", "wal"];
    let wal_delta = |field: &str| delta(&[wal[0], wal[1], field]);
    let per_fact = |bytes: f64| {
        if acked_facts > 0 {
            bytes / acked_facts as f64
        } else {
            0.0
        }
    };
    out.layer(
        "store.wal_bytes_per_fact",
        per_fact(wal_delta("bytes")),
        acked_facts,
    );
    out.layer(
        "store.disk_bytes_per_fact",
        per_fact(data_dir.map_or(0, dir_bytes) as f64),
        acked_facts,
    );
    out.layer("store.wal_records", wal_delta("records"), 1);
    out.layer("store.checkpoints", wal_delta("checkpoints"), 1);
    out.layer(
        "store.checkpoint_failures",
        wal_delta("checkpoint_failures"),
        1,
    );
    out
}

/// Crash-and-restart cycles after the timed part of `durable_mixed`;
/// `recovery_s` is their median (one 60 ms reading is mostly process
/// start-up jitter).
const RECOVERIES: usize = 5;

/// After the timed part of `durable_mixed`: `SIGKILL`, restart on the
/// same directory — several times over — and confirm nothing
/// acknowledged was lost.  Returns the median restart-to-healthy time.
fn crash_and_recover(
    cfg: &Config,
    program: &Path,
    data_dir: &Path,
    mut server: Server,
    acked: &[(Ingest, u64)],
    tally: &mut Tally,
) -> Result<(f64, Server), String> {
    let mut recovery_s = Vec::with_capacity(RECOVERIES);
    let mut conn = loop {
        server.kill();
        let start = Instant::now();
        server = Server::spawn(&cfg.rqc, program, Some(data_dir))?;
        let mut conn =
            Conn::connect(server.addr).map_err(|e| format!("reconnect after restart: {e}"))?;
        let (status, _) = conn
            .call("GET", "/healthz", "")
            .map_err(|e| format!("/healthz after restart: {e}"))?;
        recovery_s.push(start.elapsed().as_secs_f64());
        tally.attempted += 1;
        if status != 200 {
            tally.fail(format!("/healthz after restart answered {status}"));
        }
        if recovery_s.len() == RECOVERIES {
            break conn;
        }
    };
    // The recovery block must name the last acknowledged epoch …
    let (stats, _) = scrape(&mut conn)?;
    let recovered = stat(&stats, &["durability", "recovery", "epoch"]) as u64;
    let last_acked = acked.iter().map(|&(_, epoch)| epoch).max().unwrap_or(0);
    tally.attempted += 1;
    if recovered != last_acked {
        tally.fail(format!(
            "recovered to epoch {recovered}, last acknowledged epoch was {last_acked}"
        ));
    }
    // … and every acknowledged chain must still be there, end to end.
    for (ingest, epoch) in acked {
        for &(anchor, tail) in &ingest.tails {
            let query = Request::Query(Query::Member(anchor, tail));
            tally.attempted += 1;
            match conn.call("POST", "/query", &query.body()) {
                Ok((200, text)) if text.contains("\"holds\":true") => {}
                Ok((status, text)) => tally.fail(format!(
                    "acknowledged epoch {epoch} lost after restart: {} answered {status} {text}",
                    query.body()
                )),
                Err(e) => tally.fail(format!("{} after restart: {e}", query.body())),
            }
        }
    }
    Ok((median(&recovery_s), server))
}

pub fn run(w: &Workload, cfg: &Config) -> Result<E2eRun, String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out.display()))?;
    let program = cfg.out.join(format!("{}.dl", w.kind.name()));
    std::fs::write(&program, &w.program)
        .map_err(|e| format!("cannot write {}: {e}", program.display()))?;
    let durable = w.kind == Kind::DurableMixed;
    let data_dir = durable.then(|| cfg.out.join(format!("data-{}", w.kind.name())));

    // Set-up, `SETUPS` times over: the median is steadier than one
    // reading.  The last server stays up for the timed part, and every
    // answer of its warm-up gets checked.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut tally = Tally::default();
    let mut live: Option<Warm> = None;
    for _ in 0..SETUPS {
        drop(live.take()); // kills the previous server
        let (warm, took) = set_up(w, cfg, &program, data_dir.as_deref())?;
        setup_s.push(took);
        live = Some(warm);
    }
    let Warm {
        server,
        mut conns,
        kept: warm_kept,
        tally: warm_tally,
    } = live.expect("at least one set-up ran");
    tally.absorb(warm_tally);

    // The timed part.
    let before = scrape(&mut conns[0])?;
    let cpu_before = server.cpu_ms()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let drained = AtomicBool::new(false);
    let (read_logs, write_log): (Vec<ReadLog>, Option<WriteLog>) = std::thread::scope(|scope| {
        let readers = if durable { 1 } else { conns.len() };
        let (read_conns, write_conns) = conns.split_at_mut(readers);
        let read_handles: Vec<_> = read_conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let drained = &drained;
                scope.spawn(move || read_loop(w, c, readers, conn, deadline, drained))
            })
            .collect();
        let write_handle = write_conns
            .first_mut()
            .map(|conn| scope.spawn(move || write_loop(w, conn, start, deadline)));
        (
            read_handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect(),
            write_handle.map(|h| h.join().expect("writer thread panicked")),
        )
    });
    let cpu_ms = server.cpu_ms()? - cpu_before;
    let rss_mb = server.rss_peak_mb()?;
    let after = scrape(&mut conns[0])?;
    let reconnects: u64 = conns.iter().map(|c| c.reconnects).sum();
    drop(conns);

    // Stop the clock on reads where the last reader stopped (at most one
    // request after the first, when a stream drained).
    let wall_s = read_logs
        .iter()
        .filter_map(|l| l.finished)
        .max()
        .map_or(cfg.seconds as f64, |end| (end - start).as_secs_f64());
    let mut latencies: Vec<f64> = Vec::new();
    let mut queries_ok = 0u64;
    let mut non_200 = 0u64;
    let mut timed_kept = Vec::new();
    let mut requests = 0u64;
    for log in read_logs {
        requests += log.tally.attempted;
        latencies.extend(log.latencies_ms);
        queries_ok += log.queries_ok;
        non_200 += log.non_200;
        timed_kept.extend(log.kept);
        tally.absorb(log.tally);
    }
    let mut ingest_ms = Vec::new();
    let mut late_ms_max = 0.0;
    let mut acked = Vec::new();
    if let Some(log) = write_log {
        requests += log.tally.attempted;
        ingest_ms = log.latencies_ms;
        late_ms_max = log.late_ms_max;
        acked = log.acked;
        non_200 += log.non_200;
        tally.absorb(log.tally);
    }
    let acked_facts = acked.iter().map(|(i, _)| i.edges.len() as u64).sum();
    let counts = counts(
        &before,
        &after,
        reconnects,
        non_200,
        acked_facts,
        data_dir.as_deref(),
    );

    // Durability, then the server's work is done.
    let mut recovery_s = None;
    let server = match &data_dir {
        Some(dir) => {
            let (took, server) = crash_and_recover(cfg, &program, dir, server, &acked, &mut tally)?;
            recovery_s = Some(took);
            server
        }
        None => server,
    };
    server.kill();

    // Answer checking, off the clock: every warm-up response and the
    // kept sample of timed ones against the harness's own reference.
    let mut reference = Reference::new(&w.data);
    for (ingest, epoch) in &acked {
        reference.add_edges(&ingest.edges, *epoch);
    }
    let checked_timed = timed_kept.len();
    for kept in &warm_kept {
        if let Err(why) = check(&reference, kept) {
            tally.fail(format!("warm-up {}: {why}", kept.request.body()));
        }
    }
    for kept in &timed_kept {
        if let Err(why) = check(&reference, kept) {
            // It passed the in-loop check and was counted as answered;
            // take its queries back.
            tally.fail(format!("{}: {why}", kept.request.body()));
            queries_ok = queries_ok.saturating_sub(kept.request.queries().len() as u64);
        }
    }
    if checked_timed < 256 {
        tally.fail(format!(
            "only {checked_timed} timed responses were checked; the run is too short to vouch for"
        ));
    }

    latencies.sort_by(f64::total_cmp);
    let n = latencies.len() as u64;
    if latencies.is_empty() {
        return Err(format!(
            "no read completed in the timed part; first failures: {:?}",
            tally.failures
        ));
    }
    let mut metrics = Readings::default();
    metrics.end_to_end("setup_s", median(&setup_s), setup_s.len() as u64);
    metrics.end_to_end("throughput_qps", queries_ok as f64 / wall_s, queries_ok);
    metrics.end_to_end("read_p50_ms", percentile(&latencies, 50.0), n);
    metrics.end_to_end("read_p95_ms", percentile(&latencies, 95.0), n);
    if durable {
        ingest_ms.sort_by(f64::total_cmp);
        if ingest_ms.is_empty() {
            return Err("no ingest completed in the timed part".into());
        }
        let m = ingest_ms.len() as u64;
        metrics.end_to_end("ingest_p50_ms", percentile(&ingest_ms, 50.0), m);
        metrics.end_to_end("ingest_p90_ms", percentile(&ingest_ms, 90.0), m);
        metrics.end_to_end(
            "recovery_s",
            recovery_s.expect("durable runs recover"),
            RECOVERIES as u64,
        );
        metrics.layer("writer_late_ms_max", late_ms_max, m);
    }
    metrics.end_to_end(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted,
    );
    metrics.end_to_end(
        "server_cpu_ms_per_req",
        cpu_ms / requests.max(1) as f64,
        requests,
    );
    metrics.end_to_end("server_rss_mb", rss_mb, 1);
    metrics.layer("read_p99_ms", percentile(&latencies, 99.0), n);
    if let Some(p) = tail_percentile(latencies.len()) {
        metrics.layer("read_tail_ms", percentile(&latencies, p), n);
        metrics.layer("read_tail_percentile", p, n);
    }
    Ok(E2eRun {
        metrics,
        counts,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_check_counts_every_answer() {
        let one = br#"{"query":"tc(n1, Y)","epoch":0,"rows":[["n2"]],"converged":true,"from_cache":false}"#;
        assert!(all_converged(&Request::Query(Query::Fwd(1)), one));
        let capped =
            br#"{"query":"tc(n1, Y)","epoch":0,"rows":[],"converged":false,"from_cache":false}"#;
        assert!(!all_converged(&Request::Query(Query::Fwd(1)), capped));
        // The flag need not sit at the end of the body.
        let trailed = br#"{"rows":[["n2"]],"converged":true,"from_cache":false,"explain":"a field the wire may grow later, longer than any fixed tail window"}"#;
        assert!(all_converged(&Request::Query(Query::Fwd(1)), trailed));
        let batch = Request::Batch(vec![Query::Cnx(1, 360), Query::Cnx(2, 360)]);
        let both = br#"{"epoch":0,"answers":[{"converged":true},{"converged":true}]}"#;
        let one_error = br#"{"epoch":0,"answers":[{"converged":true},{"error":"x"}]}"#;
        assert!(all_converged(&batch, both));
        assert!(!all_converged(&batch, one_error));
        assert_eq!(count_in(b"aaa", b"aa"), 1);
        assert_eq!(count_in(b"", b"a"), 0);
    }

    #[test]
    fn served_answers_render_like_the_oracle() {
        let rows =
            json::parse(r#"{"epoch":3,"rows":[["p7",450],["p2",510]],"converged":true}"#).unwrap();
        assert_eq!(
            served(&Query::Cnx(1, 360), &rows),
            Ok((Expected::Pairs(vec![(2, 510), (7, 450)]), 3))
        );
        let nodes = json::parse(r#"{"epoch":1,"rows":[["n10"],["n9"]],"converged":true}"#).unwrap();
        assert_eq!(
            served(&Query::Fwd(1), &nodes),
            Ok((Expected::Nodes(vec![9, 10]), 1))
        );
        assert!(served(&Query::Cnx(1, 360), &nodes).is_err());
        let holds = json::parse(r#"{"epoch":0,"holds":false,"rows":[],"converged":true}"#).unwrap();
        assert_eq!(
            served(&Query::Member(1, 2), &holds),
            Ok((Expected::Holds(false), 0))
        );
        let capped = json::parse(r#"{"epoch":0,"rows":[],"converged":false}"#).unwrap();
        assert!(served(&Query::Fwd(1), &capped).is_err());
    }

    #[test]
    fn prometheus_families_sum_over_labels_and_match_whole_names() {
        let text = "# HELP rq_x_total x\nrq_x_total{endpoint=\"/a\"} 3\nrq_x_total{endpoint=\"/b\"} 4\nrq_x_total_more 100\nrq_y 2.5\n";
        assert_eq!(prom(text, "rq_x_total"), 7.0);
        assert_eq!(prom(text, "rq_y"), 2.5);
        assert_eq!(prom(text, "rq_z"), 0.0);
    }

    #[test]
    fn sampling_keeps_at_least_256_responses() {
        for kind in Kind::ALL {
            let early = (0..2)
                .map(|c| (0..128).filter(|&i| keep(kind, 42, c, i)).count())
                .sum::<usize>();
            assert_eq!(early, 256);
            let later = (128..100_128).filter(|&i| keep(kind, 42, 0, i)).count();
            assert!(later > 1_000, "{later}");
        }
    }
}
