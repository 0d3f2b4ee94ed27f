//! Layers mode: replay a workload's seeded request stream in-process,
//! with a stopwatch span around each call into a layer's public
//! functions, and time the layers below the wire by shadow calls.
//!
//! Everything here measures from outside: only `pub` items of the
//! repository's crates are called and nothing inside them is
//! instrumented.  A layer's *self time* is therefore an estimate — the
//! difference between the median of a call and the median of the
//! lower-layer call it makes, each measured on the same inputs.
//! Single-threaded except inside the service's own pools.

use crate::client::render;
use crate::e2e::{check_answers, Tally};
use crate::gen::{Data, Kind, Query, Reads, Request, Workload};
use crate::metrics::Readings;
use crate::oracle::Reference;
use crate::rng::Rng;
use crate::server::{wipe_dir, SERVER_THREADS};
use crate::span::{durations, durations_under, self_times, to_json, Recorder};
use crate::stats::median;
use rq_adorn::{evaluate_nary, evaluate_nary_shared, plan_nary_query, Adornment, ProbeSpace};
use rq_common::{Const, ConstValue, FxHashSet, Json};
use rq_datalog::{mask_of, parse_program, Database, Program, Relation};
use rq_engine::{evaluate_with_cyclic_guard, EvalOptions};
use rq_relalg::{lemma1, EqSystem, Lemma1Options};
use rq_service::{QueryService, QuerySpec, ServiceConfig};
use rq_store::{FileBackend, FsyncPolicy, StorageBackend};
use rq_wire::{api, http};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per workload (after the warm-up): the head of
/// connection 0's stream.
const REPLAY_READS: usize = 5_000;
/// `nary_sweep` replays batches of 32, so a tenth as many requests.
const REPLAY_BATCHES: usize = 500;
/// `durable_mixed` publishes one ingest every this many replayed reads
/// (100 ingests over the replay).
const READS_PER_INGEST: usize = 50;
/// Traversal sources per graph family in the `engine.*` sweep.
const FAMILY_SOURCES: usize = 500;
/// Repetitions of each storage probe.
const PROBES: usize = 200_000;

pub struct LayerRun {
    pub readings: Readings,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The service settings `rqc serve --threads 2` runs with.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: SERVER_THREADS,
        eval_threads: SERVER_THREADS,
        ..ServiceConfig::default()
    }
}

fn service(program: &Program) -> QueryService {
    QueryService::with_config(program.clone(), service_config())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as f64)
}

fn p50_us(ns: &[f64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        median(ns) / 1e3
    }
}

/// Answer every warm-up query once, straight through the service.
fn warm(service: &QueryService, w: &Workload) {
    for q in w.warmup.iter().flat_map(|r| r.queries()) {
        if let Ok(spec) = service.parse_query(&q.text()) {
            let _ = service.query(&spec);
        }
    }
}

/// What the shadow calls of a replay need besides the service itself.
struct Shadows<'a> {
    /// A second service nothing has warmed: every distinct spec it sees
    /// is a result-cache miss.
    fresh: &'a QueryService,
    seen: FxHashSet<QuerySpec>,
    /// `lemma1(program)` for `engine.evaluate` (binary-chain programs).
    system: Option<&'a EqSystem>,
    /// The compiled §4 plan and a probe space that stays warm
    /// (`nary_sweep`).
    nary: Option<(&'a rq_adorn::NaryPlan, Arc<ProbeSpace>)>,
    /// Per batch: Σ `adorn.evaluate_shared` over its queries, in ns.
    batch_eval_ns: Vec<f64>,
    /// Σ `Json::encode` over every answer body, in ns.
    json_encode_ns: f64,
}

/// Totals of one replay.
#[derive(Default)]
struct ReplayTotals {
    requests: u64,
    rows: u64,
    response_bytes: u64,
    from_cache: u64,
    answers: u64,
}

fn count_rows(request: &Request, body: &Json, totals: &mut ReplayTotals) -> u64 {
    let one = |answer: &Json, totals: &mut ReplayTotals| {
        totals.answers += 1;
        totals.from_cache +=
            u64::from(answer.get("from_cache").and_then(Json::as_bool) == Some(true));
        answer
            .get("rows")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len) as u64
    };
    match request {
        Request::Query(_) => one(body, totals),
        Request::Batch(_) => body
            .get("answers")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|a| one(a, totals))
            .sum(),
    }
}

/// Serve one rendered request the way a wire worker does — read it off
/// the bytes, route it, encode the response — under a root span (`request`
/// for reads, `ingest` for writes) with one child per step.
fn serve(
    rec: &mut Recorder,
    root_name: &'static str,
    rid: u32,
    service: &QueryService,
    raw: &[u8],
    out: &mut Vec<u8>,
) -> Result<(http::Request, api::ApiResponse), String> {
    let limits = http::Limits::default();
    let root = rec.root(root_name, rid);
    let step = rec.child("wire.read_request", root, rid);
    let mut reader: &[u8] = raw;
    let mut request = http::read_head(&mut reader, &limits).map_err(|e| e.to_string())?;
    http::read_body(&mut reader, &mut request, &limits).map_err(|e| e.to_string())?;
    rec.close(step);
    let step = rec.child("wire.handle", root, rid);
    let response = api::handle(service, &request.method, &request.path, &request.body);
    rec.close(step);
    let step = rec.child("wire.encode", root, rid);
    let payload = response.payload();
    out.clear();
    http::write_response(
        out,
        response.status,
        response.content_type(),
        &payload,
        true,
    )
    .map_err(|e| e.to_string())?;
    rec.close(step);
    rec.close_root(root);
    Ok((request, response))
}

/// Shadow calls for one read request: the lower-layer calls `handle`
/// made, repeated one at a time on the same input.
fn shadow_read(
    rec: &mut Recorder,
    rid: u32,
    service: &QueryService,
    request: &Request,
    http_request: &http::Request,
    response: &api::ApiResponse,
    shadows: &mut Shadows,
) {
    let body = std::str::from_utf8(&http_request.body).expect("the harness rendered it");
    let _ = black_box(rec.shadow_call("common.json_parse", rid, || Json::parse(body)));
    let (_, encode_ns) = timed(|| black_box(response.body.encode()));
    shadows.json_encode_ns += encode_ns;
    let specs: Vec<QuerySpec> = request
        .queries()
        .iter()
        .filter_map(|q| {
            let text = q.text();
            rec.shadow_call("service.parse_query", rid, || service.parse_query(&text))
                .ok()
        })
        .collect();
    match request {
        Request::Query(query) => {
            let Some(spec) = specs.first() else { return };
            // The request itself just ran, so its answer is cached now.
            let _ = black_box(rec.shadow_call_named(
                rid,
                || service.query(spec),
                |answer| match answer {
                    Ok(a) if a.from_cache => "service.query_hit",
                    _ => "service.query_uncached",
                },
            ));
            if shadows.seen.insert(spec.clone()) {
                let fresh = shadows.fresh;
                let _ = black_box(rec.shadow_call_named(
                    rid,
                    || fresh.query(spec),
                    |answer| match answer {
                        Ok(a) if !a.from_cache => "service.query_miss",
                        _ => "service.query_cached",
                    },
                ));
                if let (Some(system), Query::Fwd(a)) = (shadows.system, query) {
                    let snapshot = fresh.snapshot();
                    let a = snapshot
                        .program()
                        .consts
                        .get(&ConstValue::Str(format!("n{a}")));
                    if let Some(a) = a {
                        let options = EvalOptions {
                            expand_threads: SERVER_THREADS,
                            ..EvalOptions::default()
                        };
                        black_box(rec.shadow_call("engine.evaluate", rid, || {
                            evaluate_with_cyclic_guard(
                                system,
                                snapshot.db(),
                                spec.pred,
                                a,
                                &options,
                            )
                        }));
                    }
                }
            }
        }
        Request::Batch(_) => {
            let fresh = shadows.fresh;
            black_box(rec.shadow_call("service.batch", rid, || fresh.query_batch(&specs)));
            if let Some((plan, space)) = &shadows.nary {
                let snapshot = fresh.snapshot();
                // A batch's workers split the traversal threads.
                let options = EvalOptions {
                    node_budget: service_config().fallback_node_budget,
                    expand_threads: 1,
                    ..EvalOptions::default()
                };
                let mut sum = 0.0;
                for spec in &specs {
                    let bound = spec.bound_values();
                    let (_, ns) = timed(|| {
                        rec.shadow_call("adorn.evaluate_shared", rid, || {
                            evaluate_nary_shared(
                                snapshot.program(),
                                snapshot.db(),
                                plan,
                                &bound,
                                &options,
                                space,
                                None,
                            )
                        })
                    });
                    sum += ns;
                }
                shadows.batch_eval_ns.push(sum);
            }
        }
    }
}

/// Warm `service` up and replay the head of the workload's stream on
/// it.  With `shadows`, every stopwatch runs; without, only the
/// `request` span does.
fn replay(
    w: &Workload,
    service: &QueryService,
    mut shadows: Option<&mut Shadows>,
    reference: &mut Reference,
    tally: &mut Tally,
) -> (Recorder, ReplayTotals) {
    let mut rec = Recorder::new(shadows.is_some());
    let mut totals = ReplayTotals::default();
    let (mut raw, mut out) = (Vec::new(), Vec::new());
    // Warm-up: the same requests the end-to-end run sends first,
    // unspanned.  Its answers were checked there.
    let mut unspanned = Recorder::new(false);
    for request in &w.warmup {
        render(&mut raw, "POST", request.path(), &request.body());
        if let Err(e) = serve(&mut unspanned, "warm-up", 0, service, &raw, &mut out) {
            tally.fail(format!("warm-up {}: {e}", request.body()));
        }
    }
    drop(unspanned);
    let reads = match w.kind {
        Kind::NarySweep => REPLAY_BATCHES,
        _ => REPLAY_READS,
    };
    let mut stream = w.read_stream(0, 1);
    let mut rid = 0u32;
    let mut ingests = 0u64;
    for i in 0..reads {
        if w.kind == Kind::DurableMixed && i % READS_PER_INGEST == 0 {
            ingests += 1;
            let ingest = w.ingest(ingests);
            render(&mut raw, "POST", "/ingest", &ingest.body());
            tally.attempted += 1;
            match serve(&mut rec, "ingest", rid, service, &raw, &mut out) {
                Ok((_, response)) if response.status == 200 => {
                    reference.add_edges(&ingest.edges, ingests);
                }
                Ok((_, response)) => {
                    tally.fail(format!("ingest {ingests}: status {}", response.status))
                }
                Err(e) => tally.fail(format!("ingest {ingests}: {e}")),
            }
            rid += 1;
        }
        let Some(request) = stream.next_request() else {
            break;
        };
        render(&mut raw, "POST", request.path(), &request.body());
        tally.attempted += 1;
        match serve(&mut rec, "request", rid, service, &raw, &mut out) {
            Ok((http_request, response)) => {
                totals.requests += 1;
                totals.response_bytes += out.len() as u64;
                let rows = count_rows(&request, &response.body, &mut totals);
                totals.rows += rows;
                if response.status != 200 {
                    tally.fail(format!("{}: status {}", request.body(), response.status));
                } else if let Err(why) = check_answers(reference, &request, &response.body) {
                    tally.fail(format!("{}: {why}", request.body()));
                }
                if let Some(shadows) = shadows.as_deref_mut() {
                    shadow_read(
                        &mut rec,
                        rid,
                        service,
                        &request,
                        &http_request,
                        &response,
                        shadows,
                    );
                }
            }
            Err(e) => tally.fail(format!("{}: {e}", request.body())),
        }
        rid += 1;
    }
    (rec, totals)
}

/// The median `request` span (µs) of a replay that times nothing else,
/// on a service of its own.
fn plain_replay(w: &Workload, program: &Program, tally: &mut Tally) -> f64 {
    let service = service(program);
    let (rec, _) = replay(w, &service, None, &mut Reference::new(&w.data), tally);
    p50_us(&durations(rec.spans(), "request"))
}

/// `engine.*`: the traversal alone, over sources of each graph family.
fn engine_families(w: &Workload, service: &QueryService, system: &EqSystem, out: &mut Readings) {
    let Data::Graph(graph) = &w.data else { return };
    if w.kind != Kind::ColdReach {
        return;
    }
    let snapshot = service.snapshot();
    let Some(tc) = snapshot.program().pred_by_name("tc") else {
        return;
    };
    let options = EvalOptions {
        expand_threads: SERVER_THREADS,
        ..EvalOptions::default()
    };
    let mut rng = Rng::derive(w.seed, "engine-families");
    let (mut nodes, mut tuples, mut iterations, mut queries) = (0u64, 0u64, 0u64, 0u64);
    for &(family, start, len) in &graph.families {
        let mut ns = Vec::with_capacity(FAMILY_SOURCES);
        let mut family_nodes = 0u64;
        for _ in 0..FAMILY_SOURCES {
            let node = start + rng.below(len as usize) as u32;
            let Some(a) = snapshot
                .program()
                .consts
                .get(&ConstValue::Str(format!("n{node}")))
            else {
                continue;
            };
            let (outcome, took) =
                timed(|| evaluate_with_cyclic_guard(system, snapshot.db(), tc, a, &options));
            ns.push(took);
            family_nodes += outcome.counters.nodes_inserted;
            tuples += outcome.counters.tuples_retrieved;
            iterations += outcome.counters.iterations;
            queries += 1;
        }
        nodes += family_nodes;
        out.layer(
            &format!("engine.evaluate_us.{family}"),
            p50_us(&ns),
            ns.len() as u64,
        );
        out.layer(
            &format!("engine.ns_per_node.{family}"),
            ns.iter().sum::<f64>() / family_nodes.max(1) as f64,
            family_nodes,
        );
    }
    let per_query = |total: u64| total as f64 / queries.max(1) as f64;
    out.layer("engine.nodes_per_query", per_query(nodes), queries);
    out.layer("engine.tuples_per_query", per_query(tuples), queries);
    out.layer(
        "engine.iterations_per_query",
        per_query(iterations),
        queries,
    );
}

/// `datalog.*_probe_ns`: one probe of each read route over the
/// workload's own fact relation.
fn storage_probes(program: &Program, db: &Database, out: &mut Readings) {
    let name = if program.pred_by_name("flight").is_some() {
        "flight"
    } else {
        "e"
    };
    let Some(pred) = program.pred_by_name(name) else {
        return;
    };
    let relation = db.relation(pred);
    if relation.is_empty() {
        return;
    }
    let keys: Vec<Const> = relation.iter().map(|t| t[0]).take(PROBES).collect();
    let mut sink = 0usize;

    // CSR: a contiguous successor slice (binary relations only).
    if let Some(store) = relation.compact_store() {
        if store.successors(keys[0]).is_some() {
            let (_, ns) = timed(|| {
                for i in 0..PROBES {
                    sink +=
                        black_box(store.successors(keys[i % keys.len()])).map_or(0, <[Const]>::len);
                }
            });
            out.layer("datalog.csr_probe_ns", ns / PROBES as f64, PROBES as u64);
        }
    }

    // Trie: a built index on the columns the plans bind — the source
    // for `e`, (airport, departure) for `flight`.
    let mask = if relation.arity() == 2 {
        mask_of([0])
    } else {
        mask_of([0, 1])
    };
    let key_of = |t: &[Const]| {
        if relation.arity() == 2 {
            vec![t[0]]
        } else {
            vec![t[0], t[1]]
        }
    };
    let trie_keys: Vec<Vec<Const>> = relation.iter().take(PROBES).map(key_of).collect();
    relation.build_index(mask);
    let mut ords = Vec::new();
    let (_, ns) = timed(|| {
        for i in 0..PROBES {
            ords.clear();
            relation.lookup(mask, &trie_keys[i % trie_keys.len()], &mut ords);
            sink += black_box(ords.len());
        }
    });
    out.layer("datalog.trie_probe_ns", ns / PROBES as f64, PROBES as u64);

    // Scan: a shard small enough (≤ 64 tuples) that no index is built
    // and the columnar store is scanned.
    let small = Relation::from_rows(relation.arity(), relation.iter().take(64));
    small.build_compact();
    let small_keys: Vec<Vec<Const>> = small.iter().map(|t| vec![t[0]]).collect();
    let (_, ns) = timed(|| {
        for i in 0..PROBES {
            ords.clear();
            small.lookup(mask_of([0]), &small_keys[i % small_keys.len()], &mut ords);
            sink += black_box(ords.len());
        }
    });
    assert!(
        !small.has_index(mask_of([0])),
        "the small shard was scanned, not indexed"
    );
    out.layer("datalog.scan_probe_ns", ns / PROBES as f64, PROBES as u64);
    black_box(sink);
}

/// `adorn.plan_us` and `adorn.evaluate_cold_us` (`nary_sweep` only);
/// returns the compiled plan for the replay's shadow calls.
fn nary_plan(w: &Workload, program: &Program, out: &mut Readings) -> Option<rq_adorn::NaryPlan> {
    let cnx = program.pred_by_name("cnx")?;
    let adornment = Adornment::from_bound(4, [0, 1]);
    let mut plan_ns = Vec::new();
    let mut plan = None;
    for _ in 0..20 {
        let (p, ns) = timed(|| plan_nary_query(program, cnx, adornment));
        plan_ns.push(ns);
        plan = p.ok();
    }
    out.layer("adorn.plan_us", p50_us(&plan_ns), plan_ns.len() as u64);
    let plan = plan?;

    // Cold: a fresh probe space per query, so nothing is shared.
    let db = Database::from_program(program);
    db.prewarm_binary_indexes();
    db.build_compact_stores();
    let options = EvalOptions {
        node_budget: service_config().fallback_node_budget,
        expand_threads: SERVER_THREADS,
        ..EvalOptions::default()
    };
    let first_batch = w.read_stream(0, 1).next_request();
    let mut cold_ns = Vec::new();
    for q in first_batch.iter().flat_map(|r| r.queries()) {
        let Query::Cnx(a, dt) = *q else { continue };
        let bound = [
            program.consts.get(&ConstValue::Str(format!("p{a}")))?,
            program.consts.get(&ConstValue::Int(i64::from(dt)))?,
        ];
        let (_, ns) = timed(|| evaluate_nary(program, &db, &plan, &bound, &options));
        cold_ns.push(ns);
    }
    out.layer(
        "adorn.evaluate_cold_us",
        p50_us(&cold_ns),
        cold_ns.len() as u64,
    );
    Some(plan)
}

/// `service.ingest_nary_us`: one new flight into a service that holds
/// the replay's §4 results warm.
fn nary_ingest(warm: &QueryService, out: &mut Readings, tally: &mut Tally) {
    let mut ingest_ns = Vec::new();
    for k in 0..3 {
        let facts = format!("flight(p{k}, 365, p{}, 455). is_deptime(365).", k + 1);
        tally.attempted += 1;
        let (result, ns) = timed(|| warm.ingest(&facts));
        match result {
            Ok(_) => ingest_ns.push(ns),
            Err(e) => tally.fail(format!("nary ingest {k}: {e}")),
        }
    }
    out.layer(
        "service.ingest_nary_us",
        p50_us(&ingest_ns),
        ingest_ns.len() as u64,
    );
}

/// `service.ingest*_us`, `store.*` and `service.open_recover_s`
/// (`durable_mixed` only): the write path, layer by layer, on the
/// workload's own ingest stream.
fn durable_layers(
    w: &Workload,
    program: &Program,
    out_dir: &Path,
    out: &mut Readings,
    tally: &mut Tally,
) -> Result<(), String> {
    let ingests = (REPLAY_READS / READS_PER_INGEST) as u64;
    let mut ingest_all = |service: &QueryService, name: &'static str| {
        let mut ns = Vec::new();
        for k in 1..=ingests {
            let text = w.ingest(k).facts();
            tally.attempted += 1;
            let (result, took) = timed(|| service.ingest(&text));
            match result {
                Ok(_) => ns.push(took),
                Err(e) => tally.fail(format!("{name}: ingest {k}: {e}")),
            }
        }
        out.layer(name, p50_us(&ns), ns.len() as u64);
    };

    // In memory, with the 256 hot keys warm.
    let memory = service(program);
    warm(&memory, w);
    ingest_all(&memory, "service.ingest_us");
    drop(memory);

    // The same over a data directory (fsync `Always`, checkpoint every
    // 16 — the defaults the server runs with).
    let dir = out_dir.join("data-layers");
    let fresh_dir = |dir: &Path| -> Result<(), String> {
        wipe_dir(dir)?;
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
    };
    fresh_dir(&dir)?;
    let durable = QueryService::open_with_config(program.clone(), &dir, service_config())
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    warm(&durable, w);
    ingest_all(&durable, "service.ingest_durable_us");
    let wal_stats = durable.stats_report().durability;
    drop(durable);

    // Recovery of what that left behind: the store's load alone, then
    // the whole service open (restore + replay + index build).
    let backend = FileBackend::open(&dir, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let (loaded, ns) = timed(|| backend.load());
    let loaded = loaded.map_err(|e| format!("cannot load {}: {e}", dir.display()))?;
    out.layer("store.load_s", ns / 1e9, 1);
    let checkpoint = loaded.checkpoint.map(|(_, payload)| payload);
    drop(backend);
    let mut open_s = Vec::new();
    for _ in 0..5 {
        let (opened, ns) =
            timed(|| QueryService::open_with_config(program.clone(), &dir, service_config()));
        match opened {
            Ok(service) => {
                tally.attempted += 1;
                if service.snapshot().epoch() != ingests {
                    tally.fail(format!(
                        "in-process recovery reached epoch {}, {ingests} were acknowledged",
                        service.snapshot().epoch()
                    ));
                }
                open_s.push(ns / 1e9);
            }
            Err(e) => return Err(format!("cannot reopen {}: {e}", dir.display())),
        }
    }
    out.layer(
        "service.open_recover_s",
        median(&open_s),
        open_s.len() as u64,
    );

    // The store alone: appends of the run's record size under both
    // fsync policies, and a checkpoint install of the run's payload.
    let record_bytes = wal_stats
        .as_ref()
        .filter(|d| d.wal_records > 0)
        .map_or(256, |d| (d.wal_bytes / d.wal_records) as usize);
    let payload = vec![0xA5u8; record_bytes];
    for (name, policy) in [
        ("store.append_us", FsyncPolicy::Always),
        ("store.append_nofsync_us", FsyncPolicy::Never),
    ] {
        let scratch = out_dir.join("data-store");
        fresh_dir(&scratch)?;
        let backend = FileBackend::open(&scratch, policy).map_err(|e| e.to_string())?;
        let mut ns = Vec::new();
        for epoch in 1..=200u64 {
            let (result, took) = timed(|| backend.append(epoch, &payload));
            result.map_err(|e| format!("{name}: {e}"))?;
            ns.push(took);
        }
        out.layer(name, p50_us(&ns), ns.len() as u64);
        if policy == FsyncPolicy::Always {
            if let Some(snapshot) = &checkpoint {
                let mut ns = Vec::new();
                for epoch in [200u64, 201, 202, 203, 204] {
                    let (result, took) = timed(|| backend.install_checkpoint(epoch, snapshot));
                    result.map_err(|e| format!("store.checkpoint_us: {e}"))?;
                    ns.push(took);
                }
                out.layer("store.checkpoint_us", p50_us(&ns), ns.len() as u64);
            }
        }
    }
    Ok(())
}

/// Run layers mode for one workload.  `e2e_read_p50_ms` is the
/// end-to-end run's median read latency, for `wire.socket_residual_us`.
pub fn run(w: &Workload, out_dir: &Path, e2e_read_p50_ms: Option<f64>) -> Result<LayerRun, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut out = Readings::default();
    let mut tally = Tally::default();

    // rq-datalog, rq-relalg: what the server does before it listens.
    let (program, ns) = timed(|| parse_program(&w.program));
    let program = program.map_err(|e| format!("generated program does not parse: {e}"))?;
    out.layer("datalog.parse_program_s", ns / 1e9, 1);
    let facts = program.facts.len() as u64;
    let (db, insert_ns) = timed(|| Database::from_program(&program));
    let (_, index_ns) = timed(|| {
        db.prewarm_binary_indexes();
        db.build_compact_stores()
    });
    out.layer("datalog.db_build_s", (insert_ns + index_ns) / 1e9, 1);
    out.layer(
        "datalog.insert_ns_per_tuple",
        insert_ns / facts.max(1) as f64,
        facts,
    );
    storage_probes(&program, &db, &mut out);
    drop(db);
    let mut system = None;
    let mut lemma_ns = Vec::new();
    for _ in 0..20 {
        let (result, ns) = timed(|| lemma1(&program, &Lemma1Options::default()));
        if let Ok(output) = result {
            lemma_ns.push(ns);
            system = Some(output.system);
        }
    }
    if !lemma_ns.is_empty() {
        out.layer("relalg.lemma1_us", p50_us(&lemma_ns), lemma_ns.len() as u64);
    }

    // The first query on a cold service pays plan compilation and lazy
    // set-up on top of its own evaluation.
    let first = service(&program);
    if let Some(q) = w.warmup.first().and_then(|r| r.queries().first()) {
        let (result, ns) = timed(|| {
            first
                .parse_query(&q.text())
                .and_then(|spec| first.query(&spec))
        });
        if result.is_ok() {
            out.layer("service.first_query_us", ns / 1e3, 1);
        }
    }
    drop(first);

    // Replay with only the `request` span timed, then with every
    // stopwatch and shadow call, then plainly again: whichever replay
    // comes first in a process runs slow (cold pages, a clock still
    // ramping), so the traced one is compared with the better of the
    // plain ones around it.  Each replay gets its own service.
    let plain = plain_replay(w, &program, &mut tally);

    let mut reference = Reference::new(&w.data);
    let traced_service = service(&program);
    // The service the miss-path shadows run on.  Where the stream never
    // repeats a request it gets the same warm-up as the real one: its
    // result cache still misses on every timed spec, and its memos are
    // as warm as the ones the real calls see.
    let fresh = service(&program);
    if matches!(w.reads, Reads::Once(_)) {
        warm(&fresh, w);
    }
    let plan = match w.kind {
        Kind::NarySweep => nary_plan(w, &program, &mut out),
        _ => None,
    };
    let mut shadows = Shadows {
        fresh: &fresh,
        seen: FxHashSet::default(),
        system: system.as_ref(),
        nary: plan
            .as_ref()
            .map(|plan| (plan, Arc::new(ProbeSpace::new(&program)))),
        batch_eval_ns: Vec::new(),
        json_encode_ns: 0.0,
    };
    let (traced, totals) = replay(
        w,
        &traced_service,
        Some(&mut shadows),
        &mut reference,
        &mut tally,
    );
    let (batch_eval_ns, json_encode_ns) = (shadows.batch_eval_ns, shadows.json_encode_ns);
    if let Some(system) = &system {
        engine_families(w, &fresh, system, &mut out);
    }
    drop(fresh);
    if w.kind == Kind::NarySweep {
        nary_ingest(&traced_service, &mut out, &mut tally);
    }
    drop(traced_service);
    let plain_again = plain_replay(w, &program, &mut tally);
    if w.kind == Kind::DurableMixed {
        durable_layers(w, &program, out_dir, &mut out, &mut tally)?;
    }

    // Spans → per-layer readings.  Read steps are the children of
    // `request` roots; `durable_mixed`'s interleaved ingests have their
    // own root and stay out of the read medians.
    let spans = traced.spans();
    let n = totals.requests;
    let request_ns = durations(spans, "request");
    let read_ns = durations_under(spans, "request", "wire.read_request");
    let handle_ns = durations_under(spans, "request", "wire.handle");
    let encode_ns = durations_under(spans, "request", "wire.encode");
    out.layer(
        "wire.request_us",
        p50_us(&request_ns),
        request_ns.len() as u64,
    );
    out.layer(
        "wire.read_request_us",
        p50_us(&read_ns),
        read_ns.len() as u64,
    );
    out.layer("wire.handle_us", p50_us(&handle_ns), handle_ns.len() as u64);
    out.layer("wire.encode_us", p50_us(&encode_ns), encode_ns.len() as u64);
    out.layer(
        "wire.encode_ns_per_row",
        encode_ns.iter().sum::<f64>() / totals.rows.max(1) as f64,
        totals.rows,
    );
    out.layer(
        "wire.response_bytes_per_req",
        totals.response_bytes as f64 / n.max(1) as f64,
        n,
    );
    out.layer(
        "common.json_encode_ns_per_row",
        json_encode_ns / totals.rows.max(1) as f64,
        totals.rows,
    );
    let by_name = |name: &str| durations(spans, name);
    let json_parse = by_name("common.json_parse");
    out.layer(
        "common.json_parse_us",
        p50_us(&json_parse),
        json_parse.len() as u64,
    );
    let parse_query = by_name("service.parse_query");
    out.layer(
        "service.parse_query_us",
        p50_us(&parse_query),
        parse_query.len() as u64,
    );
    let hit = by_name("service.query_hit");
    out.layer("service.query_hit_us", p50_us(&hit), hit.len() as u64);
    let miss = by_name("service.query_miss");
    out.layer("service.query_miss_us", p50_us(&miss), miss.len() as u64);
    let evaluate = by_name("engine.evaluate");
    if !miss.is_empty() && !evaluate.is_empty() {
        out.layer(
            "service.query_miss_self_us",
            p50_us(&miss) - p50_us(&evaluate),
            evaluate.len() as u64,
        );
    }
    let batch = by_name("service.batch");
    let shared = by_name("adorn.evaluate_shared");
    if !batch.is_empty() {
        out.layer("service.batch_us", p50_us(&batch), batch.len() as u64);
        out.layer(
            "adorn.evaluate_shared_us",
            p50_us(&shared),
            shared.len() as u64,
        );
        out.layer(
            "service.batch_self_us",
            p50_us(&batch) - p50_us(&batch_eval_ns) / SERVER_THREADS as f64,
            batch.len() as u64,
        );
    }
    // What `handle` calls below itself: one parse per query, then the
    // batch call, or the single query on whichever side of the result
    // cache this workload's replay mostly landed.
    let queries_per_request = totals.answers as f64 / n.max(1) as f64;
    let mostly_cached = totals.from_cache * 2 > totals.answers;
    let below = if !batch.is_empty() {
        p50_us(&batch)
    } else if mostly_cached {
        p50_us(&hit)
    } else {
        p50_us(&miss)
    };
    out.layer(
        "wire.handle_self_us",
        p50_us(&handle_ns) - queries_per_request * p50_us(&parse_query) - below,
        handle_ns.len() as u64,
    );
    let in_process_us = p50_us(&read_ns) + p50_us(&handle_ns) + p50_us(&encode_ns);
    if let Some(e2e_ms) = e2e_read_p50_ms {
        out.layer("wire.socket_residual_us", e2e_ms * 1e3 - in_process_us, n);
    }
    let plain_us = plain.min(plain_again);
    if plain_us > 0.0 {
        out.layer(
            "trace.overhead_ratio",
            p50_us(&request_ns) / plain_us,
            request_ns.len() as u64,
        );
    }
    // The three wire steps are the whole request: what they leave
    // uncovered is the stopwatches' own cost.
    let uncovered: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == "request")
        .map(|(_, own)| own)
        .sum();
    eprintln!(
        "  [{}] in-process request p50 {:.2} us; read + handle + encode p50s {in_process_us:.2} us; \
         {:.2} % of request time outside the three steps",
        w.kind.name(),
        p50_us(&request_ns),
        100.0 * uncovered as f64 / request_ns.iter().sum::<f64>().max(1.0),
    );

    let trace_path = out_dir.join(format!("trace-{}.json", w.kind.name()));
    std::fs::write(&trace_path, to_json(spans).encode())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    Ok(LayerRun {
        readings: out,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
    })
}
