//! The query service: snapshots + plan cache + result cache + a
//! parallel, deduplicating batch front end, all keyed on the
//! generalized [`QuerySpec`].

use crate::durable::{self, BaseProfile, DurabilityConfig, DurableStore, RecoveryReport};
use crate::plan::{PlanCache, ProgramPlan};
use crate::results::{CachedResult, ResultCache, ResultKey};
use crate::snapshot::{IngestError, Snapshot, SnapshotStore};
use crate::spec::{Arg, QuerySpec};
use rq_common::obs::{self, Counter, Histogram};
use rq_common::{Const, Counters, FxHashMap, Pred, Registry, Rows};
use rq_datalog::Program;
use rq_engine::{
    all_pairs_min_side, candidate_sources, evaluate_guarded, EdbSource, EvalOptions, Evaluator,
};
use rq_store::StorageBackend;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Service-level settings.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads for [`QueryService::query_batch`].  `1` means the
    /// batch runs inline on the caller's thread.
    pub threads: usize,
    /// Worker threads for expanding machine instances *inside one
    /// traversal* ([`EvalOptions::expand_threads`]).  Single queries
    /// use the full count; a batch divides it by its own worker count
    /// so the two levels of parallelism compose instead of multiplying.
    /// Capped (like `threads`) by the `RQC_THREADS` environment
    /// variable.
    pub eval_threads: usize,
    /// Share the epoch-scoped evaluation context (machine-traversal
    /// memo + §4 virtual-probe memo + SCC routing) between the queries
    /// of one snapshot.  On by default; benches turn it off to measure
    /// cold-epoch per-query re-derivation.
    pub share_epoch_context: bool,
    /// Base evaluation options applied to every query.
    pub options: EvalOptions,
    /// When `options.max_iterations` is `None`, bound each binary-chain
    /// traversal by the Marchetti-Spaccamela `m·n` bound (§3, Figure 8)
    /// so cyclic data cannot hang the service.  The bound is
    /// sufficient, so guarded runs still report `converged`.
    pub cyclic_guard: bool,
    /// Safety valve for traversals with no computable `m·n` bound
    /// (non-linear §3 shapes and every §4 transformed machine, whose
    /// virtual relations the bound cannot inspect): when the cyclic
    /// guard is requested but yields no bound and no explicit
    /// `node_budget` is set, cap the traversal at this many graph
    /// nodes.  A capped run honestly reports `converged = false`.
    /// `None` disables the valve (a divergent query then hangs its
    /// worker).
    pub fallback_node_budget: Option<u64>,
    /// Memoize answers in the result cache.  Off is useful for
    /// benchmarking raw traversal throughput.
    pub memoize_results: bool,
    /// Entry cap for the result cache (`None` = unbounded).  Overflow
    /// evicts least-recently-used entries; see
    /// [`crate::ResultCache::stats`] for the eviction counter.
    pub result_cache_capacity: Option<usize>,
    /// Byte budget for the result cache over approximate answer
    /// footprints (`None` = unbounded), complementing the entry cap:
    /// one huge all-pairs answer is charged what it costs, not one
    /// slot.
    pub result_cache_bytes: Option<u64>,
    /// Repair warm epoch state in place at publish time (semi-naive
    /// delta propagation): dirty plans whose memos can be extended by
    /// the ingest delta keep their machine memos, §4 probe spaces and
    /// result-cache rows instead of being dropped and re-derived cold.
    /// Requires `share_epoch_context`; falling back to the cold path is
    /// always honest (counted by `rq_delta_fallback_cold_total`).
    pub delta_repair: bool,
    /// Durability knobs (fsync policy, checkpoint cadence) — consulted
    /// only when the service is opened with a storage backend
    /// ([`QueryService::open`] / [`QueryService::open_backend`]);
    /// in-memory services ignore it.
    pub durability: DurabilityConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism = rq_common::capped_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
        Self {
            threads: parallelism,
            eval_threads: parallelism,
            share_epoch_context: true,
            options: EvalOptions::default(),
            cyclic_guard: true,
            fallback_node_budget: Some(2_000_000),
            memoize_results: true,
            result_cache_capacity: Some(1 << 16),
            result_cache_bytes: Some(256 << 20),
            delta_repair: true,
            durability: DurabilityConfig::default(),
        }
    }
}

/// A served answer.
#[derive(Clone, Debug)]
pub struct ServiceAnswer {
    /// The snapshot epoch the answer was computed on.
    pub epoch: u64,
    /// Sorted, deduplicated answer rows over the query's distinct free
    /// positions in ascending position order: one column for point
    /// queries and diagonals, two for binary all-pairs, the free
    /// n-tuple for §4 queries.  A fully bound query answers `[[]]`
    /// (membership holds) or `[]` (it does not).
    pub rows: Arc<Rows>,
    /// Whether the evaluation converged (guarded cyclic runs converge
    /// by the sufficiency of the `m·n` bound; budget-stopped runs
    /// honestly report `false`).
    pub converged: bool,
    /// Whether the answer came from the result cache.
    pub from_cache: bool,
    /// Which pipeline computed the rows (on a cache hit: the run that
    /// filled the entry).  `None` when none ran — the text entry's
    /// empty-by-construction answer ([`crate::text`]).
    pub route: Option<Route>,
    /// The paper's unit-cost counters for the run that produced this
    /// answer; zero when nothing ran for it (a result-cache hit, an
    /// empty-by-construction answer).
    pub counters: Counters,
}

/// Which evaluation pipeline answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// §3 directly: a binary predicate of a binary-chain program,
    /// answered by graph traversal over the Lemma 1 machines (forward,
    /// inverse, membership or all-pairs).
    BinaryChain,
    /// §4: adornment + transformation to a binary-chain program over
    /// tuple constants.
    Section4,
}

impl ServiceAnswer {
    /// Whether a fully bound (membership) query holds.
    pub fn holds(&self) -> bool {
        self.rows.width() == 0 && !self.rows.is_empty()
    }

    /// The single-column view of a point/diagonal answer (first column
    /// of every row) — convenience for binary callers.
    pub fn constants(&self) -> impl Iterator<Item = Const> + '_ {
        self.rows.iter().filter_map(|r| r.first().copied())
    }
}

/// Errors surfaced by the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The query text was not `pred(arg, …, arg)`.
    Malformed(String),
    /// The queried predicate does not exist.
    UnknownPredicate(String),
    /// The queried predicate is a base relation (nothing to derive).
    NotDerived(String),
    /// The query's argument count does not match the predicate arity.
    ArityMismatch {
        /// The predicate name.
        pred: String,
        /// The predicate's arity.
        expected: usize,
        /// Arguments in the query.
        got: usize,
    },
    /// The bound constant never occurs in the program or its data.
    UnknownConstant(String),
    /// Neither pipeline can compile this `(program, adornment)`.
    Plan(String),
    /// Fact ingestion failed.
    Ingest(String),
    /// Boot-time recovery from durable storage failed (unreadable data
    /// directory, a rule-set/fingerprint mismatch, or a log gap).
    Recovery(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Malformed(t) => write!(f, "malformed query `{t}`"),
            ServiceError::UnknownPredicate(p) => write!(f, "unknown predicate `{p}`"),
            ServiceError::NotDerived(p) => write!(f, "`{p}` is a base predicate"),
            ServiceError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "`{pred}` has arity {expected}, query has {got} arguments"
            ),
            ServiceError::UnknownConstant(c) => write!(f, "unknown constant `{c}`"),
            ServiceError::Plan(e) => write!(f, "cannot compile query plan: {e}"),
            ServiceError::Ingest(e) => write!(f, "{e}"),
            ServiceError::Recovery(e) => write!(f, "cannot recover durable state: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IngestError> for ServiceError {
    fn from(e: IngestError) -> Self {
        ServiceError::Ingest(e.to_string())
    }
}

/// A thread-safe query-serving layer over one Datalog program.
///
/// ```
/// use rq_service::QueryService;
///
/// let service = QueryService::from_source(
///     "tc(X,Y) :- e(X,Y).\n\
///      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
///      e(a,b). e(b,c).",
/// ).unwrap();
/// let q = service.parse_query("tc(a, Y)").unwrap();
/// let batch = service.query_batch(&[q.clone(), q.clone()]);
/// let answer = batch[0].as_ref().unwrap();
/// assert_eq!(answer.rows.len(), 2); // {b, c}
/// service.ingest("e(c,d).").unwrap();
/// let fresh = service.query(&q).unwrap();
/// assert_eq!(fresh.rows.len(), 3); // {b, c, d}
/// assert_eq!(fresh.epoch, 1);
/// // Membership and all-pairs forms are served too.
/// let holds = service.query(&service.parse_query("tc(a, d)").unwrap()).unwrap();
/// assert!(holds.holds());
/// let all = service.query(&service.parse_query("tc(X, Y)").unwrap()).unwrap();
/// assert_eq!(all.rows.len(), 6);
/// ```
pub struct QueryService {
    store: SnapshotStore,
    pub(crate) plans: PlanCache,
    pub(crate) results: ResultCache,
    pub(crate) config: ServiceConfig,
    /// Instance-scoped metrics registry: the caches' own counter cells
    /// are adopted into it at construction, so `:stats`, `GET /stats`
    /// and `GET /metrics` all read the same cells (no global state —
    /// each service, and each test, gets its own registry).
    metrics: Arc<Registry>,
    /// Pre-resolved handles for the hot path — no registry lookup per
    /// query.
    pub(crate) counters: ServiceCounters,
    started: Instant,
    /// Serializes publish + cache carry-forward as one unit, so two
    /// concurrent ingests cannot run their epoch GC out of order (a
    /// later epoch's GC would drop the earlier epoch's survivors).
    ingest_gc: std::sync::Mutex<()>,
    /// The durable storage handle, when the service was opened with
    /// one ([`QueryService::open`] / [`QueryService::open_backend`]).
    /// `None` means purely in-memory: ingests are not logged.
    durable: Option<DurableStore>,
}

/// Registry handles the service increments on its own hot paths (the
/// cache hit/miss counters live inside the caches and are *adopted*
/// into the registry instead).
pub(crate) struct ServiceCounters {
    /// Queries evaluated through [`QueryService::query_on`] and the
    /// batch front end (internal re-entries — diagonal bases, per-source
    /// all-pairs sub-queries — count too: they are real evaluations).
    queries: Counter,
    /// Successful fact publishes.
    ingests: Counter,
    /// Graph nodes materialized by §3/§4 traversals on behalf of this
    /// service (the engine's `G`).
    engine_nodes: Counter,
    /// Traversals (or machine expansions) answered wholesale from the
    /// epoch context's machine memo.
    engine_teleports: Counter,
    /// Machine copies spliced during traversals.
    engine_instances: Counter,
    /// Compact stores (columnar + CSR) built at publish time.
    csr_builds: Counter,
    /// Wall time spent building compact stores, one observation per
    /// publish.
    csr_build_seconds: Histogram,
    /// Index probes served by a compact store (CSR slice or columnar
    /// scan).
    csr_probes: Counter,
    /// Index probes that walked (or built) a hash-trie index.
    trie_probes: Counter,
    /// Dirty plans whose warm memos were repaired in place at publish.
    pub(crate) delta_repairs: Counter,
    /// Memo/probe rows added by in-place delta repair.
    pub(crate) delta_repaired_rows: Counter,
    /// Dirty plans that fell back to cold re-derivation because the
    /// delta could not be propagated through their memos.
    pub(crate) delta_fallback_cold: Counter,
    /// Write-ahead-log records appended (one per published epoch, on
    /// durable services).
    wal_records: Counter,
    /// Bytes appended to the write-ahead log, frame headers included.
    wal_bytes: Counter,
    /// Checkpoint snapshots installed.
    wal_checkpoints: Counter,
    /// Checkpoint installs that failed (non-fatal; retried on the next
    /// ingest because the records stay in the log).
    wal_checkpoint_failures: Counter,
}

impl ServiceCounters {
    fn register(registry: &Registry, plans: &PlanCache, results: &ResultCache) -> Self {
        registry.adopt_counter(
            "rq_plan_cache_hits_total",
            "Plan-cache lookups answered from the cache.",
            &[],
            &plans.hits_counter(),
        );
        registry.adopt_counter(
            "rq_plan_cache_misses_total",
            "Plan-cache lookups that compiled a fresh plan.",
            &[],
            &plans.misses_counter(),
        );
        let (hits, misses, evictions, deduped) = results.counters();
        registry.adopt_counter(
            "rq_result_cache_hits_total",
            "Result-cache lookups answered from the cache.",
            &[],
            &hits,
        );
        registry.adopt_counter(
            "rq_result_cache_misses_total",
            "Result-cache lookups that fell through to evaluation.",
            &[],
            &misses,
        );
        registry.adopt_counter(
            "rq_result_cache_evictions_total",
            "Memoized results evicted under the entry or byte budget.",
            &[],
            &evictions,
        );
        registry.adopt_counter(
            "rq_result_cache_deduped_total",
            "Duplicate batch queries served from a sibling's answer.",
            &[],
            &deduped,
        );
        Self {
            queries: registry.counter("rq_queries_total", "Queries evaluated by the service."),
            ingests: registry.counter("rq_ingests_total", "Fact batches published as new epochs."),
            engine_nodes: registry.counter(
                "rq_engine_graph_nodes_total",
                "Nodes materialized in traversal graphs.",
            ),
            engine_teleports: registry.counter(
                "rq_engine_memo_teleports_total",
                "Traversal lookups answered wholesale from the machine memo.",
            ),
            engine_instances: registry.counter(
                "rq_engine_machine_instances_total",
                "Machine copies spliced during traversals.",
            ),
            csr_builds: registry.counter(
                "rq_csr_builds_total",
                "Compact stores (columnar buffers + CSR adjacency) built at publish time.",
            ),
            csr_build_seconds: registry.histogram(
                "rq_csr_build_seconds",
                "Wall time each publish spent building compact stores.",
            ),
            csr_probes: registry.counter(
                "rq_csr_probes_total",
                "Index probes served by a publish-time compact store.",
            ),
            trie_probes: registry.counter(
                "rq_trie_probes_total",
                "Index probes that walked (or built) a hash-trie index.",
            ),
            delta_repairs: registry.counter(
                "rq_delta_repairs_total",
                "Dirty plans whose warm memos were repaired in place at publish.",
            ),
            delta_repaired_rows: registry.counter(
                "rq_delta_repaired_rows_total",
                "Memo and probe rows added by in-place delta repair.",
            ),
            delta_fallback_cold: registry.counter(
                "rq_delta_fallback_cold_total",
                "Dirty plans that fell back to cold re-derivation at publish.",
            ),
            wal_records: registry.counter(
                "rq_wal_records_total",
                "Write-ahead-log records appended (one per published epoch).",
            ),
            wal_bytes: registry.counter(
                "rq_wal_bytes_total",
                "Bytes appended to the write-ahead log, frame headers included.",
            ),
            wal_checkpoints: registry.counter(
                "rq_wal_checkpoints_total",
                "Checkpoint snapshots installed (each truncates the log).",
            ),
            wal_checkpoint_failures: registry.counter(
                "rq_wal_checkpoint_failures_total",
                "Checkpoint installs that failed and will be retried.",
            ),
        }
    }
}

impl QueryService {
    /// Serve `program` with default settings.
    pub fn new(program: Program) -> Self {
        Self::with_config(program, ServiceConfig::default())
    }

    /// Serve `program` with explicit settings.
    pub fn with_config(program: Program, config: ServiceConfig) -> Self {
        Self::build(SnapshotStore::new(program), config, None)
    }

    fn build(store: SnapshotStore, config: ServiceConfig, durable: Option<DurableStore>) -> Self {
        let plans = PlanCache::new();
        let results =
            ResultCache::with_limits(config.result_cache_capacity, config.result_cache_bytes);
        let metrics = Arc::new(Registry::new());
        let counters = ServiceCounters::register(&metrics, &plans, &results);
        let service = Self {
            store,
            plans,
            results,
            config,
            metrics,
            counters,
            started: Instant::now(),
            ingest_gc: std::sync::Mutex::new(()),
            durable,
        };
        // Epoch 0 (or the recovered epoch) already built its compact
        // stores inside the snapshot store; fold that first publish
        // into the registry like every later ingest.
        service.note_publish(&service.store.snapshot());
        service
    }

    /// Open (or create) a durable service backed by files in
    /// `data_dir`, with default settings: restore the latest
    /// checkpoint, replay the write-ahead log tail to the exact
    /// pre-crash epoch, and log every subsequent ingest before
    /// acknowledging it.
    pub fn open(program: Program, data_dir: &std::path::Path) -> Result<Self, ServiceError> {
        Self::open_with_config(program, data_dir, ServiceConfig::default())
    }

    /// [`QueryService::open`] with explicit settings
    /// (`config.durability` selects the fsync policy and checkpoint
    /// cadence).
    pub fn open_with_config(
        program: Program,
        data_dir: &std::path::Path,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let backend =
            rq_store::FileBackend::open(data_dir, config.durability.fsync).map_err(|e| {
                ServiceError::Recovery(format!(
                    "cannot open data dir `{}`: {e}",
                    data_dir.display()
                ))
            })?;
        Self::open_backend(program, Arc::new(backend), config)
    }

    /// Open a durable service over an explicit [`StorageBackend`] —
    /// the seam the crash-injection tests use ([`rq_store::MemBackend`]
    /// with a fault offset) and the file path above goes through.
    ///
    /// Recovery sequence: load whatever the backend trusts (verified
    /// checkpoint + verified log prefix), restore the checkpoint onto
    /// the freshly parsed `program` (hard error on a rule-set or
    /// base-program mismatch), then replay the log tail in epoch
    /// order.  Records at or below the recovered epoch are counted as
    /// duplicates and skipped (a crash between checkpoint install and
    /// log truncation leaves them behind); a gap in the epoch sequence
    /// is a hard error — serving with silently missing ingests would
    /// be worse than refusing to start.
    pub fn open_backend(
        program: Program,
        backend: Arc<dyn StorageBackend>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let base = BaseProfile::of(&program);
        let recovered = backend
            .load()
            .map_err(|e| ServiceError::Recovery(format!("cannot read durable state: {e}")))?;
        let mut report = RecoveryReport {
            dropped_records: recovered.dropped_records,
            dropped_bytes: recovered.dropped_bytes,
            checkpoint_dropped: recovered.checkpoint_dropped,
            ..RecoveryReport::default()
        };
        let store = match recovered.checkpoint {
            Some((_, payload)) => {
                let (program, epoch) = durable::restore_checkpoint(program, &payload)
                    .map_err(ServiceError::Recovery)?;
                report.checkpoint_epoch = Some(epoch);
                SnapshotStore::with_restored(program, epoch)
            }
            None => SnapshotStore::new(program),
        };
        for (epoch, payload) in &recovered.records {
            let current = store.snapshot().epoch();
            if *epoch <= current {
                report.skipped_duplicates += 1;
                continue;
            }
            if *epoch != current + 1 {
                return Err(ServiceError::Recovery(format!(
                    "write-ahead log gap: expected a record for epoch {}, found epoch {epoch}",
                    current + 1
                )));
            }
            // The frame CRC already verified, so a decode failure is a
            // codec mismatch, not bit rot — fail loudly either way.
            let record = durable::decode_record(payload).map_err(|e| {
                ServiceError::Recovery(format!("log record for epoch {epoch}: {e}"))
            })?;
            if record.fingerprint != store.snapshot().rules_fingerprint() {
                return Err(ServiceError::Recovery(format!(
                    "log record for epoch {epoch} was written under a different rule set; \
                     refusing to replay"
                )));
            }
            store
                .replay_rows(&record.rows)
                .map_err(|e| ServiceError::Recovery(format!("cannot replay epoch {epoch}: {e}")))?;
            report.replayed_records += 1;
        }
        report.recovered_epoch = store.snapshot().epoch();
        let durable = DurableStore {
            backend,
            checkpoint_interval: config.durability.checkpoint_interval,
            base,
            since_checkpoint: AtomicU64::new(report.replayed_records),
            report,
        };
        Ok(Self::build(store, config, Some(durable)))
    }

    /// Whether ingests are persisted to a storage backend.
    pub fn durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What boot-time recovery found and did (`None` for in-memory
    /// services).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// Parse `source` and serve it.
    pub fn from_source(source: &str) -> Result<Self, ServiceError> {
        let program =
            rq_datalog::parse_program(source).map_err(|e| ServiceError::Ingest(e.to_string()))?;
        Ok(Self::new(program))
    }

    /// The service settings.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The plan cache (for stats and tests).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The result cache (for stats and tests).
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// One consistent read of every counter the service exposes — the
    /// single rendering source behind both the REPL's `:stats` text
    /// and the HTTP API's `GET /stats` JSON
    /// (see [`crate::stats::StatsReport`]).
    pub fn stats_report(&self) -> crate::stats::StatsReport {
        let snapshot = self.snapshot();
        crate::stats::StatsReport {
            epoch: snapshot.epoch(),
            plans: self.plans.stats(),
            chain_programs: self.plans.programs(),
            nary_plans: self.plans.nary_plans(),
            results: self.results.stats(),
            result_entries: self.results.len(),
            result_bytes: self.results.bytes(),
            context: snapshot.context().stats(),
            csr_builds: self.counters.csr_builds.value(),
            csr_build_micros: (self.counters.csr_build_seconds.snapshot().sum_seconds * 1e6).round()
                as u64,
            csr_probes: self.counters.csr_probes.value(),
            trie_probes: self.counters.trie_probes.value(),
            delta_repairs: self.counters.delta_repairs.value(),
            delta_repaired_rows: self.counters.delta_repaired_rows.value(),
            delta_fallback_cold: self.counters.delta_fallback_cold.value(),
            durability: self
                .durable
                .as_ref()
                .map(|d| crate::durable::DurabilityStats {
                    wal_records: self.counters.wal_records.value(),
                    wal_bytes: self.counters.wal_bytes.value(),
                    checkpoints: self.counters.wal_checkpoints.value(),
                    checkpoint_failures: self.counters.wal_checkpoint_failures.value(),
                    recovery: d.report.clone(),
                }),
        }
    }

    /// The service's metrics registry.  Front ends register their own
    /// families here (e.g. the wire server's per-endpoint latency
    /// histograms) so one scrape covers the whole stack.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Time since the service was constructed.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The full Prometheus text exposition: refresh the report-derived
    /// gauges ([`crate::stats::StatsReport::export_prometheus`]) and
    /// render every family in the registry — live cache counters,
    /// service counters, and whatever front ends registered.
    pub fn metrics_prometheus(&self) -> String {
        self.stats_report().export_prometheus(&self.metrics)
    }

    /// Ingest fact clauses copy-on-write and publish the next epoch.
    /// In-flight readers keep their snapshot.  Warm state does not die
    /// with the epoch: the publish pass ([`crate::publish`]) gives every
    /// cached plan one verdict — carry (its read-set is clean), repair
    /// (dirty, but patched by the delta) or drop — and the plan's
    /// machine memo, §4 probe space and result-cache entries all follow
    /// it, so an ingest into `e` leaves both the answers *and* the
    /// traversal memos of plans over disjoint predicates hot.
    pub fn ingest(&self, facts_text: &str) -> Result<Arc<Snapshot>, ServiceError> {
        // Publish and carry-forward must happen atomically with respect
        // to other ingests: epoch N's GC only vouches for N-1 entries,
        // so running two GCs out of order would flush survivors.
        let _gc = self.ingest_gc.lock().expect("ingest lock poisoned");
        let span = obs::span("service.ingest");
        let prev = self.store.snapshot();
        // On durable services the write-ahead-log append runs as a
        // pre-publish hook on the built-but-unpublished snapshot: the
        // record hits the backend (fsynced under `FsyncPolicy::Always`)
        // *before* the epoch pointer swaps, so no acknowledged epoch
        // can be missing from the log.  An append failure aborts the
        // publish and surfaces as `IngestError::Durability`.
        let snap = match &self.durable {
            None => self.store.ingest(facts_text)?,
            Some(durable) => self.store.ingest_with(facts_text, |next| {
                let _wal = obs::span("ingest.wal_append");
                let payload = durable::encode_record(next).map_err(IngestError::Durability)?;
                durable
                    .backend
                    .append(next.epoch(), &payload)
                    .map_err(|e| IngestError::Durability(e.to_string()))?;
                self.counters.wal_records.inc();
                self.counters
                    .wal_bytes
                    .add((payload.len() + rq_store::FRAME_HEADER_BYTES) as u64);
                Ok(())
            })?,
        };
        if span.active() {
            span.note("epoch", snap.epoch());
            span.note("dirty_preds", snap.dirty_preds().len());
        }
        let verdicts = self.transition(&prev, &snap);
        let to_rederive = {
            let _carry = obs::span("ingest.carry_results");
            self.results.sweep(snap.epoch(), |key| {
                verdicts.verdict(key.spec.pred, key.spec.adornment())
            })
        };
        // Repair-swept entries come back through the patched memos.
        for spec in &to_rederive {
            self.rederive(&snap, spec);
        }
        self.counters.ingests.inc();
        self.note_publish(&snap);
        self.maybe_checkpoint(&snap);
        Ok(snap)
    }

    /// Install a checkpoint snapshot every `checkpoint_interval`
    /// ingests.  Failures are non-fatal — the epoch's record is
    /// already in the log, so the counter keeps growing and the next
    /// ingest retries immediately.
    fn maybe_checkpoint(&self, snap: &Snapshot) {
        let Some(durable) = &self.durable else { return };
        if durable.checkpoint_interval == 0 {
            return;
        }
        let since = durable.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        if since < durable.checkpoint_interval {
            return;
        }
        let _span = obs::span("ingest.checkpoint");
        let payload = durable::encode_checkpoint(snap, &durable.base);
        match durable.backend.install_checkpoint(snap.epoch(), &payload) {
            Ok(()) => {
                durable.since_checkpoint.store(0, Ordering::Relaxed);
                self.counters.wal_checkpoints.inc();
            }
            Err(e) => {
                // Surface the cause, not just a counter — repeated
                // failures (disk full, permissions) otherwise leave an
                // unbounded-growth WAL with nothing to diagnose from.
                eprintln!(
                    "rq-service: checkpoint at epoch {} failed (log keeps growing, \
                     next ingest retries): {e}",
                    snap.epoch()
                );
                self.counters.wal_checkpoint_failures.inc();
            }
        }
    }

    /// Fold one publish's compact-store build work into the registry.
    fn note_publish(&self, snap: &Snapshot) {
        self.counters.csr_builds.add(snap.csr_builds() as u64);
        self.counters
            .csr_build_seconds
            .observe(snap.csr_build_time());
    }

    /// Parse a query — any arity, any mix of bound constants and free
    /// variables, repeated variables expressing diagonals — against the
    /// current snapshot's program.
    pub fn parse_query(&self, text: &str) -> Result<QuerySpec, ServiceError> {
        crate::text::parse_serve_query(self.snapshot().program(), text)
    }

    /// Answer one query on the current snapshot.
    pub fn query(&self, spec: &QuerySpec) -> Result<ServiceAnswer, ServiceError> {
        self.query_on(&self.snapshot(), spec)
    }

    /// Answer one query on a caller-held snapshot (all queries of a
    /// batch see one epoch).
    pub fn query_on(
        &self,
        snapshot: &Snapshot,
        spec: &QuerySpec,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_on_with(snapshot, spec, self.config.eval_threads)
    }

    /// [`QueryService::query_on`] with an explicit per-traversal
    /// expansion-thread count — the batch path divides the configured
    /// [`ServiceConfig::eval_threads`] by its own worker count.
    fn query_on_with(
        &self,
        snapshot: &Snapshot,
        spec: &QuerySpec,
        expand_threads: usize,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.counters.queries.inc();
        let span = obs::span("service.query");
        let key = ResultKey {
            epoch: snapshot.epoch(),
            spec: spec.clone(),
        };
        if self.config.memoize_results {
            if let Some(hit) = self.results.get(&key) {
                if span.active() {
                    span.note("result_cache", "hit");
                    span.note("rows", hit.rows.len());
                }
                return Ok(ServiceAnswer {
                    epoch: snapshot.epoch(),
                    rows: hit.rows,
                    converged: hit.converged,
                    from_cache: true,
                    route: Some(hit.route),
                    counters: Counters::default(),
                });
            }
            span.note("result_cache", "miss");
        }
        let (result, counters) = self.evaluate_spec(snapshot, spec, expand_threads)?;
        if span.active() {
            span.note("rows", result.rows.len());
            span.note("converged", result.converged);
        }
        if self.config.memoize_results {
            self.results.insert(key, result.clone());
        }
        Ok(ServiceAnswer {
            epoch: snapshot.epoch(),
            rows: result.rows,
            converged: result.converged,
            from_cache: false,
            route: Some(result.route),
            counters,
        })
    }

    /// Route one spec to the right pipeline: the answer as the result
    /// cache stores it (rows, convergence, which route ran) and that
    /// run's unit-cost counters.
    pub(crate) fn evaluate_spec(
        &self,
        snapshot: &Snapshot,
        spec: &QuerySpec,
        expand_threads: usize,
    ) -> Result<(CachedResult, Counters), ServiceError> {
        let arity = snapshot.program().arity(spec.pred);
        if spec.arity() != arity {
            // Specs from `parse_serve_query` are checked at parse time;
            // this guards hand-built specs.
            return Err(ServiceError::ArityMismatch {
                pred: snapshot.program().pred_name(spec.pred).to_string(),
                expected: arity,
                got: spec.arity(),
            });
        }
        if arity > MAX_ADORNABLE_ARITY {
            // `Adornment` is a 32-bit position mask; wider predicates
            // would alias positions silently in release builds.
            return Err(ServiceError::Plan(format!(
                "`{}` has arity {arity}; adornments support at most {MAX_ADORNABLE_ARITY} positions",
                snapshot.program().pred_name(spec.pred)
            )));
        }
        // Repeated free variables (diagonals and their n-ary
        // generalizations) filter the distinct-variable base answer;
        // going through `query_on_with` warms — and reuses — its cache
        // entry.
        if spec.has_repeats() {
            let base = self.query_on_with(snapshot, &spec.with_distinct_frees(), expand_threads)?;
            let result = CachedResult {
                rows: Arc::new(spec.restrict_rows(&base.rows)),
                converged: base.converged,
                route: base.route.expect("an evaluated answer names its route"),
            };
            return Ok((result, base.counters));
        }
        // Binary predicates of binary-chain programs take the §3 fast
        // path; binary predicates of programs outside that class (e.g.
        // sharing rules with n-ary predicates) fall through to the §4
        // transformation like everything else.
        if arity == 2 {
            let chain = {
                let _plan = obs::span("service.plan");
                self.plans
                    .chain_plan_for(snapshot, spec.pred, spec.adornment())
            };
            if let Ok(plan) = chain {
                return self.evaluate_chain(snapshot, &plan, spec, expand_threads);
            }
        }
        let plan = {
            let _plan = obs::span("service.plan");
            self.plans
                .nary_plan_for(snapshot, spec.pred, spec.adornment())
                .map_err(|e| ServiceError::Plan(e.to_string()))?
        };
        // No m·n bound exists over virtual relations.
        let options = self.budgeted_options(expand_threads);
        // Epoch sharing: every query of this snapshot against this
        // plan shares one tuple interner + virtual-probe memo, and the
        // engine's machine memo, so a batch pays each probe once.
        let (rows, outcome) = if self.config.share_epoch_context {
            let space =
                snapshot
                    .context()
                    .probe_space(spec.pred, spec.adornment(), snapshot.program());
            rq_adorn::evaluate_nary_shared(
                snapshot.program(),
                snapshot.db(),
                &plan,
                &spec.bound_values(),
                &options,
                &space,
                Some(snapshot.context().eval()),
            )
        } else {
            rq_adorn::evaluate_nary(
                snapshot.program(),
                snapshot.db(),
                &plan,
                &spec.bound_values(),
                &options,
            )
        };
        self.note_outcome(
            outcome.graph_nodes,
            outcome.memo_teleports,
            outcome.instances,
            &outcome.counters,
        );
        let result = CachedResult {
            rows: Arc::new(rows),
            converged: outcome.converged,
            route: Route::Section4,
        };
        Ok((result, outcome.counters))
    }

    /// Fold one traversal's engine-side work into the service's
    /// registry counters.
    fn note_outcome(
        &self,
        graph_nodes: u64,
        memo_teleports: u64,
        instances: u64,
        counters: &Counters,
    ) {
        self.counters.engine_nodes.add(graph_nodes);
        self.counters.engine_teleports.add(memo_teleports);
        self.counters.engine_instances.add(instances);
        self.note_probes(counters);
    }

    /// Fold one evaluation's probe-path split (compact store vs trie
    /// index) into the registry.
    pub(crate) fn note_probes(&self, counters: &Counters) {
        self.counters.csr_probes.add(counters.csr_probes);
        self.counters.trie_probes.add(counters.trie_probes);
    }

    /// §3 binary-chain evaluation: forward/inverse point traversals,
    /// the early-exit membership form, and all-pairs evaluation —
    /// shared-SCC for regular systems, per-source otherwise.
    fn evaluate_chain(
        &self,
        snapshot: &Snapshot,
        plan: &ProgramPlan,
        spec: &QuerySpec,
        expand_threads: usize,
    ) -> Result<(CachedResult, Counters), ServiceError> {
        let args = spec.args();
        debug_assert_eq!(args.len(), 2);
        let (rows, converged, counters) = match (args[0], args[1]) {
            (Arg::Bound(a), Arg::Free(_)) => {
                let (answers, converged, counters) =
                    self.traverse(snapshot, plan, spec.pred, a, false, None, expand_threads);
                (Rows::from_sorted_column(answers), converged, counters)
            }
            (Arg::Free(_), Arg::Bound(b)) => {
                let (answers, converged, counters) =
                    self.traverse(snapshot, plan, spec.pred, b, true, None, expand_threads);
                (Rows::from_sorted_column(answers), converged, counters)
            }
            (Arg::Bound(a), Arg::Bound(b)) => {
                // Membership: traverse forward from `a`, stopping the
                // moment `b` is emitted.
                let (answers, converged, counters) =
                    self.traverse(snapshot, plan, spec.pred, a, false, Some(b), expand_threads);
                (Rows::membership(answers.contains(&b)), converged, counters)
            }
            (Arg::Free(_), Arg::Free(_)) => {
                // All pairs.  For a *regular* equation (no derived
                // predicate in `e_p` — e.g. every transitive closure),
                // Tarjan's strong-components condensation shares one
                // product graph across every source instead of running
                // one traversal per source; the result lands in the
                // result cache under this spec's `(epoch, pred)` key
                // with the cache's usual byte accounting.  Non-regular
                // systems fall back to the per-source loop, which
                // reuses — and leaves behind — memoized point answers.
                let derived = plan.system.derived();
                if self.config.share_epoch_context
                    && !plan.system.rhs[&spec.pred].contains_any(&derived)
                {
                    snapshot.context().note_scc_served();
                    let options = self.guarded_options(None, expand_threads);
                    let source = EdbSource::new(snapshot.db());
                    // Min-side: propagate per-component answer sets
                    // from whichever orientation makes them smaller
                    // (the paper's O(tn), t = min{|domain|, |range|}).
                    let (out, _side) =
                        all_pairs_min_side(&plan.system, &source, spec.pred, &options);
                    self.counters.engine_nodes.add(out.counters.nodes_inserted);
                    self.note_probes(&out.counters);
                    let mut rows = Rows::builder(2);
                    for (x, y) in out.pairs {
                        rows.push(&[x, y]);
                    }
                    (rows.finish(), out.converged, out.counters)
                } else {
                    let sources = {
                        let source = EdbSource::new(snapshot.db());
                        candidate_sources(&plan.system, &source, spec.pred)
                    };
                    let mut rows = Rows::builder(2);
                    let mut converged = true;
                    let mut counters = Counters::default();
                    for a in sources {
                        let sub = self.query_on_with(
                            snapshot,
                            &QuerySpec::bound_free(spec.pred, a),
                            expand_threads,
                        )?;
                        converged &= sub.converged;
                        counters += sub.counters;
                        for y in sub.constants() {
                            rows.push(&[a, y]);
                        }
                    }
                    (rows.finish(), converged, counters)
                }
            }
        };
        let result = CachedResult {
            rows: Arc::new(rows),
            converged,
            route: Route::BinaryChain,
        };
        Ok((result, counters))
    }

    /// One §3 traversal (forward or inverse) under the engine's cyclic
    /// guard ([`evaluate_guarded`]: the `m·n` bound of the query's
    /// direction, else the fallback node budget): sorted answers,
    /// convergence, and the run's unit-cost counters.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &self,
        snapshot: &Snapshot,
        plan: &ProgramPlan,
        pred: Pred,
        constant: Const,
        inverse: bool,
        stop_on_answer: Option<Const>,
        expand_threads: usize,
    ) -> (Vec<Const>, bool, Counters) {
        let options = self.guarded_options(stop_on_answer, expand_threads);
        let source = EdbSource::new(snapshot.db());
        let mut evaluator = Evaluator::with_plan(&plan.system, &plan.compiled, &source);
        if self.config.share_epoch_context {
            evaluator = evaluator.with_context(snapshot.context().eval());
        }
        let outcome = if self.config.cyclic_guard {
            let fallback = self.config.fallback_node_budget;
            let db = snapshot.db();
            evaluate_guarded(&evaluator, db, pred, constant, inverse, &options, fallback)
        } else if inverse {
            evaluator.evaluate_inverse(pred, constant, &options)
        } else {
            evaluator.evaluate(pred, constant, &options)
        };
        self.note_outcome(
            outcome.graph_nodes,
            outcome.memo_teleports,
            outcome.instances,
            &outcome.counters,
        );
        (outcome.answers, outcome.converged, outcome.counters)
    }

    /// The configured base options with the membership target and
    /// per-traversal expansion threads applied.
    fn guarded_options(&self, stop_on_answer: Option<Const>, expand_threads: usize) -> EvalOptions {
        let mut options = self.config.options.clone();
        if options.stop_on_answer.is_none() {
            options.stop_on_answer = stop_on_answer;
        }
        if options.expand_threads == 0 {
            options.expand_threads = expand_threads.max(1);
        }
        options
    }

    /// [`QueryService::guarded_options`] for traversals with no
    /// computable `m·n` bound — every §4 machine (the bound cannot
    /// inspect virtual relations) and every publish-time repair (no
    /// single source): rely on the fallback node budget so cyclic data
    /// cannot hang the worker or the publish.  A budget-stopped run
    /// honestly reports non-convergence; a budget-stopped repair
    /// reports failure and falls back cold.
    pub(crate) fn budgeted_options(&self, expand_threads: usize) -> EvalOptions {
        let mut options = self.guarded_options(None, expand_threads);
        if options.max_iterations.is_none()
            && self.config.cyclic_guard
            && options.node_budget.is_none()
        {
            options.node_budget = self.config.fallback_node_budget;
        }
        options
    }

    /// Fan a batch of queries out across the configured worker
    /// threads.  The whole batch is answered on **one** snapshot (the
    /// current epoch at entry), so results are mutually consistent even
    /// while ingestion runs concurrently.  Identical specs are
    /// evaluated **once** and share their answer across the batch
    /// ([`crate::plan::CacheStats::deduped`] counts the copies).
    /// Output order matches input order.
    pub fn query_batch(&self, queries: &[QuerySpec]) -> Vec<Result<ServiceAnswer, ServiceError>> {
        self.query_batch_on(&self.snapshot(), queries)
    }

    /// [`QueryService::query_batch`] on a **caller-pinned** snapshot.
    /// Front ends that parse query text and decode answer rows against
    /// a snapshot's interners must evaluate on that same snapshot —
    /// otherwise a concurrent ingest between capture and evaluation
    /// hands back rows whose constants the captured interner has never
    /// seen.  Both the REPL batch line and the HTTP `POST /batch`
    /// endpoint pin through here.
    pub fn query_batch_on(
        &self,
        snapshot: &Arc<Snapshot>,
        queries: &[QuerySpec],
    ) -> Vec<Result<ServiceAnswer, ServiceError>> {
        // Batch-level dedup: route every duplicate spec to the first
        // occurrence's slot.
        let mut first_of: FxHashMap<&QuerySpec, usize> = FxHashMap::default();
        let mut unique: Vec<&QuerySpec> = Vec::new();
        let slot_of: Vec<usize> = queries
            .iter()
            .map(|q| {
                *first_of.entry(q).or_insert_with(|| {
                    unique.push(q);
                    unique.len() - 1
                })
            })
            .collect();
        let deduped = (queries.len() - unique.len()) as u64;
        if deduped > 0 {
            self.results.note_deduped(deduped);
        }
        // The cap applies to explicit settings too (`--threads N`,
        // test configs), so `RQC_THREADS=1` really does force the
        // whole stack single-threaded.
        let workers = rq_common::capped_threads(self.config.threads).clamp(1, unique.len().max(1));
        // Two composable levels of parallelism: `workers` across the
        // batch, and the per-traversal expansion threads inside each
        // query.  Dividing one by the other keeps the total roughly at
        // the configured level — a batch of one big all-pairs query
        // spends everything inside its traversal, a wide batch spends
        // everything across queries.
        let expand_threads = (self.config.eval_threads / workers).max(1);
        let answers: Vec<Result<ServiceAnswer, ServiceError>> = if workers <= 1 {
            unique
                .iter()
                .map(|q| self.query_on_with(snapshot, q, self.config.eval_threads))
                .collect()
        } else {
            let slots: Vec<OnceLock<Result<ServiceAnswer, ServiceError>>> =
                (0..unique.len()).map(|_| OnceLock::new()).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = unique.get(i) else { break };
                        let answer = self.query_on_with(snapshot, query, expand_threads);
                        slots[i].set(answer).expect("slot claimed twice");
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("worker left a slot empty"))
                .collect()
        };
        slot_of.into_iter().map(|i| answers[i].clone()).collect()
    }
}

/// Widest predicate the `{b,f}` adornment bitmask can describe.
pub(crate) const MAX_ADORNABLE_ARITY: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c). e(c,d).";

    const FLIGHTS: &str = "\
cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
flight(hel,540,ams,690).\n\
flight(ams,720,cdg,810).\n\
flight(ams,660,cdg,750).\n\
flight(cdg,840,nce,930).\n\
is_deptime(540). is_deptime(720). is_deptime(660). is_deptime(840).";

    fn rendered(service: &QueryService, answer: &ServiceAnswer) -> Vec<String> {
        let snap = service.snapshot();
        answer
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| snap.program().consts.display(c))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    #[test]
    fn single_query_both_adornments() {
        let service = QueryService::from_source(TC).unwrap();
        let bf = service.parse_query("tc(b, Y)").unwrap();
        let out = service.query(&bf).unwrap();
        assert_eq!(rendered(&service, &out), vec!["c", "d"]);
        assert!(out.converged);
        let fb = service.parse_query("tc(X, c)").unwrap();
        let out = service.query(&fb).unwrap();
        assert_eq!(rendered(&service, &out), vec!["a", "b"]);
    }

    #[test]
    fn membership_query_form() {
        let service = QueryService::from_source(TC).unwrap();
        let yes = service
            .query(&service.parse_query("tc(a, d)").unwrap())
            .unwrap();
        assert!(yes.holds());
        assert_eq!(yes.rows.to_vecs(), vec![Vec::<Const>::new()]);
        let no = service
            .query(&service.parse_query("tc(d, a)").unwrap())
            .unwrap();
        assert!(!no.holds());
        assert!(no.rows.is_empty());
    }

    #[test]
    fn all_pairs_query_form() {
        let service = QueryService::from_source(TC).unwrap();
        let q = service.parse_query("tc(X, Y)").unwrap();
        assert_eq!(q, QuerySpec::all_free(q.pred, 2));
        let out = service.query(&q).unwrap();
        // tc over the chain a→b→c→d: 3+2+1 pairs.
        assert_eq!(out.rows.len(), 6);
        assert!(rendered(&service, &out).contains(&"a,d".to_string()));
        // Oracle: the seminaive fixpoint.
        let oracle = rq_datalog::seminaive_eval(service.snapshot().program()).unwrap();
        let tc = service.snapshot().program().pred_by_name("tc").unwrap();
        assert_eq!(out.rows.len(), oracle.tuples(tc).len());
        // Memoized on repeat.
        let again = service.query(&q).unwrap();
        assert!(again.from_cache);
        assert!(Arc::ptr_eq(&out.rows, &again.rows));
    }

    #[test]
    fn diagonal_query_form() {
        let service = QueryService::from_source(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,a). e(b,c).",
        )
        .unwrap();
        let q = service.parse_query("tc(X, X)").unwrap();
        assert_eq!(q, QuerySpec::diagonal(q.pred));
        let out = service.query(&q).unwrap();
        // The a↔b cycle puts exactly a and b on the diagonal.
        assert_eq!(rendered(&service, &out), vec!["a", "b"]);
        // Underscores are anonymous: `tc(_, _)` is all-pairs.
        let anon = service.parse_query("tc(_, _)").unwrap();
        assert_eq!(anon, QuerySpec::all_free(q.pred, 2));
        // The diagonal warmed the all-pairs entry as a byproduct.
        let all = service
            .query(&service.parse_query("tc(X, Y)").unwrap())
            .unwrap();
        assert!(all.from_cache);
    }

    #[test]
    fn nary_flight_queries_end_to_end() {
        let service = QueryService::from_source(FLIGHTS).unwrap();
        let q = service.parse_query("cnx(hel, 540, D, AT)").unwrap();
        assert_eq!(q.adornment().to_string(), "bbff");
        let out = service.query(&q).unwrap();
        // hel@540 → ams@690; ams@720 → cdg@810; cdg@840 → nce@930.
        assert_eq!(
            rendered(&service, &out),
            vec!["ams,690", "cdg,810", "nce,930"]
        );
        assert!(out.converged);
        // Repeat hits the cache, plan compiled once.
        let again = service.query(&q).unwrap();
        assert!(again.from_cache);
        assert!(Arc::ptr_eq(&out.rows, &again.rows));
        assert_eq!(service.plan_cache().nary_plans(), 1);
        // Fully bound n-ary membership.
        let yes = service
            .query(&service.parse_query("cnx(hel, 540, nce, 930)").unwrap())
            .unwrap();
        assert!(yes.holds());
        let no = service
            .query(&service.parse_query("cnx(hel, 540, nce, 690)").unwrap())
            .unwrap();
        assert!(!no.holds());
    }

    #[test]
    fn nary_ingest_refreshes_answers() {
        let service = QueryService::from_source(FLIGHTS).unwrap();
        let q = service.parse_query("cnx(cdg, 840, D, AT)").unwrap();
        let before = service.query(&q).unwrap();
        assert_eq!(rendered(&service, &before), vec!["nce,930"]);
        // A late flight out of nce opens a new two-leg connection.
        service
            .ingest("flight(nce, 960, osl, 1080). is_deptime(960).")
            .unwrap();
        let after = service.query(&q).unwrap();
        assert!(
            after.from_cache,
            "delta repair must keep the dirty entry alive"
        );
        assert!(
            !Arc::ptr_eq(&before.rows, &after.rows),
            "repaired entry must hold refreshed rows"
        );
        assert_eq!(after.epoch, 1);
        assert_eq!(rendered(&service, &after), vec!["nce,930", "osl,1080"]);
        let report = service.stats_report();
        assert!(report.delta_repairs >= 1, "{report:?}");
        assert_eq!(report.delta_fallback_cold, 0, "{report:?}");
    }

    #[test]
    fn nary_repeated_variable_is_filtered_all_answers() {
        // walk(X, X, T): round trips — the repeated variable filters
        // the distinct-variable base answer.
        let service = QueryService::with_config(
            rq_datalog::parse_program(
                "walk(A,B,T) :- edge(A,B), t0(T).\n\
                 walk(A,B,T) :- edge(A,C), walk(C,B,T1), tick(T1,T).\n\
                 edge(a,b). edge(b,a). edge(b,c).\n\
                 t0(t0). tick(t0,t1). tick(t1,t2). tick(t2,t3).",
            )
            .unwrap(),
            ServiceConfig {
                threads: 1,
                options: EvalOptions {
                    max_iterations: Some(8),
                    ..EvalOptions::default()
                },
                ..ServiceConfig::default()
            },
        );
        let diag = service.parse_query("walk(X, X, T)").unwrap();
        assert!(diag.has_repeats());
        let out = service.query(&diag).unwrap();
        let oracle = rq_datalog::seminaive_eval(service.snapshot().program()).unwrap();
        let walk = service.snapshot().program().pred_by_name("walk").unwrap();
        let mut expected: Vec<Vec<Const>> = oracle
            .tuples(walk)
            .into_iter()
            .filter(|t| t[0] == t[1])
            .map(|t| vec![t[0], t[2]])
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(out.rows.to_vecs(), expected);
        assert!(!out.rows.is_empty());
        // The distinct-variable base entry was warmed along the way.
        let base = service.query(&service.parse_query("walk(X, Y, T)").unwrap());
        assert!(base.unwrap().from_cache);
    }

    #[test]
    fn metrics_registry_tracks_queries_ingests_and_caches() {
        let service = QueryService::from_source(TC).unwrap();
        let q = service.parse_query("tc(a, Y)").unwrap();
        service.query(&q).unwrap();
        service.query(&q).unwrap(); // result-cache hit
        service.ingest("e(d,z).").unwrap();
        let text = service.metrics_prometheus();
        assert!(text.contains("# TYPE rq_queries_total counter\n"), "{text}");
        assert!(text.contains("rq_queries_total 2\n"));
        assert!(text.contains("rq_ingests_total 1\n"));
        // Adopted cells: the caches' own counters, not copies.
        assert!(text.contains("rq_result_cache_hits_total 1\n"));
        assert!(text.contains("rq_result_cache_misses_total 1\n"));
        assert!(text.contains("rq_plan_cache_misses_total 1\n"));
        // Report-derived gauges ride along in the same exposition.
        assert!(text.contains("rq_epoch 1\n"));
        // The ingest repaired the warm tc memos in place.
        assert!(text.contains("rq_delta_repairs_total 1\n"), "{text}");
        assert!(text.contains("rq_delta_fallback_cold_total 0\n"));
        // The traversal did real work.
        assert!(!text.contains("rq_engine_graph_nodes_total 0\n"));
        assert!(text.contains("# TYPE rq_engine_graph_nodes_total counter\n"));
        // Two services never share a registry.
        let other = QueryService::from_source(TC).unwrap();
        assert!(other.metrics_prometheus().contains("rq_queries_total 0\n"));
        assert!(service.uptime() > std::time::Duration::ZERO);
    }

    #[test]
    fn publish_time_rederivation_is_not_counted_as_traffic() {
        // A diagonal filters its all-pairs base; re-deriving it at
        // publish must not go through the counted query path.
        let service = QueryService::from_source(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,a). e(b,c).",
        )
        .unwrap();
        let point = service.parse_query("tc(a, Y)").unwrap();
        let diag = service.parse_query("tc(X, X)").unwrap();
        service.query(&point).unwrap();
        service.query(&diag).unwrap();
        let traffic = |s: &QueryService| (s.counters.queries.value(), s.results.stats());
        let before = traffic(&service);
        // One dirty fact closes a second cycle through c.
        let snap = service.ingest("e(c,b).").unwrap();
        assert_eq!(traffic(&service), before, "maintenance counted as traffic");
        assert_eq!(service.stats_report().delta_repairs, 1);
        // Every warmed entry — the diagonal, its base, the point query —
        // is back on the new epoch with the new answers.
        assert_eq!(service.results.len(), 3);
        let key = ResultKey {
            epoch: snap.epoch(),
            spec: diag.clone(),
        };
        let entry = service.results.peek(&key).expect("diagonal re-derived");
        let served = service.query(&diag).unwrap();
        assert!(served.from_cache && Arc::ptr_eq(&served.rows, &entry.rows));
        assert_eq!(rendered(&service, &served), vec!["a", "b", "c"]);
    }

    #[test]
    fn query_and_ingest_emit_nested_spans() {
        let service = QueryService::from_source(TC).unwrap();
        obs::trace_start();
        let q = service.parse_query("tc(a, Y)").unwrap();
        service.query(&q).unwrap();
        service.ingest("e(d,z).").unwrap();
        let spans = obs::trace_finish();
        let find = |name: &str| {
            spans
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span `{name}` in {spans:?}"))
        };
        let query = find("service.query");
        let plan = find("service.plan");
        let traverse = find("engine.traverse");
        assert_eq!(spans[plan].parent, Some(query as u32));
        assert_eq!(spans[traverse].parent, Some(query as u32));
        assert!(spans[query].dur_ns >= spans[traverse].dur_ns);
        assert!(spans[query]
            .notes
            .iter()
            .any(|(k, v)| *k == "result_cache" && v == "miss"));
        let ingest = find("service.ingest");
        for child in ["ingest.validate", "ingest.apply", "ingest.compact"] {
            assert_eq!(spans[find(child)].parent, Some(ingest as u32));
        }
        assert!(spans[find("ingest.delta_repair")].parent == Some(ingest as u32));
        assert!(spans[find("ingest.carry_results")].parent == Some(ingest as u32));
        // Outside a trace, spans cost nothing and record nothing.
        service.query(&q).unwrap();
        assert!(obs::trace_finish().is_empty());
    }

    #[test]
    fn results_memoize_and_invalidate_on_ingest() {
        // Repair off: this test pins the baseline drop-on-dirty policy.
        let service = QueryService::with_config(
            rq_datalog::parse_program(TC).unwrap(),
            ServiceConfig {
                threads: 1,
                delta_repair: false,
                ..ServiceConfig::default()
            },
        );
        let q = service.parse_query("tc(a, Y)").unwrap();
        let first = service.query(&q).unwrap();
        assert!(!first.from_cache);
        let second = service.query(&q).unwrap();
        assert!(second.from_cache);
        assert!(Arc::ptr_eq(&first.rows, &second.rows));
        service.ingest("e(d,z).").unwrap();
        let third = service.query(&q).unwrap();
        assert!(!third.from_cache, "dirty-predicate entries must refresh");
        assert_eq!(third.epoch, 1);
        assert_eq!(rendered(&service, &third), vec!["b", "c", "d", "z"]);
        // Plans survived the ingest: one program compiled, reused after.
        assert_eq!(service.plan_cache().programs(), 1);
    }

    #[test]
    fn clean_predicate_entries_survive_ingest() {
        // Two derived predicates over disjoint base relations: an
        // ingest into one must not evict memoized answers of the other.
        let service = QueryService::from_source(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             rc(X,Y) :- f(X,Y).\n\
             rc(X,Z) :- f(X,Y), rc(Y,Z).\n\
             e(a,b). e(b,c). f(m,n). f(n,o).",
        )
        .unwrap();
        let tc_q = service.parse_query("tc(a, Y)").unwrap();
        let rc_q = service.parse_query("rc(m, Y)").unwrap();
        let tc_before = service.query(&tc_q).unwrap();
        let rc_before = service.query(&rc_q).unwrap();
        assert!(!tc_before.from_cache && !rc_before.from_cache);

        let snap = service.ingest("e(c,d).").unwrap();
        assert_eq!(snap.epoch(), 1);

        // rc reads only `f`, which the publish left clean: served from
        // cache, same Arc, new epoch.
        let rc_after = service.query(&rc_q).unwrap();
        assert!(rc_after.from_cache, "clean-predicate entry must survive");
        assert_eq!(rc_after.epoch, 1);
        assert!(Arc::ptr_eq(&rc_before.rows, &rc_after.rows));

        // tc reads `e`, which was dirtied — but the delta repair patched
        // its memos and re-derived the entry, so it is served warm with
        // the refreshed rows.
        let tc_after = service.query(&tc_q).unwrap();
        assert!(tc_after.from_cache, "repaired entry must stay alive");
        assert!(!Arc::ptr_eq(&tc_before.rows, &tc_after.rows));
        assert_eq!(rendered(&service, &tc_after), vec!["b", "c", "d"]);
        assert!(service.stats_report().delta_repairs >= 1);
    }

    #[test]
    fn bounded_cache_reports_evictions() {
        let service = QueryService::with_config(
            rq_datalog::parse_program(TC).unwrap(),
            ServiceConfig {
                threads: 1,
                result_cache_capacity: Some(2),
                ..ServiceConfig::default()
            },
        );
        for text in ["tc(a, Y)", "tc(b, Y)", "tc(c, Y)", "tc(X, b)", "tc(X, c)"] {
            let q = service.parse_query(text).unwrap();
            service.query(&q).unwrap();
        }
        assert!(service.result_cache().len() <= 2);
        assert!(service.result_cache().stats().evictions >= 3);
    }

    #[test]
    fn byte_budget_bounds_the_cache_payload() {
        let service = QueryService::with_config(
            rq_datalog::parse_program(TC).unwrap(),
            ServiceConfig {
                threads: 1,
                result_cache_capacity: None,
                result_cache_bytes: Some(400),
                ..ServiceConfig::default()
            },
        );
        // An entry is charged 80 B of key (two arguments) + 80 B fixed
        // + 4 B per cell: 172, 168 and 164 B for the three forward
        // answers ({b,c,d}, {c,d}, {d}).  The third overflows 400 B and
        // evicts the first (down to the 7/8 target, 350 B); the 6 x 2
        // all-pairs answer (208 B) evicts the other two; `tc(X, b)` =
        // {a} (164 B) then fits beside it.
        for text in ["tc(a, Y)", "tc(b, Y)", "tc(c, Y)", "tc(X, Y)", "tc(X, b)"] {
            service.query(&service.parse_query(text).unwrap()).unwrap();
        }
        assert_eq!(service.result_cache().bytes(), 208 + 164);
        assert_eq!(service.result_cache().len(), 2);
        assert_eq!(service.result_cache().stats().evictions, 3);
        // Every surface reports that same number.
        assert_eq!(service.stats_report().result_bytes, 372);
        assert!(service
            .metrics_prometheus()
            .contains("rq_result_cache_bytes 372\n"));
    }

    #[test]
    fn batch_is_ordered_consistent_and_deduped() {
        let service = QueryService::from_source(TC).unwrap();
        // `tc(a, Y)` and `tc(a, Z)` are the same canonical spec.
        let queries: Vec<QuerySpec> = ["tc(a, Y)", "tc(b, Y)", "tc(a, Z)", "tc(X, d)", "tc(a, Y)"]
            .iter()
            .map(|t| service.parse_query(t).unwrap())
            .collect();
        let batch = service.query_batch(&queries);
        assert_eq!(batch.len(), 5);
        let sizes: Vec<usize> = batch
            .iter()
            .map(|r| r.as_ref().unwrap().rows.len())
            .collect();
        assert_eq!(sizes, vec![3, 2, 3, 3, 3]);
        assert!(batch.iter().all(|r| r.as_ref().unwrap().epoch == 0));
        // The two duplicates of `tc(a, ·)` shared one evaluation.
        assert_eq!(service.result_cache().stats().deduped, 2);
        assert!(Arc::ptr_eq(
            &batch[0].as_ref().unwrap().rows,
            &batch[2].as_ref().unwrap().rows
        ));
    }

    #[test]
    fn batch_on_pinned_snapshot_ignores_later_publishes() {
        // A front end parses and renders against one snapshot; the
        // evaluation must stay on that snapshot even when an ingest
        // publishes (and interns new constants) in between — otherwise
        // the rows could name constants the pinned interner has never
        // seen.
        let service = QueryService::from_source(TC).unwrap();
        let q = service.parse_query("tc(a, Y)").unwrap();
        let pinned = service.snapshot();
        service.ingest("e(d, brand_new).").unwrap();
        let batch = service.query_batch_on(&pinned, std::slice::from_ref(&q));
        let answer = batch[0].as_ref().unwrap();
        assert_eq!(answer.epoch, 0, "evaluation must stay on the pinned epoch");
        assert_eq!(rendered(&service, answer), vec!["b", "c", "d"]);
        // Every row decodes through the pinned snapshot's interner.
        for row in answer.rows.iter() {
            for &c in row {
                let _ = pinned.program().consts.value(c);
            }
        }
        // The unpinned entry point answers on the new epoch.
        let fresh = service.query_batch(&[q]);
        assert_eq!(fresh[0].as_ref().unwrap().epoch, 1);
        assert_eq!(fresh[0].as_ref().unwrap().rows.len(), 4);
    }

    #[test]
    fn batch_mixes_forms_and_arities() {
        let service = QueryService::from_source(&format!("{TC}\n{FLIGHTS}")).unwrap();
        let queries: Vec<QuerySpec> = [
            "tc(a, Y)",
            "tc(X, Y)",
            "cnx(hel, 540, D, AT)",
            "tc(a, d)",
            "tc(X, X)",
        ]
        .iter()
        .map(|t| service.parse_query(t).unwrap())
        .collect();
        let batch = service.query_batch(&queries);
        assert_eq!(batch[0].as_ref().unwrap().rows.len(), 3);
        assert_eq!(batch[1].as_ref().unwrap().rows.len(), 6);
        assert_eq!(batch[2].as_ref().unwrap().rows.len(), 3);
        assert!(batch[3].as_ref().unwrap().holds());
        assert!(batch[4].as_ref().unwrap().rows.is_empty()); // acyclic chain
    }

    #[test]
    fn cyclic_data_terminates_under_guard() {
        let service = QueryService::from_source(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a1,a2). up(a2,a1). flat(a1,b1).\n\
             down(b1,b2). down(b2,b3). down(b3,b1).",
        )
        .unwrap();
        let q = service.parse_query("sg(a1, Y)").unwrap();
        let out = service.query(&q).unwrap();
        assert!(out.converged, "the m·n guard is sufficient");
        assert_eq!(rendered(&service, &out), vec!["b1", "b2", "b3"]);
        // The inverse direction is guarded through the inverted system.
        let q = service.parse_query("sg(X, b1)").unwrap();
        let out = service.query(&q).unwrap();
        assert!(out.converged);
        assert_eq!(rendered(&service, &out), vec!["a1", "a2"]);
    }

    #[test]
    fn nonlinear_cyclic_query_stops_at_fallback_budget() {
        // Mutual recursion that Lemma 1 does not flatten to the linear
        // shape, so no m·n bound exists; cyclic data then diverges.
        // The fallback budget must stop it and report non-convergence.
        let service = QueryService::with_config(
            rq_datalog::parse_program(
                "q1(X,Z) :- a(X,Y), q2(Y,Z).\n\
                 q2(X,Y) :- r2(X,Y).\n\
                 q2(X,Z) :- q1(X,Y), r1(Y,Z).\n\
                 a(s,t). a(t,s). r2(s,t). r2(t,s). r1(t,s). r1(s,t).",
            )
            .unwrap(),
            ServiceConfig {
                threads: 1,
                fallback_node_budget: Some(5_000),
                ..ServiceConfig::default()
            },
        );
        let q = service.parse_query("q1(s, Y)").unwrap();
        let bound = q.bound_values()[0];
        let out = service.query(&q).unwrap();
        // Sound answers, honest flag: possibly incomplete.
        let oracle = rq_datalog::seminaive_eval(service.snapshot().program()).unwrap();
        let q1 = service.snapshot().program().pred_by_name("q1").unwrap();
        let full: Vec<_> = oracle.tuples(q1);
        for row in out.rows.iter() {
            assert!(full.iter().any(|t| t[0] == bound && t[1] == row[0]));
        }
        assert!(
            !out.converged,
            "a divergent traversal stopped by the budget must say so"
        );
    }

    #[test]
    fn parse_errors_are_specific() {
        let service = QueryService::from_source(TC).unwrap();
        assert!(matches!(
            service.parse_query("tc(a Y)"),
            Err(ServiceError::Malformed(_))
        ));
        assert!(matches!(
            service.parse_query("zzz(a, Y)"),
            Err(ServiceError::UnknownPredicate(_))
        ));
        assert!(matches!(
            service.parse_query("e(a, Y)"),
            Err(ServiceError::NotDerived(_))
        ));
        assert!(matches!(
            service.parse_query("tc(a, Y, Z)"),
            Err(ServiceError::ArityMismatch {
                expected: 2,
                got: 3,
                ..
            })
        ));
        assert!(matches!(
            service.parse_query("tc(nosuch, Y)"),
            Err(ServiceError::UnknownConstant(_))
        ));
        assert!(matches!(
            service.parse_query("tc"),
            Err(ServiceError::Malformed(_))
        ));
        // Every binding pattern parses now; bound-bound included.
        assert!(service.parse_query("tc(a, b)").is_ok());
        assert!(service.parse_query("tc(X, Y)").is_ok());
        assert!(service.parse_query("tc(Z, Z)").is_ok());
    }

    #[test]
    fn over_wide_predicates_are_rejected_cleanly() {
        // 33 positions exceed the adornment bitmask; the query must be
        // refused at parse time, not silently alias positions.
        let args: Vec<String> = (0..33).map(|i| format!("X{i}")).collect();
        let src = format!(
            "wide({a}) :- base({a}).\nbase({c}).",
            a = args.join(","),
            c = vec!["k"; 33].join(",")
        );
        let service = QueryService::from_source(&src).unwrap();
        let err = service
            .parse_query(&format!("wide({})", args.join(",")))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(_)), "{err}");
    }

    #[test]
    fn service_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryService>();
        assert_send_sync::<ServiceAnswer>();

        let service = QueryService::from_source(TC).unwrap();
        let q = service.parse_query("tc(a, Y)").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let out = service.query(&q).unwrap();
                    assert_eq!(out.rows.len(), 3);
                });
            }
        });
    }

    #[test]
    fn nary_queries_share_threads_too() {
        let service = QueryService::with_config(
            rq_datalog::parse_program(FLIGHTS).unwrap(),
            ServiceConfig {
                threads: 4,
                memoize_results: false,
                ..ServiceConfig::default()
            },
        );
        let q = service.parse_query("cnx(hel, 540, D, AT)").unwrap();
        let batch = service.query_batch(&vec![q; 8]);
        for out in batch {
            assert_eq!(out.unwrap().rows.len(), 3);
        }
    }
}
