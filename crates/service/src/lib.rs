//! `rq-service` — a thread-safe query-serving layer over the paper's
//! demand-driven evaluator.
//!
//! The paper's graph-traversal algorithm (§3, Figures 4–5) explores only
//! the fragment of the interpretation graph a query `p(a, Y)` demands,
//! and §4 extends it to n-ary linear programs through a
//! binding-propagating transformation.  That makes per-query results
//! small and cacheable — the right shape for serving many concurrent
//! queries.  This crate adds the serving machinery around the engine:
//!
//! * [`QuerySpec`] — the unified query representation: one predicate of
//!   any arity, each argument bound ([`Arg::Bound`]) or free
//!   ([`Arg::Free`]), repeated free variables expressing diagonals.
//!   Every §3 form (`p(a,Y)`, `p(X,a)`, `p(a,b)`, `p(X,Y)`, `p(X,X)`)
//!   and every §4 n-ary form (`cnx(hel, 540, D, AT)`) is one spec; its
//!   derived [`Adornment`] is the planning key.
//! * [`SnapshotStore`] — epoch-versioned, immutable, `Arc`-shared
//!   [`Snapshot`]s of the program + database.  Storage is predicate-
//!   sharded and persistent (`rq_common::pshare`), so publishing an
//!   epoch costs O(delta): untouched shards are pointer-shared with
//!   the parent epoch and each snapshot records exactly which shards
//!   its ingest dirtied.
//! * [`PlanCache`] — compilation memoized per `(rules fingerprint,
//!   predicate, adornment)`: the `lemma1 → automata` pipeline for
//!   binary-chain queries (one [`plan::ProgramPlan`] per program) and
//!   the §4 `adorn → transform → lemma1 → automata` pipeline for
//!   everything else (one `NaryPlan` per key); compiles once per
//!   pattern instead of once per query, and survives fact ingestion.
//! * [`ResultCache`] — `(epoch, spec) → answer rows` memoization in the
//!   salsa mold: keys embed the revision, so an epoch bump invalidates
//!   by construction — except that entries whose plan reads only
//!   *clean* predicates (§4 virtual predicates resolved back to the
//!   real relations they join) are re-keyed and survive the publish.
//!   The cache is bounded by an entry cap and a byte budget (LRU) with
//!   hit/miss/evict/dedup counters.
//! * [`EpochContext`] — the epoch-scoped evaluation context each
//!   [`Snapshot`] owns: the engine's machine-traversal memo, one
//!   shared §4 virtual-probe memo per plan, and the SCC-path counter.
//!   Intra-epoch sharing is sound because the snapshot is immutable;
//!   publishing a new epoch invalidates wholesale by construction.
//! * [`QueryService`] — the front end: parsing, single queries, fact
//!   ingestion, and [`QueryService::query_batch`], which dedups
//!   identical specs and answers the rest in order on the calling
//!   thread over one pinned snapshot.  The service spawns no threads:
//!   front ends get concurrency by answering concurrent requests on
//!   their own threads (the `rq-wire` workers), all sharing one
//!   service.
//!   [`QueryService::answer_text`] / [`QueryService::answer_texts`]
//!   ([`text`]) are the one route from query *text* to answer rows that
//!   every front end calls.
//!
//! Correctness is anchored by differential tests: every answer the
//! service produces is compared against the single-threaded
//! [`rq_engine::Evaluator`] oracle and the QSQ / magic-sets baselines,
//! including under concurrent ingestion (`tests/oracle_parity.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod durable;
pub mod plan;
pub mod publish;
pub mod results;
pub mod service;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod text;

pub use context::{EpochContext, EpochContextStats};
pub use durable::{DurabilityConfig, DurabilityStats, RecoveryReport};
pub use plan::{rules_fingerprint, CacheStats, PlanCache, PlanKey};
pub use results::{CachedResult, ResultCache, ResultKey, SweepDecision};
pub use service::{QueryService, Route, ServiceAnswer, ServiceConfig, ServiceError};
pub use snapshot::{Delta, IngestError, Snapshot, SnapshotStore};
pub use spec::{Adornment, Arg, QuerySpec};
pub use stats::StatsReport;
pub use text::{parse_serve_query, TextAnswer};
