//! Shared substrate for the `recursive-queries` workspace.
//!
//! This crate holds the cross-cutting pieces every other crate builds on:
//!
//! * [`hash`] — an FxHash-style fast hasher and map/set aliases;
//! * [`intern`] — interned constants, predicates, and variables;
//! * [`idvec`] — dense tables indexed by interned ids;
//! * [`json`] — a tiny hand-rolled JSON value type with encoder and
//!   decoder, shared by the `rq-wire` HTTP API and the bench-summary
//!   writer (no registry access, so no serde);
//! * [`memo`] — a bounded concurrent memo behind the engine's
//!   epoch-scoped machine-traversal memo;
//! * [`counters`] — the unit-cost instrumentation counters that the
//!   benchmark harness uses to reproduce the paper's complexity table;
//! * [`obs`] — the observability substrate: a sharded metrics
//!   registry (counters, gauges, log-bucket histograms) with a
//!   Prometheus text renderer, plus thread-local structured spans
//!   behind the `"trace": true` query responses and the slow-query
//!   log;
//! * [`pshare`] — persistent (structurally shared) chunked vectors and
//!   hash tries, the storage substrate that makes snapshot epochs cost
//!   O(delta) instead of O(database);
//! * [`rows`] — flat answer rows: one sorted, deduplicated row-major
//!   buffer per answer, the representation the serving stack keeps
//!   from the engine to the socket;
//! * [`threads`] — the `RQC_THREADS` thread-count cap every
//!   parallelism-spawning layer resolves its worker count through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hash;
pub mod idvec;
pub mod intern;
pub mod json;
pub mod memo;
pub mod obs;
pub mod pshare;
pub mod rows;
pub mod threads;

pub use counters::Counters;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use idvec::{IdLike, IdVec};
pub use intern::{Const, ConstInterner, ConstValue, NameInterner, Pred, Var};
pub use json::{Json, JsonError};
pub use memo::{BoundedMemo, MemoStats};
pub use obs::{Counter, Gauge, Histogram, Registry};
pub use pshare::{PMap, PVec};
pub use rows::{Rows, RowsBuilder};
pub use threads::{capped_threads, thread_cap};
