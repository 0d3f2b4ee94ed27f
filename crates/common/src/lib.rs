//! Shared substrate for the `recursive-queries` workspace.
//!
//! This crate holds the cross-cutting pieces every other crate builds on:
//!
//! * [`arena`] — append-only chunked arenas and the lock-free answer
//!   store both epoch memos (machine traversals, §4 probes) keep their
//!   answer sets in;
//! * [`hash`] — an FxHash-style fast hasher and map/set aliases;
//! * [`intern`] — interned constants, predicates, and variables;
//! * [`idtable`] — a flat hash table of bare `u32` ids that compares
//!   and rehashes through the caller's storage: the shard column
//!   indexes and the §4 tuple interner;
//! * [`idvec`] — dense tables indexed by interned ids;
//! * [`json`] — a tiny hand-rolled JSON value type with encoder and
//!   decoder, shared by the `rq-wire` HTTP API and the bench-summary
//!   writer (no registry access, so no serde);
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
//!   from the engine to the socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod counters;
pub mod hash;
pub mod idtable;
pub mod idvec;
pub mod intern;
pub mod json;
pub mod obs;
pub mod pshare;
pub mod rows;

pub use arena::{AnswerStats, AnswerStore, Arena};
pub use counters::Counters;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use idtable::IdTable;
pub use idvec::{IdLike, IdVec};
pub use intern::{Const, ConstInterner, ConstValue, NameInterner, Pred, SourceInterner, Var};
pub use json::{Json, JsonError};
pub use obs::{Counter, Gauge, Histogram, Registry};
pub use pshare::{PMap, PVec};
pub use rows::{Rows, RowsBuilder};
