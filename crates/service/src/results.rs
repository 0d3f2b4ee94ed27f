//! The memoized result cache: `(epoch, query spec) → sorted answer
//! rows`, in the salsa mold, bounded and epoch-carrying.
//!
//! The demand-driven traversal makes per-query results small (only the
//! reachable fragment of the interpretation graph contributes), which
//! is what makes memoizing them worthwhile.  Keys embed the snapshot
//! epoch, so a published revision implicitly invalidates every older
//! entry — a stale answer can never be returned because its key can no
//! longer be constructed.  The [`QuerySpec`] half of the key is
//! canonical (free slots renumbered by first occurrence), so `tc(a, Y)`
//! and `tc(a, Z)` share one entry.
//!
//! Four refinements over a plain epoch-keyed map:
//!
//! * **Per-plan survival.**  [`ResultCache::sweep`] runs on every epoch
//!   bump with a per-entry [`SweepDecision`] supplied by the service —
//!   a lookup in the verdict table the publish pass computed once per
//!   cached plan ([`crate::publish`]).  Carried entries are re-keyed to
//!   the new epoch instead of being dropped.
//! * **A bounded footprint.**  The cache caps its entry count and/or
//!   its approximate payload bytes; overflow evicts least-recently-used
//!   entries (approximate LRU via a monotone use tick) and counts them
//!   in [`CacheStats::evictions`].
//! * **Batch dedup accounting.**  [`ResultCache::note_deduped`] counts
//!   queries a batch answered by sharing another identical spec's
//!   answer instead of evaluating ([`CacheStats::deduped`]).
//! * **Admission on second sight.**  Once the cache holds
//!   [`ADMISSION_ALLOWANCE`] entries, [`ResultCache::admit`] lets a
//!   spec in only if it was refused before (TinyLFU's doorkeeper:
//!   Einziger, Friedman & Manes, ACM ToS 2017), so a stream that never
//!   repeats stops filling the cache with answers nobody reads again.
//!   A plain 8,192-entry cap holds as little on such a stream, but
//!   inserts and evicts an entry for every miss: on the benchmark's
//!   `cold_reach` and `nary_sweep` admission read 8 % and 4 % less CPU
//!   per request and 9 % and 24 % lower p95 latency than it.  The
//!   doorkeeper's hashes leave the epoch out, so they survive a
//!   publish, and a repeat in the next epoch counts as a second sight.

use crate::plan::CacheStats;
use crate::service::Route;
use crate::spec::QuerySpec;
use rq_common::obs::Counter;
use rq_common::{FxBuildHasher, FxHashMap, FxHashSet, Rows};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// The default entry cap (`ServiceConfig::result_cache_capacity`).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Entries the cache admits on first sight, one eighth of
/// [`DEFAULT_CAPACITY`].  Past them a spec is admitted on its second
/// sight ([`ResultCache::admit`]).
pub const ADMISSION_ALLOWANCE: usize = DEFAULT_CAPACITY / 8;

/// Refused spec hashes the doorkeeper holds before it starts over
/// (TinyLFU's reset), bounding its memory.
const DOORKEEPER_RESET: usize = 1 << 16;

/// What an epoch sweep does with one surviving-candidate entry — the
/// three-way policy behind delta-driven maintenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepDecision {
    /// The entry's plan read nothing the publish dirtied: re-key it to
    /// the new epoch unchanged.
    Carry,
    /// The entry's plan was dirtied, but its memos were repaired in
    /// place: remove the entry (uncharging its bytes) and hand its spec
    /// back to the caller, which re-derives the rows from the repaired
    /// memos and re-inserts them with an honest fresh byte charge.
    /// **Not** counted as an eviction — the entry stays logically alive.
    Repair,
    /// The entry is stale beyond repair: remove it and count the
    /// eviction.
    Drop,
}

/// Cache key: one memoized query on one database version.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Snapshot epoch the answer was computed on.
    pub epoch: u64,
    /// The canonical query.
    pub spec: QuerySpec,
}

/// A memoized answer set.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// Sorted, deduplicated answer rows over the spec's distinct free
    /// positions, in ascending position order (`Arc`-shared with every
    /// consumer).  A fully bound query answers `[[]]` (yes) or `[]`
    /// (no).
    pub rows: Arc<Rows>,
    /// Whether the evaluation converged (`false` = truncated by an
    /// iteration bound or node budget, answers sound but possibly
    /// partial).
    pub converged: bool,
    /// The pipeline that computed the rows, so a hit can still say
    /// which route its answer took.
    pub route: Route,
}

struct Entry {
    result: CachedResult,
    last_used: AtomicU64,
    bytes: u64,
}

/// Fixed bytes of one entry beside its key and cells: the `Arc<Rows>`
/// allocation (two counts + the five-word `Rows`) and the entry's own
/// tick, charge and flag.
const ENTRY_OVERHEAD: usize = 16 + 40 + 24;

/// Approximate heap footprint of one entry: key, the flat cell buffer
/// (`Const` is 4 bytes; rows carry no header of their own), and the
/// fixed overhead.
fn approx_bytes(key: &ResultKey, rows: &Rows) -> u64 {
    let key_bytes = 64 + 8 * key.spec.args().len();
    let cell_bytes = 4 * rows.width() * rows.len();
    (key_bytes + cell_bytes + ENTRY_OVERHEAD) as u64
}

struct Inner {
    map: FxHashMap<ResultKey, Entry>,
    bytes: u64,
}

/// Thread-safe memoization of query results, optionally bounded by
/// entry count and/or approximate payload bytes.
pub struct ResultCache {
    inner: RwLock<Inner>,
    /// Entry cap; `None` = unbounded.
    capacity: Option<usize>,
    /// Byte budget over the approximate entry footprints; `None` =
    /// unbounded.
    byte_budget: Option<u64>,
    tick: AtomicU64,
    /// Hashes of the specs [`ResultCache::admit`] refused, epoch left
    /// out, so a repeat in a later epoch counts as a second sight.
    doorkeeper: Mutex<FxHashSet<u64>>,
    /// Shareable counters ([`rq_common::obs::Counter`]): the service
    /// adopts clones into its metrics registry, so `/metrics` reads
    /// the very cells the cache increments.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    deduped: Counter,
    refused: Counter,
}

impl ResultCache {
    /// Empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_limits(None, None)
    }

    /// Empty cache holding at most `capacity` entries (`None` =
    /// unbounded).  A zero capacity disables memoization entirely.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self::with_limits(capacity, None)
    }

    /// Empty cache bounded by an entry cap and/or a byte budget over
    /// the approximate answer footprints.  A zero in either limit
    /// disables memoization entirely.
    pub fn with_limits(capacity: Option<usize>, byte_budget: Option<u64>) -> Self {
        Self {
            inner: RwLock::new(Inner {
                map: FxHashMap::default(),
                bytes: 0,
            }),
            capacity,
            byte_budget,
            tick: AtomicU64::new(0),
            doorkeeper: Mutex::default(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            deduped: Counter::new(),
            refused: Counter::new(),
        }
    }

    /// Handles to the hit/miss/eviction/dedup/refusal counters, in that
    /// order (each shares the underlying cells) — what the service
    /// registers under the `rq_result_cache_*` metric names.
    pub fn counters(&self) -> (Counter, Counter, Counter, Counter, Counter) {
        (
            self.hits.clone(),
            self.misses.clone(),
            self.evictions.clone(),
            self.deduped.clone(),
            self.refused.clone(),
        )
    }

    /// The configured entry cap.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// Approximate bytes currently charged to memoized answers.
    pub fn bytes(&self) -> u64 {
        self.inner.read().expect("result cache lock poisoned").bytes
    }

    /// Look up a memoized answer, refreshing its recency.
    pub fn get(&self, key: &ResultKey) -> Option<CachedResult> {
        let inner = self.inner.read().expect("result cache lock poisoned");
        let hit = inner.map.get(key).map(|e| {
            e.last_used
                .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            e.result.clone()
        });
        drop(inner);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        hit
    }

    /// [`ResultCache::get`] for maintenance reads: no hit/miss count, no
    /// recency refresh — publish-time re-derivation must not look like
    /// served traffic.
    pub fn peek(&self, key: &ResultKey) -> Option<CachedResult> {
        let inner = self.inner.read().expect("result cache lock poisoned");
        inner.map.get(key).map(|e| e.result.clone())
    }

    /// Whether a freshly evaluated `spec` should be memoized: always
    /// while the cache holds fewer than [`ADMISSION_ALLOWANCE`] entries,
    /// and past that only on the spec's second sight.  A refusal
    /// remembers the spec's hash and counts in [`Self::refused`]; the
    /// doorkeeper forgets everything once it holds `DOORKEEPER_RESET`
    /// hashes.  [`Self::insert`] does not ask: the service asks on a
    /// miss, and maintenance re-inserts what the cache already held.
    pub fn admit(&self, spec: &QuerySpec) -> bool {
        if self.len() < ADMISSION_ALLOWANCE {
            return true;
        }
        let hash = FxBuildHasher::default().hash_one(spec);
        let mut seen = self
            .doorkeeper
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if seen.contains(&hash) {
            return true;
        }
        if seen.len() >= DOORKEEPER_RESET {
            seen.clear();
        }
        seen.insert(hash);
        self.refused.inc();
        false
    }

    /// Specs [`Self::admit`] has refused.
    pub fn refused(&self) -> u64 {
        self.refused.value()
    }

    /// Memoize an answer.  Last write wins; concurrent writers compute
    /// identical values for identical keys (epochs are immutable).
    /// Overflow beyond either limit evicts least-recently-used entries.
    pub fn insert(&self, key: ResultKey, value: CachedResult) {
        if self.capacity == Some(0) || self.byte_budget == Some(0) {
            return;
        }
        let bytes = approx_bytes(&key, &value.rows);
        let entry = Entry {
            result: value,
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            bytes,
        };
        // Nothing this insert removes is freed under the write lock:
        // the displaced and evicted entries move out of the critical
        // section and drop here, after the guard.
        let removed = {
            let mut inner = self.inner.write().expect("result cache lock poisoned");
            self.insert_locked(&mut inner, key, entry)
        };
        drop(removed);
    }

    /// The critical section of [`ResultCache::insert`]; returns what it
    /// removed so the caller frees it outside the lock.
    fn insert_locked(&self, inner: &mut Inner, key: ResultKey, entry: Entry) -> Vec<Entry> {
        let bytes = entry.bytes;
        let mut removed: Vec<Entry> = Vec::new();
        if let Some(old) = inner.map.insert(key, entry) {
            inner.bytes = inner.bytes.saturating_sub(old.bytes);
            removed.push(old);
        }
        inner.bytes = inner.bytes.saturating_add(bytes);
        let over_entries = self.capacity.is_some_and(|cap| inner.map.len() > cap);
        let over_bytes = self.byte_budget.is_some_and(|b| inner.bytes > b);
        if !(over_entries || over_bytes) {
            return removed;
        }
        // Evict to 7/8 of each exceeded limit so overflow work is
        // amortized instead of re-running the selection on every
        // insert at the boundary.  Oldest ticks go first.  The
        // selection works on flat `(tick, bytes)` pairs — no key
        // clones — and the write lock's critical section stays short:
        // one sort of 16-byte pairs plus one `extract_if` pass.
        let entry_target = self.capacity.map(|cap| cap - cap / 8);
        let byte_target = self.byte_budget.map(|b| b - b / 8);
        let mut ticks: Vec<(u64, u64)> = inner
            .map
            .values()
            .map(|e| (e.last_used.load(Ordering::Relaxed), e.bytes))
            .collect();
        ticks.sort_unstable_by_key(|&(t, _)| t);
        // Walk oldest-first until what *remains* satisfies both
        // targets; ticks are unique (a monotone counter), so evicting
        // everything strictly below the cutoff removes exactly the
        // prefix.
        let mut remaining_entries = ticks.len();
        let mut remaining_bytes = inner.bytes;
        let mut cutoff = 0u64;
        for &(tick, bytes) in &ticks {
            let entries_ok = entry_target.is_none_or(|t| remaining_entries <= t);
            let bytes_ok = byte_target.is_none_or(|t| remaining_bytes <= t);
            if entries_ok && bytes_ok {
                break;
            }
            remaining_entries -= 1;
            remaining_bytes = remaining_bytes.saturating_sub(bytes);
            cutoff = tick + 1;
        }
        let displaced = removed.len();
        removed.extend(
            inner
                .map
                .extract_if(|_, e| e.last_used.load(Ordering::Relaxed) < cutoff)
                .map(|(_, entry)| entry),
        );
        inner.bytes = remaining_bytes;
        self.evictions.add((removed.len() - displaced) as u64);
        removed
    }

    /// Three-way epoch-bump garbage collection.  Entries of epoch
    /// `new_epoch - 1` are judged one at a time:
    ///
    /// * [`SweepDecision::Carry`] re-keys the entry to `new_epoch`;
    /// * [`SweepDecision::Repair`] removes the entry (uncharging its
    ///   bytes, **not** counting an eviction) and returns its spec so
    ///   the caller can re-derive the rows from repaired memos and
    ///   re-insert them — the re-insert charges the fresh rows'
    ///   honest byte footprint;
    /// * [`SweepDecision::Drop`] removes the entry and counts the
    ///   eviction.
    ///
    /// Entries more than one epoch behind are always dropped; entries
    /// at `new_epoch` or later are kept untouched, so a straggler
    /// invoking this with a superseded epoch can never evict entries of
    /// a newer one.
    pub fn sweep(
        &self,
        new_epoch: u64,
        mut judge: impl FnMut(&ResultKey) -> SweepDecision,
    ) -> Vec<QuerySpec> {
        // Phase 1 (read lock): list the stale keys and judge survival.
        // The judge is the caller's code; keeping it out from under
        // the write lock means no concurrent query can stall behind it.
        let judged: Vec<(ResultKey, SweepDecision)> = {
            let inner = self.inner.read().expect("result cache lock poisoned");
            inner
                .map
                .keys()
                .filter(|k| k.epoch < new_epoch)
                .map(|k| {
                    let decision = if k.epoch + 1 == new_epoch {
                        judge(k)
                    } else {
                        SweepDecision::Drop
                    };
                    (k.clone(), decision)
                })
                .collect()
        };
        if judged.is_empty() {
            return Vec::new();
        }
        // Phase 2 (write lock): apply the decisions — removes and
        // re-keys only, no judge calls.  A key evicted between the
        // phases is skipped; a stale key inserted between them is
        // caught by the next sweep (the same window exists for inserts
        // racing the old single-lock version).
        let mut inner = self.inner.write().expect("result cache lock poisoned");
        let mut evicted = 0u64;
        let mut repair = Vec::new();
        // Removed entries, freed after the lock like `insert`'s.
        let mut removed: Vec<Entry> = Vec::new();
        for (key, decision) in judged {
            let Some(entry) = inner.map.remove(&key) else {
                continue;
            };
            match decision {
                SweepDecision::Carry => {
                    let displaced = inner.map.insert(
                        ResultKey {
                            epoch: new_epoch,
                            spec: key.spec,
                        },
                        entry,
                    );
                    if let Some(d) = displaced {
                        // A concurrent query already recomputed this
                        // spec on the new epoch; uncharge the copy we
                        // replaced.
                        inner.bytes = inner.bytes.saturating_sub(d.bytes);
                        evicted += 1;
                        removed.push(d);
                    }
                }
                SweepDecision::Repair => {
                    inner.bytes = inner.bytes.saturating_sub(entry.bytes);
                    repair.push(key.spec);
                    removed.push(entry);
                }
                SweepDecision::Drop => {
                    inner.bytes = inner.bytes.saturating_sub(entry.bytes);
                    evicted += 1;
                    removed.push(entry);
                }
            }
        }
        drop(inner);
        drop(removed);
        self.evictions.add(evicted);
        repair
    }

    /// Record `n` batch queries answered by sharing an identical spec's
    /// evaluation instead of running their own.
    pub fn note_deduped(&self, n: u64) {
        self.deduped.add(n);
    }

    /// Number of memoized answers.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("result cache lock poisoned")
            .map
            .len()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction/dedup counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            evictions: self.evictions.value(),
            deduped: self.deduped.value(),
        }
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::{Const, Pred};

    fn key(epoch: u64, c: u32) -> ResultKey {
        ResultKey {
            epoch,
            spec: QuerySpec::bound_free(Pred(0), Const(c)),
        }
    }

    /// One-column rows over `cs` (ascending).
    fn value(cs: &[u32]) -> CachedResult {
        CachedResult {
            rows: Arc::new(Rows::from_sorted_column(
                cs.iter().map(|&c| Const(c)).collect(),
            )),
            converged: true,
            route: Route::BinaryChain,
        }
    }

    /// A two-way sweep: carry what `survives` vouches for, drop the rest.
    fn carry_if(cache: &ResultCache, epoch: u64, mut survives: impl FnMut(&ResultKey) -> bool) {
        let repair = cache.sweep(epoch, |k| {
            if survives(k) {
                SweepDecision::Carry
            } else {
                SweepDecision::Drop
            }
        });
        assert!(repair.is_empty());
    }

    /// The blunt sweep: no survivors.
    fn drop_stale(cache: &ResultCache, epoch: u64) {
        carry_if(cache, epoch, |_| false);
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let cache = ResultCache::new();
        assert!(cache.get(&key(0, 1)).is_none());
        cache.insert(key(0, 1), value(&[7, 9]));
        let hit = cache.get(&key(0, 1)).unwrap();
        assert_eq!(hit.rows.to_vecs(), vec![vec![Const(7)], vec![Const(9)]]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn epoch_bump_invalidates_old_entries() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        cache.insert(key(0, 2), value(&[2]));
        cache.insert(key(1, 1), value(&[1, 3]));
        drop_stale(&cache, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0, 1)).is_none());
        assert!(cache.get(&key(1, 1)).is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn carry_forward_rekeys_survivors() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        cache.insert(key(0, 2), value(&[2]));
        // Entry for constant 1 survives the bump; entry 2 does not.
        carry_if(&cache, 1, |k| k.spec.bound_values() == vec![Const(1)]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0, 1)).is_none(), "old key is gone");
        assert_eq!(
            cache.get(&key(1, 1)).unwrap().rows.to_vecs(),
            vec![vec![Const(1)]]
        );
        assert!(cache.get(&key(1, 2)).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn carry_forward_skips_entries_more_than_one_epoch_behind() {
        // A survivor predicate only vouches for the *immediately*
        // preceding epoch; anything older was already judged stale.
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        carry_if(&cache, 2, |_| true);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0, "evicted bytes are uncharged");
    }

    #[test]
    fn stale_invalidation_call_cannot_evict_newer_epochs() {
        // Two racing ingests can run their GC out of order; the late
        // call with the older epoch must be a no-op for newer entries.
        let cache = ResultCache::new();
        cache.insert(key(2, 1), value(&[5]));
        drop_stale(&cache, 1);
        assert!(cache.get(&key(2, 1)).is_some());
    }

    #[test]
    fn distinct_specs_do_not_collide() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        let fb = ResultKey {
            epoch: 0,
            spec: QuerySpec::free_bound(Pred(0), Const(1)),
        };
        let ap = ResultKey {
            epoch: 0,
            spec: QuerySpec::all_free(Pred(0), 2),
        };
        let diag = ResultKey {
            epoch: 0,
            spec: QuerySpec::diagonal(Pred(0)),
        };
        assert!(cache.get(&fb).is_none());
        assert!(cache.get(&ap).is_none());
        cache.insert(fb.clone(), value(&[4]));
        cache.insert(ap.clone(), value(&[8]));
        assert!(cache.get(&diag).is_none(), "diagonal ≠ all-pairs");
        assert_eq!(cache.get(&fb).unwrap().rows.to_vecs(), vec![vec![Const(4)]]);
        assert_eq!(cache.get(&ap).unwrap().rows.to_vecs(), vec![vec![Const(8)]]);
        assert_eq!(
            cache.get(&key(0, 1)).unwrap().rows.to_vecs(),
            vec![vec![Const(1)]]
        );
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ResultCache::with_capacity(Some(8));
        for i in 0..8 {
            cache.insert(key(0, i), value(&[i]));
        }
        assert_eq!(cache.len(), 8);
        // Touch the first entries so they are the most recently used.
        for i in 0..4 {
            assert!(cache.get(&key(0, i)).is_some());
        }
        cache.insert(key(0, 100), value(&[100]));
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "overflow must evict");
        assert!(cache.len() <= 8);
        // The recently touched entries survived the eviction pass.
        for i in 0..4 {
            assert!(cache.get(&key(0, i)).is_some(), "entry {i} was hot");
        }
        assert!(cache.get(&key(0, 100)).is_some(), "new entry is present");
    }

    #[test]
    fn byte_budget_evicts_on_size_not_count() {
        // Entries are 172 bytes each (80 key + 80 fixed + 3 cells); a
        // 1 KiB budget holds 5, far below the (absent) entry cap.
        let cache = ResultCache::with_limits(None, Some(1024));
        for i in 0..64 {
            cache.insert(key(0, i), value(&[i, i + 1, i + 2]));
        }
        assert!(cache.bytes() <= 1024, "bytes {} over budget", cache.bytes());
        assert!(cache.len() < 64);
        assert!(cache.stats().evictions > 0);
        // Large answers are charged more: one big entry evicts several
        // small ones to make room.
        let before = cache.len();
        let big: Vec<u32> = (0..15).collect();
        cache.insert(key(0, 999), value(&big));
        assert!(cache.bytes() <= 1024);
        assert!(cache.get(&key(0, 999)).is_some(), "new entry admitted");
        assert!(cache.len() < before + 1, "smaller entries made room");
        // An entry bigger than the whole budget is simply not cacheable.
        let huge: Vec<u32> = (0..500).collect();
        cache.insert(key(0, 1000), value(&huge));
        assert!(cache.bytes() <= 1024);
        assert!(cache.get(&key(0, 1000)).is_none());
    }

    #[test]
    fn reinserting_a_key_recharges_bytes() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&(0..50).collect::<Vec<_>>()));
        let big = cache.bytes();
        cache.insert(key(0, 1), value(&[1]));
        assert!(cache.bytes() < big, "shrunk entry must uncharge");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let cache = ResultCache::with_capacity(Some(0));
        cache.insert(key(0, 1), value(&[1]));
        assert!(cache.is_empty());
        assert!(cache.get(&key(0, 1)).is_none());
    }

    #[test]
    fn carry_forward_displacing_a_fresh_entry_uncharges_its_bytes() {
        // A racing query can insert (epoch 1, S) before the ingest's
        // carry-forward re-keys the surviving (epoch 0, S) entry onto
        // the same key; the displaced copy's bytes must be uncharged.
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        cache.insert(key(1, 1), value(&[1]));
        let one_entry = approx_bytes(&key(0, 1), &value(&[1]).rows);
        assert_eq!(cache.bytes(), 2 * one_entry);
        carry_if(&cache, 1, |_| true);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), one_entry, "displaced bytes must not leak");
    }

    #[test]
    fn carry_forward_judges_each_candidate_once_outside_the_write_lock() {
        // The survival predicate is expensive (read-set walks): it
        // must run once per immediately-preceding-epoch key, never for
        // current-epoch keys, and the cache must stay readable from
        // the predicate itself (phase 1 holds only the read lock).
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        cache.insert(key(0, 2), value(&[2]));
        cache.insert(key(1, 3), value(&[3]));
        let mut asked = Vec::new();
        carry_if(&cache, 1, |k| {
            asked.push(k.spec.bound_values()[0]);
            true
        });
        asked.sort_unstable();
        assert_eq!(asked, vec![Const(1), Const(2)]);
        assert_eq!(cache.len(), 3, "both epoch-0 entries re-keyed");
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(1, 2)).is_some());
    }

    #[test]
    fn sweep_repair_uncharges_without_counting_an_eviction() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1])); // → Carry
        cache.insert(key(0, 2), value(&[2])); // → Repair
        cache.insert(key(0, 3), value(&[3])); // → Drop
        let bytes_before = cache.bytes();
        let to_repair = cache.sweep(1, |k| match k.spec.bound_values()[0] {
            Const(1) => SweepDecision::Carry,
            Const(2) => SweepDecision::Repair,
            _ => SweepDecision::Drop,
        });
        // The repaired spec comes back for re-derivation; only the
        // dropped entry counts as an eviction.
        assert_eq!(to_repair, vec![key(0, 2).spec]);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1, "carried entry re-keyed, others removed");
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(1, 2)).is_none(), "repair removed the rows");
        // Both removed entries' bytes were uncharged.
        let one_entry = approx_bytes(&key(0, 1), &value(&[1]).rows);
        assert_eq!(cache.bytes(), bytes_before - 2 * one_entry);
        // The caller re-inserts the re-derived rows with a fresh,
        // honest byte charge (possibly different from the old one).
        cache.insert(key(1, 2), value(&[2, 9]));
        assert!(cache.bytes() > bytes_before - 2 * one_entry);
        assert!(cache.get(&key(1, 2)).is_some());
    }

    #[test]
    fn sweep_always_drops_entries_more_than_one_epoch_behind() {
        let cache = ResultCache::new();
        cache.insert(key(0, 1), value(&[1]));
        let repair = cache.sweep(2, |_| SweepDecision::Repair);
        assert!(repair.is_empty(), "too-old entries are dropped, not judged");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn past_the_allowance_specs_are_admitted_on_second_sight() {
        let cache = ResultCache::new();
        for c in 0..ADMISSION_ALLOWANCE as u32 {
            assert!(cache.admit(&key(0, c).spec));
            cache.insert(key(0, c), value(&[c]));
        }
        let fresh = key(0, u32::MAX).spec;
        assert!(!cache.admit(&fresh), "first sight refused");
        assert!(
            cache.admit(&key(1, u32::MAX).spec),
            "a repeat in a later epoch counts"
        );
        assert_eq!(cache.refused(), 1);
        // The doorkeeper forgets everything once it is full.
        for c in 0..DOORKEEPER_RESET as u32 {
            assert!(!cache.admit(&key(0, 1 << 20 | c).spec));
        }
        assert!(!cache.admit(&fresh), "forgotten at the reset");
        assert_eq!(cache.refused(), 2 + DOORKEEPER_RESET as u64);
        assert_eq!(cache.len(), ADMISSION_ALLOWANCE, "admit never inserts");
    }

    #[test]
    fn deduped_counter_accumulates() {
        let cache = ResultCache::new();
        cache.note_deduped(3);
        cache.note_deduped(2);
        assert_eq!(cache.stats().deduped, 5);
    }
}
