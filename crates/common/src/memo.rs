//! A bounded, thread-safe memo: the machinery behind the engine's
//! epoch-scoped machine-traversal memo (`rq_engine::EvalContext`).
//! (The §4 virtual-probe memo is not one: it keys by dense tuple id and
//! lives in `rq_adorn::ProbeSpace`'s append-only arenas.)
//!
//! Values are `Arc`-shared, lookups count hits/misses in per-thread
//! counter shards ([`Counter`], so two threads looking up in one memo
//! do not write one shared cache line), and the map carries an **entry
//! cap**: once full, `insert` refuses new keys instead of evicting.
//! Refusal is always sound for a memo — a miss just re-derives — and
//! keeps the steady-state cost of a saturated memo at one read-lock
//! probe ([`BoundedMemo::would_refuse`] lets callers skip preparing a
//! value that would be thrown away).

use crate::hash::FxHashMap;
use crate::obs::Counter;
use std::hash::Hash;
use std::sync::{Arc, RwLock};

/// Hit/miss/entry counts of one [`BoundedMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Stored entries.
    pub entries: usize,
}

/// A concurrent `K → Arc<V>` map bounded by an entry cap.
pub struct BoundedMemo<K, V> {
    map: RwLock<FxHashMap<K, Arc<V>>>,
    max_entries: usize,
    hits: Counter,
    misses: Counter,
}

impl<K: Eq + Hash, V> BoundedMemo<K, V> {
    /// Empty memo holding at most `max_entries` entries.
    pub fn new(max_entries: usize) -> Self {
        Self {
            map: RwLock::new(FxHashMap::default()),
            max_entries,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Look up `key`, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let hit = self
            .map
            .read()
            .expect("memo lock poisoned")
            .get(key)
            .cloned();
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Look up `key` **without** touching the hit/miss counters.  The
    /// delta-repair path reads entries to patch them; those reads are
    /// maintenance, not serving traffic, and must not skew the cache's
    /// observed hit rate.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.map
            .read()
            .expect("memo lock poisoned")
            .get(key)
            .cloned()
    }

    /// Whether an insert of `key` would be refused (memo full and the
    /// key absent).  A cheap read-lock probe callers use to skip
    /// preparing values a saturated memo would discard.
    pub fn would_refuse(&self, key: &K) -> bool {
        let map = self.map.read().expect("memo lock poisoned");
        map.len() >= self.max_entries && !map.contains_key(key)
    }

    /// Store `value` under `key` unless the cap refuses it.  Existing
    /// keys are overwritten (memo writers race only with identical
    /// values for the same key, so last-write-wins is safe).
    pub fn insert(&self, key: K, value: Arc<V>) {
        let mut map = self.map.write().expect("memo lock poisoned");
        if map.len() >= self.max_entries && !map.contains_key(&key) {
            return;
        }
        map.insert(key, value);
    }

    /// Copy every entry of `src` whose key satisfies `keep` into this
    /// memo (values are `Arc`-shared, not cloned), respecting this
    /// memo's entry cap.  Returns how many entries were carried.
    ///
    /// This is the cross-epoch carry-forward primitive: a fresh epoch's
    /// memo inherits the previous epoch's entries that are still valid
    /// (the serving layer decides validity from plan read-sets vs. the
    /// publish's dirty shards).
    pub fn carry_from(&self, src: &Self, mut keep: impl FnMut(&K) -> bool) -> usize
    where
        K: Clone,
    {
        let survivors: Vec<(K, Arc<V>)> = {
            let src_map = src.map.read().expect("memo lock poisoned");
            src_map
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let mut map = self.map.write().expect("memo lock poisoned");
        let mut carried = 0;
        for (key, value) in survivors {
            if map.len() >= self.max_entries && !map.contains_key(&key) {
                break;
            }
            map.insert(key, value);
            carried += 1;
        }
        carried
    }

    /// Visit every entry under the read lock.  `f` must not call back
    /// into the memo (the lock is held for the whole walk).
    pub fn for_each(&self, mut f: impl FnMut(&K, &Arc<V>)) {
        for (k, v) in self.map.read().expect("memo lock poisoned").iter() {
            f(k, v);
        }
    }

    /// Drop every entry whose key fails `keep`; returns how many were
    /// removed.  This is the delta-repair purge primitive: entries a
    /// publish made stale (and that could not be patched) are removed
    /// so later lookups miss and re-derive against the new data.
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut map = self.map.write().expect("memo lock poisoned");
        let before = map.len();
        map.retain(|k, _| keep(k));
        before - map.len()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.read().expect("memo lock poisoned").len()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            entries: self.len(),
        }
    }
}

impl<K, V> std::fmt::Debug for BoundedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedMemo")
            .field(
                "entries",
                &self.map.read().expect("memo lock poisoned").len(),
            )
            .field("max_entries", &self.max_entries)
            .field("hits", &self.hits.value())
            .field("misses", &self.misses.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_and_stats() {
        let memo: BoundedMemo<u32, Vec<u32>> = BoundedMemo::new(8);
        assert!(memo.get(&1).is_none());
        memo.insert(1, Arc::new(vec![7]));
        assert_eq!(*memo.get(&1).unwrap(), vec![7]);
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn cap_refuses_new_keys_but_allows_overwrites() {
        let memo: BoundedMemo<u32, u32> = BoundedMemo::new(2);
        memo.insert(1, Arc::new(10));
        memo.insert(2, Arc::new(20));
        assert!(!memo.would_refuse(&1));
        assert!(memo.would_refuse(&3));
        memo.insert(3, Arc::new(30));
        assert!(memo.get(&3).is_none(), "cap refuses new keys");
        memo.insert(1, Arc::new(11));
        assert_eq!(*memo.get(&1).unwrap(), 11, "existing keys overwrite");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn carry_from_filters_shares_and_respects_the_cap() {
        let old: BoundedMemo<(u32, u32), Vec<u32>> = BoundedMemo::new(8);
        old.insert((1, 0), Arc::new(vec![10]));
        old.insert((1, 1), Arc::new(vec![11]));
        old.insert((2, 0), Arc::new(vec![20]));
        let fresh: BoundedMemo<(u32, u32), Vec<u32>> = BoundedMemo::new(8);
        let carried = fresh.carry_from(&old, |k| k.0 == 1);
        assert_eq!(carried, 2);
        assert_eq!(fresh.len(), 2);
        // Values are Arc-shared, not cloned.
        assert!(Arc::ptr_eq(
            &old.get(&(1, 0)).unwrap(),
            &fresh.get(&(1, 0)).unwrap()
        ));
        assert!(fresh.get(&(2, 0)).is_none(), "filtered keys do not carry");
        // A tiny destination caps what carries.
        let tiny: BoundedMemo<(u32, u32), Vec<u32>> = BoundedMemo::new(1);
        let carried = tiny.carry_from(&old, |_| true);
        assert_eq!(carried, 1);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn for_each_and_retain_enumerate_and_purge() {
        let memo: BoundedMemo<(u32, u32), Vec<u32>> = BoundedMemo::new(8);
        memo.insert((1, 0), Arc::new(vec![10]));
        memo.insert((1, 1), Arc::new(vec![11]));
        memo.insert((2, 0), Arc::new(vec![20]));
        let mut seen: Vec<(u32, u32)> = Vec::new();
        memo.for_each(|k, _| seen.push(*k));
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 0), (1, 1), (2, 0)]);
        let removed = memo.retain(|k| k.0 != 1);
        assert_eq!(removed, 2);
        assert_eq!(memo.len(), 1);
        assert!(memo.get(&(2, 0)).is_some());
        // A purge frees capacity: new keys are accepted again.
        memo.insert((3, 0), Arc::new(vec![30]));
        assert!(memo.get(&(3, 0)).is_some());
    }

    #[test]
    fn memo_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BoundedMemo<u32, Vec<u32>>>();
    }
}
