//! Persistent (structurally shared) collections for O(delta) snapshots.
//!
//! The serving layer publishes immutable database epochs by cloning the
//! current version and applying a small delta.  With ordinary `Vec` /
//! `HashMap` storage that clone costs O(whole database); the two
//! structures here make it cost O(pointer bumps) instead, in the mold
//! of the `im` crate (`im::Vector` / `im::HashMap` cover the keyed API
//! below, but not the raw hashed API that lets callers file bare ids):
//!
//! * [`PVec`] — a chunked persistent vector.  Elements live in fixed-
//!   capacity chunks behind `Arc`s; cloning bumps one refcount per
//!   chunk, and pushing into a shared vector copies **only the tail
//!   chunk** (copy-on-write), leaving every full chunk shared with the
//!   parent.
//! * [`PMap`] — a hash-array-mapped trie (32-way branching on 5-bit
//!   hash slices, Bagwell's "Ideal Hash Trees").  A branch stores its
//!   entries inline with their full hash, so an entry costs no
//!   allocation of its own; a child node appears only where two keys
//!   share a slice, and a collision node only for equal 64-bit hashes.
//!   Cloning bumps the root refcount; inserting into a shared map
//!   path-copies the O(log₃₂ n) branches from the root to the touched
//!   slot and shares everything else.
//!
//! [`PMap`] is the workspace's one persistent map.  Its raw
//! [`PMap::get_hashed`] / [`PMap::entry_hashed`] pair files a key under
//! a caller-supplied hash and compares through a caller closure, so a
//! user whose key bytes already live elsewhere stores a bare id: the
//! shard dedup table files tuple ordinals into its tuple store, and
//! the constant interner files constant ids into its value vector —
//! the ids-into-existing-storage layout the shard column indexes and
//! `ProbeSpace`'s tuple interner use too, flat and not persistent
//! ([`crate::IdTable`]).  [`PMap::from_hashed`] builds a whole map in
//! one pass — the same trie as filing its entries one at a time — for
//! the interner at the end of a parse and for a shard's dedup table.
//!
//! Both structures detect unique ownership (`Arc::make_mut`), so the
//! common single-owner case — bottom-up evaluation filling a fresh
//! database — mutates in place with no copying at all.

use crate::hash::FxHasher;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default chunk capacity for [`PVec`] (elements per chunk).
pub const DEFAULT_CHUNK: usize = 256;

/// A chunked persistent vector with tail-chunk copy-on-write.
#[derive(Debug)]
pub struct PVec<T> {
    chunk_cap: usize,
    len: usize,
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        Self {
            chunk_cap: self.chunk_cap,
            len: self.len,
            chunks: self.chunks.clone(), // Arc bumps only.
        }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PVec<T> {
    /// Empty vector with the default chunk capacity.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_CHUNK)
    }

    /// Empty vector with an explicit chunk capacity.  Callers storing
    /// fixed-stride records (e.g. `arity` constants per tuple) pick a
    /// capacity that is a multiple of the stride so no record ever
    /// straddles a chunk boundary.
    pub fn with_chunk_capacity(chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "chunk capacity must be positive");
        Self {
            chunk_cap,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        self.chunks[i / self.chunk_cap].get(i % self.chunk_cap)
    }

    /// A contiguous run of `len` elements starting at `start`.  The run
    /// must not straddle a chunk boundary — guaranteed by construction
    /// when the chunk capacity is a multiple of the record stride.
    pub fn get_slice(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.len);
        let chunk = start / self.chunk_cap;
        let off = start % self.chunk_cap;
        debug_assert!(
            off + len <= self.chunk_cap,
            "record straddles a chunk boundary (stride does not divide chunk capacity)"
        );
        &self.chunks[chunk][off..off + len]
    }

    /// Iterate all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Number of chunks currently allocated (for sharing diagnostics).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many chunks `self` physically shares with `other` (same
    /// position, same `Arc`) — the structural-sharing test hook.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Element slots allocated in the tail chunk beyond its live
    /// prefix.  Two sources produce the excess: a fresh tail chunk is
    /// allocated at the full chunk capacity before it fills, and a
    /// copy-on-write push into a shared tail grows the detached copy
    /// geometrically.  [`Self::compact_tail`] reclaims it.
    pub fn tail_excess_capacity(&self) -> usize {
        self.chunks
            .last()
            .map(|c| c.capacity() - c.len())
            .unwrap_or(0)
    }
}

impl<T: Clone> PVec<T> {
    /// Append one element.  If the tail chunk is shared with another
    /// version, only that chunk is copied (O(chunk), not O(len)).
    pub fn push(&mut self, value: T) {
        self.push_slice_inner(std::slice::from_ref(&value));
    }

    /// Append a contiguous record.  `record.len()` must divide the
    /// chunk capacity so records never straddle chunk boundaries —
    /// enforced unconditionally, because a straddling record would
    /// make [`Self::get_slice`] return elements of the wrong record
    /// with no panic.
    pub fn push_slice(&mut self, record: &[T]) {
        if record.is_empty() {
            return;
        }
        assert_eq!(
            self.chunk_cap % record.len(),
            0,
            "record stride must divide chunk capacity"
        );
        self.push_slice_inner(record);
    }

    /// Trim the tail chunk's allocation to its live prefix, returning
    /// the number of element slots reclaimed.  Only a *uniquely owned*
    /// tail is touched: a tail still shared with another version is
    /// that version's live storage, and re-allocating it here would
    /// break the sharing that makes clones cheap.  The serving layer
    /// runs this on each epoch's dirty shards at publish time — the
    /// first slice of background shard compaction: the capacity a
    /// copy-on-write detach carried over (now fully shadowed by the
    /// detached copy's live data) is dropped instead of riding along
    /// for the epoch's lifetime.
    pub fn compact_tail(&mut self) -> usize {
        let Some(tail) = self.chunks.last_mut() else {
            return 0;
        };
        match Arc::get_mut(tail) {
            Some(chunk) => {
                let excess = chunk.capacity() - chunk.len();
                chunk.shrink_to_fit();
                excess
            }
            None => 0,
        }
    }

    fn push_slice_inner(&mut self, record: &[T]) {
        let used = self.len % self.chunk_cap;
        if used == 0 && self.len == self.chunk_cap * self.chunks.len() {
            // Tail chunk full (or no chunks yet): start a fresh one.
            let mut chunk = Vec::with_capacity(self.chunk_cap);
            chunk.extend_from_slice(record);
            self.chunks.push(Arc::new(chunk));
        } else {
            let tail = self.chunks.last_mut().expect("tail chunk exists");
            // COW: clones the tail chunk only if another version holds it.
            Arc::make_mut(tail).extend_from_slice(record);
        }
        self.len += record.len();
    }
}

impl<T> std::ops::Index<usize> for PVec<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("PVec index out of bounds")
    }
}

impl<'a, T> IntoIterator for &'a PVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Arc<Vec<T>>>,
        std::slice::Iter<'a, T>,
        fn(&'a Arc<Vec<T>>) -> std::slice::Iter<'a, T>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T: Clone> FromIterator<T> for PVec<T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T: Clone> Extend<T> for PVec<T> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: PartialEq> PartialEq for PVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PVec<T> {}

const BITS: u32 = 5;
const LEVEL_MASK: u64 = 0x1f;
/// Deepest shift at which branches split; two distinct 64-bit hashes
/// always differ in some 5-bit group at or before this shift.
const MAX_SHIFT: u32 = 60;

/// The 5-bit slice of `hash` that picks a slot at depth `shift`, as a
/// one-hot bitmap bit.
#[inline]
fn slice_bit(hash: u64, shift: u32) -> u32 {
    1u32 << ((hash >> shift) & LEVEL_MASK)
}

/// One occupied slot of a branch: an entry stored inline with its full
/// hash (so it can be pushed one level down without rehashing its
/// key), or a child node.
#[derive(Clone, Debug)]
enum Slot<K, V> {
    Entry(u64, K, V),
    Sub(Arc<Node<K, V>>),
}

#[derive(Clone, Debug)]
enum Node<K, V> {
    /// Interior node: `bitmap` bit `i` set means a slot exists for
    /// 5-bit hash slice `i`; slots are stored compressed, in ascending
    /// slice order.
    Branch { bitmap: u32, slots: Vec<Slot<K, V>> },
    /// Two or more entries whose full 64-bit hashes are all `hash`.
    Collision { hash: u64, entries: Vec<(K, V)> },
}

/// A persistent hash map (hash-array-mapped trie, Bagwell's "Ideal
/// Hash Trees", with entries stored inline in their branch).
///
/// Besides the usual keyed methods, the raw [`Self::get_hashed`] /
/// [`Self::entry_hashed`] pair lets a caller file a bare id under the
/// hash of data it already stores elsewhere, comparing through that
/// storage — the map then holds no second copy of the key bytes.
#[derive(Debug)]
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(), // one Arc bump.
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The hash [`PMap`]'s keyed methods file `key` under.  Callers of the
/// raw API may use any 64-bit hash, as long as one map sees one
/// hashing scheme.
pub fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// `hash` with its 5-bit slices reversed: the slice the root branches
/// on becomes the most significant, so sorting by this key lists
/// entries in trie (depth-first, ascending slot) order and puts every
/// subtree's entries next to each other.
fn trie_order(hash: u64) -> u64 {
    let mut key = 0u64;
    let mut shift = 0u32;
    while shift < MAX_SHIFT {
        key = (key << BITS) | ((hash >> shift) & LEVEL_MASK);
        shift += BITS;
    }
    // The last slice holds only the top 64 - MAX_SHIFT bits.
    (key << (64 - MAX_SHIFT)) | (hash >> MAX_SHIFT)
}

/// The branch at depth `shift` over `hashes`, which are in
/// [`trie_order`] and share every slice above `shift`; `items` yields
/// their keys and values in the same order.
fn build_branch<K, V>(
    hashes: &[u64],
    items: &mut impl Iterator<Item = (K, V)>,
    shift: u32,
) -> Node<K, V> {
    let width = 1 + hashes
        .windows(2)
        .filter(|w| slice_bit(w[0], shift) != slice_bit(w[1], shift))
        .count();
    let mut bitmap = 0u32;
    let mut slots = Vec::with_capacity(width);
    let mut rest = hashes;
    while let Some(&hash) = rest.first() {
        let bit = slice_bit(hash, shift);
        let n = rest
            .iter()
            .take_while(|&&h| slice_bit(h, shift) == bit)
            .count();
        let (group, tail) = rest.split_at(n);
        bitmap |= bit;
        slots.push(if n == 1 {
            let (k, v) = items.next().expect("one item per hash");
            Slot::Entry(hash, k, v)
        } else if group[n - 1] == hash {
            // Sorted, so equal ends mean equal throughout.
            let entries: Vec<(K, V)> = items.by_ref().take(n).collect();
            assert_eq!(entries.len(), n, "one item per hash");
            Slot::Sub(Arc::new(Node::Collision { hash, entries }))
        } else {
            debug_assert!(shift < MAX_SHIFT);
            Slot::Sub(Arc::new(build_branch(group, items, shift + BITS)))
        });
        rest = tail;
    }
    Node::Branch { bitmap, slots }
}

/// The walk's next move at one occupied branch slot.
enum Step {
    Found,
    Split(u64),
    Descend,
}

impl<K, V> PMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        Self { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether two maps share their root node (total structural
    /// sharing) — the sharing test hook.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Iterate all entries in unspecified order.
    pub fn iter(&self) -> PMapIter<'_, K, V> {
        let mut stack = Vec::new();
        if let Some(Node::Branch { slots, .. }) = self.root.as_deref() {
            stack.push(slots.iter());
        }
        PMapIter {
            stack,
            collision: [].iter(),
        }
    }

    /// A map holding `entries`, each filed under its hash, built in one
    /// pass: one stable sort, then each node allocated once at its final
    /// size.  The keys must be pairwise distinct (under whatever
    /// equality the caller's lookups use).
    ///
    /// The result is exactly the trie that filing the entries one by
    /// one, in the given order, through [`Self::entry_hashed`] builds.
    /// An insert-only trie depends only on its hash set, up to the
    /// order inside a collision node: a branch slot holds an entry when
    /// one hash falls under its prefix, a collision node when two or
    /// more equal hashes do, and a child branch otherwise — and inside
    /// a collision node both builds keep the entries in the given order.
    pub fn from_hashed(mut entries: Vec<(u64, K, V)>) -> Self {
        let len = entries.len();
        if len == 0 {
            return Self::new();
        }
        // Stable: equal hashes keep the given order.
        entries.sort_by_cached_key(|&(hash, ..)| trie_order(hash));
        let hashes: Vec<u64> = entries.iter().map(|&(hash, ..)| hash).collect();
        let mut items = entries.into_iter().map(|(_, k, v)| (k, v));
        let root = build_branch(&hashes, &mut items, 0);
        Self {
            root: Some(Arc::new(root)),
            len,
        }
    }

    /// The value of the entry filed under `hash` whose key satisfies
    /// `eq`.  `eq` is only called on keys filed under `hash`.
    pub fn get_hashed(&self, hash: u64, mut eq: impl FnMut(&K) -> bool) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let mut shift = 0u32;
        loop {
            match node {
                Node::Collision { hash: h, entries } => {
                    return if *h == hash {
                        entries.iter().find(|(k, _)| eq(k)).map(|(_, v)| v)
                    } else {
                        None
                    };
                }
                Node::Branch { bitmap, slots } => {
                    let bit = slice_bit(hash, shift);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    match &slots[(bitmap & (bit - 1)).count_ones() as usize] {
                        Slot::Entry(h, k, v) => return (*h == hash && eq(k)).then_some(v),
                        Slot::Sub(child) => node = child,
                    }
                    shift += BITS;
                }
            }
        }
    }
}

impl<K: Clone, V: Clone> PMap<K, V> {
    /// Mutable access to the entry filed under `hash` whose key
    /// satisfies `eq`, inserting `make()` first if there is none.
    /// Returns whether it inserted.  `eq` is only called on keys
    /// already in the map, and only on those filed under `hash`.
    /// Shares structure exactly like [`Self::entry_mut`].
    pub fn entry_hashed(
        &mut self,
        hash: u64,
        eq: impl FnMut(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> (bool, &mut V) {
        let root = self.root.get_or_insert_with(|| {
            Arc::new(Node::Branch {
                bitmap: 0,
                slots: Vec::new(),
            })
        });
        let (inserted, value) = Self::entry_in(root, hash, eq, make);
        if inserted {
            self.len += 1;
        }
        (inserted, value)
    }

    /// The insert-or-find walk.  Every node on the way is made unique
    /// first (`Arc::make_mut`), which path-copies exactly the nodes
    /// shared with another version and mutates the rest in place.
    fn entry_in(
        mut node_arc: &mut Arc<Node<K, V>>,
        hash: u64,
        mut eq: impl FnMut(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> (bool, &mut V) {
        let mut shift = 0u32;
        loop {
            let node = Arc::make_mut(node_arc);
            // A collision node for another hash moves one level down,
            // under a fresh branch the walk can descend past it from.
            if let Node::Collision { hash: h, .. } = node {
                if *h != hash {
                    debug_assert!(shift <= MAX_SHIFT);
                    let bitmap = slice_bit(*h, shift);
                    let old = std::mem::replace(
                        node,
                        Node::Branch {
                            bitmap,
                            slots: Vec::with_capacity(2),
                        },
                    );
                    if let Node::Branch { slots, .. } = node {
                        slots.push(Slot::Sub(Arc::new(old)));
                    }
                }
            }
            let (slots, pos) = match node {
                Node::Collision { entries, .. } => {
                    if let Some(i) = entries.iter().position(|(k, _)| eq(k)) {
                        return (false, &mut entries[i].1);
                    }
                    entries.push(make());
                    let last = entries.len() - 1;
                    return (true, &mut entries[last].1);
                }
                Node::Branch { bitmap, slots } => {
                    let bit = slice_bit(hash, shift);
                    let pos = (*bitmap & (bit - 1)).count_ones() as usize;
                    if *bitmap & bit == 0 {
                        *bitmap |= bit;
                        let (k, v) = make();
                        slots.insert(pos, Slot::Entry(hash, k, v));
                        let Slot::Entry(_, _, v) = &mut slots[pos] else {
                            unreachable!("just inserted an entry")
                        };
                        return (true, v);
                    }
                    (slots, pos)
                }
            };
            let step = match &slots[pos] {
                Slot::Entry(h, k, _) if *h == hash && eq(k) => Step::Found,
                Slot::Entry(h, ..) => Step::Split(*h),
                Slot::Sub(_) => Step::Descend,
            };
            match step {
                Step::Found => {
                    let Slot::Entry(_, _, v) = &mut slots[pos] else {
                        unreachable!("matched an entry")
                    };
                    return (false, v);
                }
                Step::Split(old_hash) => {
                    // Push the resident entry one level down, into a
                    // collision node if the full hashes are equal;
                    // the next turn of the loop files the new key.
                    let Slot::Entry(_, k, v) = slots.remove(pos) else {
                        unreachable!("split an entry")
                    };
                    let child = if old_hash == hash {
                        let mut entries = Vec::with_capacity(2);
                        entries.push((k, v));
                        Node::Collision { hash, entries }
                    } else {
                        debug_assert!(shift < MAX_SHIFT);
                        let mut slots = Vec::with_capacity(2);
                        slots.push(Slot::Entry(old_hash, k, v));
                        Node::Branch {
                            bitmap: slice_bit(old_hash, shift + BITS),
                            slots,
                        }
                    };
                    slots.insert(pos, Slot::Sub(Arc::new(child)));
                }
                Step::Descend => {}
            }
            let Slot::Sub(child) = &mut slots[pos] else {
                unreachable!("descending into a child")
            };
            node_arc = child;
            shift += BITS;
        }
    }
}

impl<K: Hash + Eq, V> PMap<K, V> {
    /// Look up `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_hashed(hash_of(key), |k| k.borrow() == key)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// Mutable access to the entry for `key`, inserting
    /// `default()` first if absent.  Path-copies only the nodes between
    /// the root and the touched slot that are shared with other
    /// versions; uniquely owned nodes are mutated in place.
    pub fn entry_mut(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let hash = hash_of(&key);
        // `eq` borrows the key until `make` takes it: the walk calls
        // `make` at most once, after its last `eq`.
        let key = RefCell::new(Some(key));
        let eq = |k: &K| key.borrow().as_ref() == Some(k);
        let make = || (key.take().expect("make runs once"), default());
        self.entry_hashed(hash, eq, make).1
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut pending = Some(value);
        let slot = self.entry_mut(key, || pending.take().expect("fresh insert"));
        match pending.take() {
            // `default` was not called: the key existed; replace.
            Some(v) => Some(std::mem::replace(slot, v)),
            None => None,
        }
    }
}

/// Iterator over [`PMap`] entries.
pub struct PMapIter<'a, K, V> {
    stack: Vec<std::slice::Iter<'a, Slot<K, V>>>,
    collision: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for PMapIter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.collision.next() {
                return Some((k, v));
            }
            match self.stack.last_mut()?.next() {
                None => {
                    self.stack.pop();
                }
                Some(Slot::Entry(_, k, v)) => return Some((k, v)),
                Some(Slot::Sub(child)) => match child.as_ref() {
                    Node::Branch { slots, .. } => self.stack.push(slots.iter()),
                    Node::Collision { entries, .. } => self.collision = entries.iter(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvec_push_get_iter() {
        let mut v: PVec<u32> = PVec::with_chunk_capacity(4);
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v[7], 7);
        assert_eq!(v.get(10), None);
        let all: Vec<u32> = v.iter().copied().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(v.chunk_count(), 3);
    }

    #[test]
    fn pvec_clone_shares_chunks_and_cow_touches_only_the_tail() {
        let mut v: PVec<u32> = PVec::with_chunk_capacity(4);
        for i in 0..9 {
            v.push(i);
        }
        let snapshot = v.clone();
        assert_eq!(snapshot.shared_chunks_with(&v), 3);
        v.push(9);
        // Full chunks still shared; only the tail chunk was copied.
        assert_eq!(snapshot.shared_chunks_with(&v), 2);
        // The snapshot is unchanged.
        assert_eq!(snapshot.len(), 9);
        assert_eq!(v.len(), 10);
        assert_eq!(snapshot.get(9), None);
        assert_eq!(v[9], 9);
    }

    #[test]
    fn pvec_records_never_straddle_chunks() {
        let mut v: PVec<u32> = PVec::with_chunk_capacity(6);
        for t in 0..7u32 {
            v.push_slice(&[t, t + 100]);
        }
        for t in 0..7 {
            assert_eq!(v.get_slice(t as usize * 2, 2), &[t, t + 100]);
        }
    }

    #[test]
    fn compact_tail_reclaims_only_uniquely_owned_excess() {
        let mut v: PVec<u32> = PVec::with_chunk_capacity(256);
        for i in 0..10 {
            v.push(i);
        }
        // Fresh tail chunk: allocated at full chunk capacity.
        assert_eq!(v.tail_excess_capacity(), 246);
        let reclaimed = v.compact_tail();
        assert_eq!(reclaimed, 246);
        assert_eq!(v.tail_excess_capacity(), 0);
        // Reads are unchanged by compaction.
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        // A shared tail must not be touched (it is the other version's
        // live storage).
        let snapshot = v.clone();
        assert_eq!(v.compact_tail(), 0);
        assert_eq!(snapshot.shared_chunks_with(&v), 1);
        // Pushing after compaction still works and still COWs.
        v.push(10);
        assert_eq!(snapshot.len(), 10);
        assert_eq!(v.len(), 11);
        assert_eq!(v[10], 10);
    }

    #[test]
    fn pvec_from_iter_and_index() {
        let v: PVec<char> = "abc".chars().collect();
        assert_eq!(v[1], 'b');
        let doubled: String = (&v).into_iter().collect();
        assert_eq!(doubled, "abc");
    }

    #[test]
    fn pmap_insert_get_len() {
        let mut m: PMap<String, u32> = PMap::new();
        assert!(m.is_empty());
        for i in 0..100u32 {
            assert_eq!(m.insert(format!("k{i}"), i), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u32 {
            assert_eq!(m.get(&format!("k{i}")), Some(&i));
        }
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.insert("k7".into(), 700), Some(7));
        assert_eq!(m.len(), 100);
        assert_eq!(m.get("k7"), Some(&700));
    }

    #[test]
    fn pmap_borrowed_key_lookup() {
        let mut m: PMap<Box<[u32]>, u32> = PMap::new();
        m.insert(vec![1, 2].into_boxed_slice(), 12);
        // Probe with the unsized borrow, as the column-index lookups do.
        let probe: &[u32] = &[1, 2];
        assert_eq!(m.get(probe), Some(&12));
        assert!(!m.contains_key::<[u32]>(&[2, 1]));
    }

    #[test]
    fn pmap_clone_is_persistent() {
        let mut m: PMap<u64, u64> = PMap::new();
        for i in 0..500 {
            m.insert(i, i * 2);
        }
        let snapshot = m.clone();
        assert!(snapshot.ptr_eq(&m));
        m.insert(1000, 2000);
        *m.entry_mut(3, || 0) = 99;
        assert!(!snapshot.ptr_eq(&m));
        // The snapshot still sees the old world.
        assert_eq!(snapshot.len(), 500);
        assert_eq!(snapshot.get(&1000), None);
        assert_eq!(snapshot.get(&3), Some(&6));
        assert_eq!(m.get(&3), Some(&99));
        assert_eq!(m.len(), 501);
    }

    #[test]
    fn pmap_entry_mut_inserts_default_once() {
        let mut m: PMap<u32, Vec<u32>> = PMap::new();
        m.entry_mut(5, Vec::new).push(1);
        m.entry_mut(5, || panic!("entry exists")).push(2);
        assert_eq!(m.get(&5), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn pmap_iter_sees_every_entry() {
        let mut m: PMap<u32, u32> = PMap::new();
        for i in 0..321 {
            m.insert(i, i + 1);
        }
        let mut seen: Vec<u32> = m.iter().map(|(&k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..321).collect::<Vec<_>>());
        assert!(m.iter().all(|(&k, &v)| v == k + 1));
    }

    #[test]
    fn pmap_survives_many_inserts_interleaved_with_clones() {
        // Chains of clone+insert exercise path copying at every depth.
        let mut versions: Vec<PMap<u64, u64>> = Vec::new();
        let mut m: PMap<u64, u64> = PMap::new();
        for i in 0..2_000u64 {
            // A multiplicative hash-unfriendly key pattern.
            m.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
            if i % 250 == 0 {
                versions.push(m.clone());
            }
        }
        assert_eq!(m.len(), 2_000);
        for (vi, v) in versions.iter().enumerate() {
            assert_eq!(v.len(), vi * 250 + 1);
        }
        for i in 0..2_000u64 {
            assert_eq!(m.get(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some(&i));
        }
    }

    /// xorshift64*: a dependency-free, seeded generator for the model
    /// tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    type Model = std::collections::HashMap<u64, u64>;

    fn assert_matches_model(map: &PMap<u64, u64>, model: &Model, hash: fn(u64) -> u64) {
        assert_eq!(map.len(), model.len());
        let mut seen: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        let mut want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        seen.sort_unstable();
        want.sort_unstable();
        assert_eq!(seen, want, "iter yields every entry exactly once");
        for (&k, &v) in model {
            assert_eq!(map.get_hashed(hash(k), |&x| x == k), Some(&v));
        }
        for k in (0..50).map(|i| 1_000_000 + i) {
            assert_eq!(map.get_hashed(hash(k), |&x| x == k), None);
        }
    }

    /// Random interleavings of every write path and `clone` against a
    /// `HashMap` model; every retained version must stay as it was.
    /// `keyed` mixes in the `Hash`-based methods, which is only sound
    /// when `hash` is [`hash_of`].
    fn model_run(seed: u64, keys: u64, hash: fn(u64) -> u64, keyed: bool) {
        let mut rng = Rng(seed);
        let mut map: PMap<u64, u64> = PMap::new();
        let mut model = Model::new();
        let mut retained: Vec<(PMap<u64, u64>, Model)> = Vec::new();
        for step in 0..3_000u64 {
            let k = rng.below(keys);
            match rng.below(if keyed { 5 } else { 3 }) {
                0 => {
                    let (inserted, v) = map.entry_hashed(hash(k), |&x| x == k, || (k, step));
                    assert_eq!(inserted, !model.contains_key(&k));
                    *v += 1;
                    *model.entry(k).or_insert(step) += 1;
                }
                1 => {
                    let was = map.get_hashed(hash(k), |&x| x == k).copied();
                    assert_eq!(was, model.get(&k).copied());
                }
                2 if rng.below(20) == 0 => retained.push((map.clone(), model.clone())),
                2 => {}
                3 => assert_eq!(map.insert(k, step), model.insert(k, step)),
                _ => {
                    *map.entry_mut(k, || step) += 2;
                    *model.entry(k).or_insert(step) += 2;
                }
            }
        }
        assert_matches_model(&map, &model, hash);
        for (version, model) in &retained {
            assert_matches_model(version, model, hash);
        }
    }

    #[test]
    fn pmap_matches_a_hashmap_model_across_clones() {
        for seed in 1..=8 {
            model_run(seed, 64, |k| hash_of(&k), true);
            model_run(seed, 4_000, |k| hash_of(&k), true);
        }
    }

    #[test]
    fn pmap_collision_nodes_match_the_model() {
        // Every key shares one of two hashes that agree on all but the
        // top bit: entries split down to the deepest level, collide
        // there, and collision nodes get pushed below new branches.
        const H: u64 = 0x0123_4567_89ab_cdef;
        fn two_hashes(k: u64) -> u64 {
            if k.is_multiple_of(3) {
                H
            } else {
                H ^ (1 << 63)
            }
        }
        for seed in 1..=8 {
            model_run(seed, 40, |_| H, false);
            model_run(seed, 40, two_hashes, false);
        }
    }

    /// Node-for-node equality: same bitmaps, slot kinds, hashes, keys
    /// and values, and the same order inside collision nodes.
    fn same_node(a: &Node<u64, u64>, b: &Node<u64, u64>) -> bool {
        match (a, b) {
            (
                Node::Branch { bitmap, slots },
                Node::Branch {
                    bitmap: other_bitmap,
                    slots: other_slots,
                },
            ) => {
                bitmap == other_bitmap
                    && slots.len() == other_slots.len()
                    && slots.iter().zip(other_slots).all(|pair| match pair {
                        (Slot::Entry(h, k, v), Slot::Entry(g, j, w)) => (h, k, v) == (g, j, w),
                        (Slot::Sub(x), Slot::Sub(y)) => same_node(x, y),
                        _ => false,
                    })
            }
            (
                Node::Collision { hash, entries },
                Node::Collision {
                    hash: other_hash,
                    entries: other_entries,
                },
            ) => hash == other_hash && entries == other_entries,
            _ => false,
        }
    }

    fn same_trie(a: &PMap<u64, u64>, b: &PMap<u64, u64>) -> bool {
        a.len() == b.len()
            && match (&a.root, &b.root) {
                (None, None) => true,
                (Some(x), Some(y)) => same_node(x, y),
                _ => false,
            }
    }

    /// Entries for the bulk-build property: up to 5,000 distinct keys in
    /// random order, hashed either at random, onto one of a few shared
    /// hashes (full 64-bit collisions), or one bit away from a shared
    /// hash (splits down to the deepest levels).
    fn bulk_entries(rng: &mut Rng, pool: &[u64]) -> Vec<(u64, u64, u64)> {
        let n = rng.below(5_001);
        let mut keys: Vec<u64> = (0..n).map(|k| k * 7 + 3).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        keys.into_iter()
            .map(|k| {
                let shared = pool[rng.below(pool.len() as u64) as usize];
                let hash = match rng.below(4) {
                    0 => shared,
                    1 => shared ^ (1 << rng.below(64)),
                    _ => rng.below(u64::MAX),
                };
                (hash, k, k ^ 0xff)
            })
            .collect()
    }

    #[test]
    fn bulk_build_equals_incremental_inserts() {
        let mut rng = Rng(0x005e_ed0f_b01c);
        for round in 0..48 {
            let pool: Vec<u64> = (0..1 + round % 6).map(|_| rng.below(u64::MAX)).collect();
            let entries = bulk_entries(&mut rng, &pool);
            let hash_of_key: std::collections::HashMap<u64, u64> =
                entries.iter().map(|&(h, k, _)| (k, h)).collect();
            let mut incremental: PMap<u64, u64> = PMap::new();
            for &(h, k, v) in &entries {
                let (inserted, _) = incremental.entry_hashed(h, |&x| x == k, || (k, v));
                assert!(inserted);
            }
            let mut bulk = PMap::from_hashed(entries.clone());
            assert_eq!(bulk.len(), entries.len());
            assert!(same_trie(&bulk, &incremental), "round {round}");
            let order: Vec<(u64, u64)> = bulk.iter().map(|(&k, &v)| (k, v)).collect();
            let want: Vec<(u64, u64)> = incremental.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(order, want, "iteration order, round {round}");
            for &(h, k, v) in &entries {
                assert_eq!(bulk.get_hashed(h, |&x| x == k), Some(&v));
            }
            // Absent keys, filed under shared, near and random hashes.
            for j in 0..64u64 {
                let k = 1_000_000 + j;
                let h = match j % 3 {
                    0 => pool[j as usize % pool.len()],
                    1 => pool[j as usize % pool.len()] ^ (1 << (j % 64)),
                    _ => rng.below(u64::MAX),
                };
                assert_eq!(bulk.get_hashed(h, |&x| x == k), None);
            }
            // One more insert, of a new key or an existing one, lands
            // both maps on the same trie again.
            let (h, k) = match (rng.below(3), entries.first()) {
                (0, Some(&(h, k, _))) => (h, k),
                (1, _) => (pool[0], 2_000_000 + round),
                _ => (rng.below(u64::MAX), 3_000_000 + round),
            };
            let fresh = !hash_of_key.contains_key(&k);
            let left = bulk.entry_hashed(h, |&x| x == k, || (k, 1)).0;
            let right = incremental.entry_hashed(h, |&x| x == k, || (k, 1)).0;
            assert_eq!((left, right), (fresh, fresh));
            assert!(
                same_trie(&bulk, &incremental),
                "after an insert, round {round}"
            );
        }
    }

    #[test]
    fn entry_hashed_files_ids_into_outside_storage() {
        // The dedup / interner pattern: the map holds indexes into a
        // store it does not own, and equality reads that store.
        let store = ["a", "b", "a", "c", "b"];
        let mut map: PMap<u32, ()> = PMap::new();
        let mut ids = Vec::new();
        for (i, s) in store.iter().enumerate() {
            let mut id = i as u32;
            let (inserted, _) = map.entry_hashed(
                hash_of(s),
                |&j| {
                    let hit = store[j as usize] == *s;
                    if hit {
                        id = j;
                    }
                    hit
                },
                || (i as u32, ()),
            );
            assert_eq!(inserted, id == i as u32);
            ids.push(id);
        }
        assert_eq!(ids, [0, 1, 0, 3, 1]);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn structures_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PVec<u32>>();
        assert_send_sync::<PMap<u32, u32>>();
    }
}
