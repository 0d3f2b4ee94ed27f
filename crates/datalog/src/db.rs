//! Extensional/derived relation storage: predicate-sharded, persistent,
//! with on-demand column indexes.
//!
//! The paper's cost model assumes "any tuple in a base relation can be
//! retrieved in constant time".  We realize that model with flat, arity-
//! strided tuple storage plus hash indexes keyed by the bound-column
//! subset, built lazily the first time a lookup with that binding pattern
//! happens and maintained incrementally as tuples are inserted.
//!
//! **Sharding and persistence.**  A [`Database`] holds one `Arc`-shared
//! [`Relation`] *shard* per predicate.  Cloning a database bumps one
//! refcount per shard; mutating a shard first detaches it copy-on-write
//! (`Arc::make_mut`).  Inside a shard, tuples live in a chunked
//! [`PVec`] (appends copy only the tail chunk) and the dedup table is a
//! [`PMap`] hash trie (path copying), so both stay O(delta) to extend
//! after a detach.  Each tuple is stored once, in the `PVec`: the dedup
//! table files bare tuple ordinals under the tuple's hash, and each
//! column index is an [`IdTable`] holding, per distinct key of its
//! bound columns, the key's last ordinal, plus one link per tuple that
//! chains each key's ordinals in ascending order.  Both compare by
//! reading the tuple back from the store — the ids-into-existing-
//! storage layout the constant interner and `ProbeSpace`'s tuple
//! interner use too.  A shard loaded from a program's distinct facts
//! shares their chunks with `Program::facts`, so a loaded fact is
//! stored once across the two.
//!
//! **Bulk builds.**  Loading, the dedup table and every index are
//! built in one pass each: [`Database::from_program`] drops source
//! duplicates with a transient hash set and hands each predicate's fact
//! storage to its shard, the dedup table is built on a shard's first
//! [`Relation::insert`] or [`Relation::contains`] (a shard that is only
//! read never has one), and [`Relation::build_index`] files the
//! ordinals in order into a flat table that allocates once per
//! doubling, with no transient grouping map.  The dedup trie comes
//! from [`PMap::from_hashed`], which builds exactly the trie filing the
//! same entries one at a time would, and an index built in bulk is the
//! one inserts maintain, so every probe and every later insert behaves
//! as if the structure had grown incrementally.  The net effect is
//! that publishing a new snapshot epoch after ingesting a handful of
//! facts copies only the touched shard's tail chunk, trie paths and
//! built indexes: untouched shards are shared wholesale
//! (`Arc::ptr_eq` with the parent epoch), and the touched shard shares
//! all of its full chunks with its predecessor.
//!
//! **Index warmth.**  The index cache lives *inside* the shard, behind
//! an [`RwLock`] so a fully built relation is `Sync`: the serving layer
//! (`rq-service`) shares immutable [`Database`] snapshots across query
//! worker threads.  Because untouched shards are shared by pointer,
//! their warm indexes survive epoch publication for free; a touched
//! shard shares each built index by `Arc` until its first insert,
//! which copies it once (`Arc::make_mut`), and then files the delta
//! into the copy, so even the dirty shard never rebuilds an index from
//! scratch.  The publish-time
//! [`CompactStore`] sits in a [`OnceLock`]: built once, then read with
//! no lock at all.

use crate::ast::{PredFacts, Program};
use rq_common::pshare::hash_of;
use rq_common::{Const, FxHashMap, FxHashSet, IdTable, IdVec, PMap, PVec, Pred};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A bitmask of bound columns; bit `i` set means column `i` is bound.
pub type ColMask = u32;

/// Widest atom a program may use: one bit of [`ColMask`] per column.
/// The parser rejects longer atoms, so every relation, binding pattern
/// and adornment fits the mask.
pub const MAX_ARITY: usize = ColMask::BITS as usize;

/// Tuples per storage chunk; the chunk byte-capacity scales with arity
/// so a tuple never straddles a chunk boundary.  A program's fact
/// storage uses the same layout, so a shard can share its chunks.
pub(crate) const TUPLES_PER_CHUNK: usize = 256;

/// Largest relation served by a scan when no hash index for the
/// binding pattern exists yet.  Shards are shared by `Arc` across
/// every reader of a snapshot, so a column index built by one query is
/// amortized over all of them; repeated O(n) scans only beat that for
/// relations small enough that a scan costs about as much as one hash
/// probe.
const COLUMNAR_SCAN_MAX: usize = 64;
const _: () = assert!(COLUMNAR_SCAN_MAX <= TUPLES_PER_CHUNK);

/// Recover the guard from a poisoned lock.  Every structure behind the
/// relation locks is persistent (mutation happens under `&mut self` or
/// replaces an `Arc` wholesale), so a panicked reader cannot have left
/// torn data — wedging the whole service on the poison flag would hurt
/// strictly more than clearing it.
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Build a mask from an iterator of bound column positions.
pub fn mask_of(columns: impl IntoIterator<Item = usize>) -> ColMask {
    let mut m = 0;
    for c in columns {
        debug_assert!(c < MAX_ARITY);
        m |= 1 << c;
    }
    m
}

/// Columns set in a mask, in ascending order.
pub fn mask_cols(mask: ColMask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let c = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (c < MAX_ARITY).then_some(c)
    })
}

/// Whether `tuple`'s columns under `mask` equal `key`.
#[inline]
fn matches(tuple: &[Const], mask: ColMask, key: &[Const]) -> bool {
    mask_cols(mask).zip(key).all(|(c, &k)| tuple[c] == k)
}

/// `tuple`'s columns under `mask`, in ascending column order, and how
/// many there are.
#[inline]
fn key_of(tuple: &[Const], mask: ColMask) -> ([Const; MAX_ARITY], usize) {
    let mut key = [Const::from_index(0); MAX_ARITY];
    for (slot, c) in key.iter_mut().zip(mask_cols(mask)) {
        *slot = tuple[c];
    }
    (key, mask.count_ones() as usize)
}

/// The hash `key` is filed under in a column index.
#[inline]
fn key_hash(tuple: &[Const], mask: ColMask) -> u64 {
    let (key, width) = key_of(tuple, mask);
    hash_of(&key[..width])
}

/// One column index: an [`IdTable`] slot per distinct key holding its
/// last tuple ordinal, and `next`, one link per tuple, chaining each
/// key's ordinals in ascending order with the last one pointing back
/// to the first.  Equality and rehashing read the tuple back from the
/// store, so the index holds no key: 4 bytes per tuple plus at most 8
/// per distinct key.
#[derive(Clone, Debug)]
struct Index {
    keys: IdTable,
    next: Vec<u32>,
}

impl Index {
    /// The index over a store's first `len` tuples, built in one pass.
    fn build(flat: &PVec<Const>, arity: usize, mask: ColMask, len: usize) -> Self {
        let mut index = Self {
            keys: IdTable::default(),
            next: Vec::with_capacity(len),
        };
        for ord in 0..len as u32 {
            index.file(flat, arity, mask, ord);
        }
        index
    }

    /// File tuple `ord`, the store's newest, at the end of its key's
    /// posting list: O(1), since the slot holds the list's last ordinal
    /// and that ordinal's link its first.
    fn file(&mut self, flat: &PVec<Const>, arity: usize, mask: ColMask, ord: u32) {
        debug_assert_eq!(self.next.len(), ord as usize);
        let tuple = |o: u32| tuple_at(flat, arity, o);
        let (key, width) = key_of(tuple(ord), mask);
        let key = &key[..width];
        match self
            .keys
            .probe(hash_of(key), |last| matches(tuple(last), mask, key))
        {
            Ok(slot) => {
                let last = self.keys.id(slot) as usize;
                self.next.push(self.next[last]);
                self.next[last] = ord;
                self.keys.replace(slot, ord);
            }
            Err(vacant) => {
                self.next.push(ord);
                let rehash = |last| key_hash(tuple(last), mask);
                self.keys.insert(vacant, ord, rehash);
            }
        }
    }

    /// Append the posting list whose last ordinal is `last` to `out`.
    fn posting(&self, last: u32, out: &mut Vec<u32>) {
        let mut ord = self.next[last as usize];
        out.push(ord);
        while ord != last {
            ord = self.next[ord as usize];
            out.push(ord);
        }
    }

    /// Heap bytes of the slots and the links.
    fn bytes(&self) -> usize {
        self.keys.bytes() + self.next.capacity() * std::mem::size_of::<u32>()
    }
}

/// Read-optimized adjacency built once per publish
/// ([`Relation::build_compact`]): forward/reverse CSR rows for binary
/// relations, so the traversal engine reads successor sets as plain
/// slices.  Its presence also lets small shards answer probes by
/// scanning the tuple store instead of building a column index.
///
/// The store is immutable once built.  [`Relation::insert`] drops it
/// (the shard is being mutated, so the snapshot is stale);
/// [`Relation::clone`] carries it by `Arc`, which is what lets every
/// shard untouched by an epoch publish keep its compact store for
/// free.
#[derive(Debug)]
pub struct CompactStore {
    /// Tuples covered: the shard's length when the store was built.
    len: usize,
    /// CSR adjacency, present for binary relations whose constant ids
    /// are dense enough for the offset table to pay off.
    csr: Option<Csr>,
}

/// Compressed-sparse-row adjacency for one binary relation, in both
/// orientations.  `offsets` is indexed by the constant's interner id:
/// the row of `u` is `targets[offsets[u] .. offsets[u + 1]]`.
#[derive(Debug)]
struct Csr {
    fwd_offsets: Vec<u32>,
    fwd_targets: Vec<Const>,
    rev_offsets: Vec<u32>,
    rev_targets: Vec<Const>,
    /// Distinct first-column constants, in first-appearance order (the
    /// order [`Relation::iter`]-based deduplication would yield).
    sources: Vec<Const>,
}

impl Csr {
    /// Dense offset tables stop paying off when the id space is much
    /// larger than the relation; fall back to the column indexes then.
    fn build(rel: &Relation) -> Option<Self> {
        let width = rel
            .iter()
            .map(|t| t[0].index().max(t[1].index()) + 1)
            .max()
            .unwrap_or(0);
        if width > 8 * rel.len() + 1024 {
            return None;
        }
        let (fwd_offsets, fwd_targets) = Self::direction(rel, 0, width);
        let (rev_offsets, rev_targets) = Self::direction(rel, 1, width);
        let mut seen = vec![false; width];
        let sources = rel
            .iter()
            .map(|t| t[0])
            .filter(|u| !std::mem::replace(&mut seen[u.index()], true))
            .collect();
        Some(Self {
            fwd_offsets,
            fwd_targets,
            rev_offsets,
            rev_targets,
            sources,
        })
    }

    /// The orientation keyed by column `key`, by counting sort: targets
    /// of a key stay in tuple-ordinal order, matching what the
    /// column-index probe yields.
    fn direction(rel: &Relation, key: usize, width: usize) -> (Vec<u32>, Vec<Const>) {
        let mut offsets = vec![0u32; width + 1];
        for t in rel.iter() {
            offsets[t[key].index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![Const::from_index(0); rel.len()];
        let mut cursor: Vec<u32> = offsets.clone();
        for t in rel.iter() {
            let k = t[key].index();
            targets[cursor[k] as usize] = t[1 - key];
            cursor[k] += 1;
        }
        (offsets, targets)
    }

    #[inline]
    fn row<'s>(offsets: &[u32], targets: &'s [Const], id: usize) -> &'s [Const] {
        if id + 1 >= offsets.len() {
            return &[];
        }
        &targets[offsets[id] as usize..offsets[id + 1] as usize]
    }
}

impl CompactStore {
    /// Number of tuples in the shard the store was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store was built over an empty shard.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All `v` with `r(u, v)`, as one contiguous slice in tuple-ordinal
    /// order.  `None` when no CSR was built for this relation.
    #[inline]
    pub fn successors(&self, u: Const) -> Option<&[Const]> {
        self.csr
            .as_ref()
            .map(|c| Csr::row(&c.fwd_offsets, &c.fwd_targets, u.index()))
    }

    /// All `u` with `r(u, v)`, as one contiguous slice.
    #[inline]
    pub fn predecessors(&self, v: Const) -> Option<&[Const]> {
        self.csr
            .as_ref()
            .map(|c| Csr::row(&c.rev_offsets, &c.rev_targets, v.index()))
    }

    /// Distinct first-column constants in first-appearance order, or
    /// `None` when no CSR was built.
    pub fn first_column(&self) -> Option<&[Const]> {
        self.csr.as_ref().map(|c| c.sources.as_slice())
    }
}

/// A stored relation: a set of tuples of a fixed arity, persistent in
/// every part (see the module docs for the sharing story).
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Number of tuples (a nullary relation's one tuple has no storage).
    len: usize,
    /// Tuples, stored back to back (`arity` constants each) in shared
    /// chunks.
    flat: PVec<Const>,
    /// Tuple ordinals, filed under the tuple's hash, for deduplication
    /// and membership tests.  Equality reads the tuple from `flat`, so
    /// the table holds no second copy of any tuple.  An index like the
    /// others: built in one pass on the first [`Self::insert`] or
    /// [`Self::contains`], so a shard that is only read never has one.
    dedup: OnceLock<PMap<u32, ()>>,
    /// Lazily built indexes, one per bound-column mask.  Each is one
    /// `Arc`, so a clone shares it and keeps its warmth; the first
    /// insert into a clone copies each built index once.
    indexes: RwLock<FxHashMap<ColMask, Arc<Index>>>,
    /// The publish-time compact store ([`CompactStore`]); empty until
    /// built, reset by [`Self::insert`].
    compact: OnceLock<Arc<CompactStore>>,
}

impl Default for Relation {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Relation {
    /// New, empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            flat: PVec::with_chunk_capacity(arity.max(1) * TUPLES_PER_CHUNK),
            dedup: OnceLock::new(),
            indexes: RwLock::new(FxHashMap::default()),
            compact: OnceLock::new(),
        }
    }

    /// The shard holding one predicate's facts, source duplicates
    /// dropped, tuples at their first-occurrence ordinals — what
    /// inserting them one by one builds.  When the facts are already
    /// distinct the shard shares their storage chunks outright;
    /// otherwise it copies the first occurrences.
    fn from_facts(facts: &PredFacts) -> Self {
        let mut seen = FxHashSet::with_capacity_and_hasher(facts.len, Default::default());
        let distinct = (0..facts.len)
            .filter(|&o| seen.insert(facts.tuple(o)))
            .count();
        let mut rel = Self::new(facts.arity);
        if distinct == facts.len {
            rel.flat = facts.flat.clone();
        } else {
            seen.clear();
            for tuple in (0..facts.len).map(|o| facts.tuple(o)) {
                if seen.insert(tuple) {
                    rel.flat.push_slice(tuple);
                }
            }
        }
        rel.len = distinct;
        rel
    }

    /// Build a relation of the given arity from an iterator of rows
    /// (duplicates are dropped).  This is the delta-view constructor:
    /// semi-naive consumers wrap a publish's added tuples as a relation
    /// so [`crate::DeltaView`] can substitute it for one body-atom
    /// occurrence.
    pub fn from_rows<'r>(arity: usize, rows: impl IntoIterator<Item = &'r [Const]>) -> Self {
        let mut rel = Self::new(arity);
        for row in rows {
            rel.insert(row);
        }
        rel
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dedup index, built in one pass if this is its first use.
    fn dedup(&self) -> &PMap<u32, ()> {
        self.dedup.get_or_init(|| {
            let ords = (0..self.len as u32).map(|o| (hash_of(self.tuple(o)), o, ()));
            PMap::from_hashed(ords.collect())
        })
    }

    /// The tuple with the given ordinal.
    #[inline]
    pub fn tuple(&self, ord: u32) -> &[Const] {
        debug_assert!((ord as usize) < self.len());
        tuple_at(&self.flat, self.arity, ord)
    }

    /// Iterate all tuples.  Correct for every arity, including 0: a
    /// nullary relation holds at most the empty tuple, which iteration
    /// over the (empty) flat storage would never yield.
    pub fn iter(&self) -> impl Iterator<Item = &[Const]> {
        (0..self.len()).map(move |ord| self.tuple(ord as u32))
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.dedup()
            .get_hashed(hash_of(tuple), |&o| self.tuple(o) == tuple)
            .is_some()
    }

    /// Insert a tuple; returns `true` if it was new.  Existing indexes
    /// are maintained incrementally so lookups stay correct as derived
    /// relations grow during bottom-up evaluation, and so a shard
    /// detached from a shared snapshot keeps its warm indexes instead
    /// of rebuilding them.
    pub fn insert(&mut self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let ord = self.len() as u32;
        self.dedup();
        let (flat, arity) = (&self.flat, self.arity);
        let dedup = self.dedup.get_mut().expect("built above");
        let (inserted, _) = dedup.entry_hashed(
            hash_of(tuple),
            |&o| tuple_at(flat, arity, o) == tuple,
            || (ord, ()),
        );
        if !inserted {
            return false;
        }
        self.flat.push_slice(tuple);
        self.len += 1;
        // The compact store is a snapshot of the tuple set; a mutation
        // makes it stale.  The next publish rebuilds it.
        self.compact.take();
        for (&mask, index) in recover(self.indexes.get_mut()).iter_mut() {
            Arc::make_mut(index).file(&self.flat, self.arity, mask, ord);
        }
        true
    }

    /// Append to `out` the ordinals of all tuples whose columns in `mask`
    /// equal `key` (the bound values, in ascending column order), in
    /// ascending order.  Returns `true` when a small shard answered by
    /// scan rather than through a column index.
    ///
    /// Probe routing: an already-built column index wins (O(1) to the
    /// posting list); otherwise a shard of at most
    /// `COLUMNAR_SCAN_MAX` tuples that has a compact store is scanned —
    /// no index construction, identical ordinal order; only when
    /// neither applies is the column index built on the spot.
    pub fn lookup(&self, mask: ColMask, key: &[Const], out: &mut Vec<u32>) -> bool {
        debug_assert_eq!(key.len(), mask.count_ones() as usize);
        debug_assert!(mask_cols(mask).all(|c| c < self.arity));
        if mask == 0 {
            out.extend(0..self.len() as u32);
            return false;
        }
        if self.read_posting(mask, key, out) {
            return false;
        }
        if self.len() <= COLUMNAR_SCAN_MAX && self.compact.get().is_some() {
            // A shard this small sits in its first storage chunk, so
            // its tuples are one contiguous slice; the first bound
            // column rejects most rows on its own.
            if !self.is_empty() {
                let rows = self.flat.get_slice(0, self.len() * self.arity);
                let first = mask.trailing_zeros() as usize;
                let hits = rows
                    .chunks_exact(self.arity)
                    .map(|t| t[first] == key[0] && matches(t, mask, key));
                out.extend((0..).zip(hits).filter_map(|(o, hit)| hit.then_some(o)));
            }
            return true;
        }
        self.build_index(mask);
        self.read_posting(mask, key, out);
        false
    }

    /// Append the posting list of `key` in the index for `mask` to
    /// `out`; `false` when that index is not built.
    fn read_posting(&self, mask: ColMask, key: &[Const], out: &mut Vec<u32>) -> bool {
        let indexes = recover(self.indexes.read());
        let Some(index) = indexes.get(&mask) else {
            return false;
        };
        let same_key = |last| matches(self.tuple(last), mask, key);
        if let Some(last) = index.keys.find(hash_of(key), same_key) {
            index.posting(last, out);
        }
        true
    }

    /// Build (if absent) the index for `mask`, so later [`Self::lookup`]s
    /// with that binding pattern take the shared read path only.  Called
    /// by the serving layer when an immutable snapshot is published; a
    /// no-op for shards that already carry the index (e.g. every shard
    /// shared with, or detached from, a previous epoch).
    pub fn build_index(&self, mask: ColMask) {
        if mask == 0 {
            return;
        }
        let mut indexes = recover(self.indexes.write());
        indexes
            .entry(mask)
            .or_insert_with(|| Arc::new(Index::build(&self.flat, self.arity, mask, self.len)));
    }

    /// Whether the index for `mask` has been built — the warmth probe
    /// used by tests and the serving layer's publish path.
    pub fn has_index(&self, mask: ColMask) -> bool {
        recover(self.indexes.read()).contains_key(&mask)
    }

    /// Heap bytes of the built column indexes.
    pub fn index_bytes(&self) -> usize {
        recover(self.indexes.read())
            .values()
            .map(|i| i.bytes())
            .sum()
    }

    /// Build the compact store ([`CompactStore`]) if absent; returns
    /// whether a build happened.  Called by the serving layer at
    /// publish: a shard carried over from the previous epoch still has
    /// its store (the `Arc` travels with [`Self::clone`]), so only
    /// dirty shards pay.
    pub fn build_compact(&self) -> bool {
        if self.arity == 0 {
            return false;
        }
        let mut built = false;
        self.compact.get_or_init(|| {
            built = true;
            let csr = if self.arity == 2 {
                Csr::build(self)
            } else {
                None
            };
            Arc::new(CompactStore {
                len: self.len(),
                csr,
            })
        });
        built
    }

    /// Whether the compact store is built — the warmth probe used by
    /// tests and the serving layer.
    pub fn has_compact(&self) -> bool {
        self.compact.get().is_some()
    }

    /// The compact store, if built.  Reading it takes no lock, so the
    /// traversal engine's source asks for it on every probe.
    #[inline]
    pub fn compact_store(&self) -> Option<&CompactStore> {
        self.compact.get().map(Arc::as_ref)
    }

    /// How many tuple-storage chunks this relation physically shares
    /// with `other` — the structural-sharing test hook.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.flat.shared_chunks_with(&other.flat)
    }

    /// Trim the tuple store's tail chunk to its live prefix, returning
    /// the number of constant slots reclaimed.  Only a uniquely owned
    /// tail is touched ([`rq_common::PVec::compact_tail`]), so shards
    /// still sharing their tail with a parent epoch are left alone.
    pub fn compact(&mut self) -> usize {
        self.flat.compact_tail()
    }

    /// Constant slots allocated past the tuple store's live prefix —
    /// the compaction opportunity probe used by tests.
    pub fn excess_capacity(&self) -> usize {
        self.flat.tail_excess_capacity()
    }
}
/// Tuple `ord` of an arity-strided store.  A nullary relation holds
/// at most the empty tuple, which has no storage.
#[inline]
fn tuple_at(flat: &PVec<Const>, arity: usize, ord: u32) -> &[Const] {
    if arity == 0 {
        return &[];
    }
    flat.get_slice(ord as usize * arity, arity)
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Self {
            arity: self.arity,
            len: self.len,
            flat: self.flat.clone(),   // chunk refcount bumps
            dedup: self.dedup.clone(), // root refcount bump, if built
            // Carry the warm cache over at the cost of one refcount
            // bump per built mask.
            indexes: RwLock::new(recover(self.indexes.read()).clone()),
            // The compact store is immutable; carry it by refcount.
            compact: self.compact.clone(),
        }
    }
}

/// A database: one `Arc`-shared [`Relation`] shard per predicate.
///
/// `clone` is O(#predicates) refcount bumps; the first mutation of a
/// shard after a clone detaches that shard only (copy-on-write via
/// [`Arc::make_mut`]), and the detached copy still shares its chunked
/// tuple storage and indexes with the original.  In the common
/// single-owner case (bottom-up evaluation filling a fresh database)
/// `Arc::make_mut` sees a unique shard and mutates in place.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: IdVec<Pred, Arc<Relation>>,
}

impl Database {
    /// Empty database able to hold relations for `preds` predicates with
    /// the given arities.
    pub fn with_preds(arities: impl IntoIterator<Item = usize>) -> Self {
        Self {
            relations: arities
                .into_iter()
                .map(|a| Arc::new(Relation::new(a)))
                .collect(),
        }
    }

    /// Build a database holding the facts of a program (the EDB), one
    /// shard per predicate in bulk ([`Relation`]'s `from_facts`): the
    /// tuples and ordinals inserting the facts in source order gives.
    pub fn from_program(program: &Program) -> Self {
        let relations = program.preds.iter_enumerated().map(|(pred, info)| {
            Arc::new(match program.facts.of(pred) {
                Some(facts) => Relation::from_facts(facts),
                None => Relation::new(info.arity),
            })
        });
        Self {
            relations: relations.collect(),
        }
    }

    /// Ensure a relation exists for `pred` (growing the table if needed).
    pub fn ensure_pred(&mut self, pred: Pred, arity: usize) {
        self.relations.ensure(pred, || Arc::new(Relation::new(0)));
        if self.relations[pred].arity() != arity && self.relations[pred].is_empty() {
            self.relations[pred] = Arc::new(Relation::new(arity));
        }
    }

    /// The relation for a predicate.
    pub fn relation(&self, pred: Pred) -> &Relation {
        &self.relations[pred]
    }

    /// The `Arc`-shared shard behind a predicate — the serving layer's
    /// view type.  Two epochs that did not touch `pred` return
    /// [`Arc::ptr_eq`]-identical shards.
    pub fn shard(&self, pred: Pred) -> Option<&Arc<Relation>> {
        self.relations.get(pred)
    }

    /// Insert a tuple; returns `true` if new.  Detaches the shard
    /// copy-on-write if it is shared with another database version.
    pub fn insert(&mut self, pred: Pred, tuple: &[Const]) -> bool {
        Arc::make_mut(&mut self.relations[pred]).insert(tuple)
    }

    /// Membership test.
    pub fn contains(&self, pred: Pred, tuple: &[Const]) -> bool {
        self.relations.get(pred).is_some_and(|r| r.contains(tuple))
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Heap bytes of every shard's built column indexes
    /// ([`Relation::index_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.relations.iter().map(|r| r.index_bytes()).sum()
    }

    /// Build the first-column and second-column indexes — the two
    /// probes the traversal engine makes — of every binary relation
    /// that has no CSR to serve them: one whose compact store is not
    /// built yet, or whose ids are too sparse for [`CompactStore`] to
    /// carry adjacency.  The serving layer calls this when publishing
    /// an immutable snapshot, right after
    /// [`Self::build_compact_stores`], so concurrent readers never
    /// contend on index construction and a shard served by CSR rows
    /// never pays for two indexes it would not probe.  Shards carried
    /// over from a previous epoch keep what they had, so for them this
    /// is O(1) per shard.
    pub fn prewarm_binary_indexes(&self) {
        for rel in self.relations.iter() {
            let has_csr = || rel.compact_store().is_some_and(|s| s.csr.is_some());
            if rel.arity() == 2 && !has_csr() {
                rel.build_index(mask_of([0]));
                rel.build_index(mask_of([1]));
            }
        }
    }

    /// Build the compact store ([`CompactStore`]) of every relation
    /// that lacks one, returning how many were built.  The serving
    /// layer calls this when publishing a snapshot: shards shared with
    /// the previous epoch kept their store through the `Arc`, so only
    /// the publish's dirty shards rebuild.
    pub fn build_compact_stores(&self) -> usize {
        self.relations
            .iter()
            .filter(|rel| rel.build_compact())
            .count()
    }

    /// Number of predicates with storage.
    pub fn num_preds(&self) -> usize {
        self.relations.len()
    }

    /// Compact the shards of the given predicates (see
    /// [`Relation::compact`]), returning the total constant slots
    /// reclaimed.  The serving layer runs this over each publish's
    /// dirty shards: a just-detached shard is uniquely owned, so its
    /// tail — carrying the capacity its copy-on-write detach
    /// over-allocated — shrinks in place; shards whose `Arc` (or tail
    /// chunk) is still shared are left untouched.
    pub fn compact_shards(&mut self, preds: impl IntoIterator<Item = Pred>) -> usize {
        let mut reclaimed = 0;
        for pred in preds {
            if self.relations.get(pred).is_none() {
                continue;
            }
            if let Some(rel) = Arc::get_mut(&mut self.relations[pred]) {
                reclaimed += rel.compact();
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> Const {
        Const(i)
    }

    #[test]
    fn insert_and_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(&[c(1), c(2)]));
        assert!(!r.insert(&[c(1), c(2)]));
        assert!(r.insert(&[c(2), c(1)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[c(1), c(2)]));
        assert!(!r.contains(&[c(3), c(3)]));
    }

    #[test]
    fn lookup_by_first_column() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(10)]);
        r.insert(&[c(1), c(11)]);
        r.insert(&[c(2), c(12)]);
        let mut out = Vec::new();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        let mut seconds: Vec<Const> = out.iter().map(|&o| r.tuple(o)[1]).collect();
        seconds.sort();
        assert_eq!(seconds, vec![c(10), c(11)]);
    }

    #[test]
    fn index_maintained_after_insert() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(10)]);
        // Force index construction.
        let mut out = Vec::new();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        assert_eq!(out.len(), 1);
        // Insert after the index exists; lookup must see the new tuple.
        r.insert(&[c(1), c(20)]);
        out.clear();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn lookup_full_scan_with_empty_mask() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.insert(&[c(3), c(4)]);
        let mut out = Vec::new();
        r.lookup(0, &[], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn lookup_by_both_columns() {
        let mut r = Relation::new(3);
        r.insert(&[c(1), c(2), c(3)]);
        r.insert(&[c(1), c(5), c(3)]);
        let mut out = Vec::new();
        r.lookup(mask_of([0, 2]), &[c(1), c(3)], &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        r.lookup(mask_of([0, 1]), &[c(1), c(5)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(r.tuple(out[0]), &[c(1), c(5), c(3)]);
    }

    #[test]
    fn mask_helpers() {
        let m = mask_of([0, 2]);
        assert_eq!(m, 0b101);
        assert_eq!(mask_cols(m).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn database_from_program() {
        let p = crate::parser::parse_program("up(a,b). up(b,c). flat(a,a).").unwrap();
        let db = Database::from_program(&p);
        let up = p.pred_by_name("up").unwrap();
        assert_eq!(db.relation(up).len(), 2);
        assert_eq!(db.total_tuples(), 3);
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn zero_arity_iter_yields_the_empty_tuple() {
        // Regression: iteration driven by flat storage alone yielded
        // nothing for nullary relations even when they held the empty
        // tuple.
        let mut r = Relation::new(0);
        assert_eq!(r.iter().count(), 0);
        r.insert(&[]);
        let tuples: Vec<&[Const]> = r.iter().collect();
        assert_eq!(tuples, vec![&[] as &[Const]]);
    }

    #[test]
    fn iter_matches_len_and_tuple_for_all_arities() {
        for arity in 0..4usize {
            let mut r = Relation::new(arity);
            let tuple: Vec<Const> = (0..arity as u32).map(c).collect();
            r.insert(&tuple);
            assert_eq!(r.iter().count(), r.len());
            for (ord, t) in r.iter().enumerate() {
                assert_eq!(t, r.tuple(ord as u32));
                assert_eq!(t.len(), arity);
            }
        }
    }

    #[test]
    fn relations_are_shareable_across_threads() {
        // The serving layer requires `Sync` storage; hold the line here
        // so a future `Cell`-flavored cache cannot sneak back in.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Relation>();
        assert_sync::<Database>();

        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.insert(&[c(1), c(3)]);
        r.build_index(mask_of([0]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    // Mix a pre-built index probe with a lazily built one.
                    r.lookup(mask_of([0]), &[c(1)], &mut out);
                    assert_eq!(out.len(), 2);
                    out.clear();
                    r.lookup(mask_of([1]), &[c(3)], &mut out);
                    assert_eq!(out.len(), 1);
                });
            }
        });
    }

    #[test]
    fn prewarm_builds_binary_indexes() {
        let p = crate::parser::parse_program("e(a,b). e(b,c). t(a,a,a).").unwrap();
        let db = Database::from_program(&p);
        db.prewarm_binary_indexes();
        let e = p.pred_by_name("e").unwrap();
        assert!(db.relation(e).has_index(mask_of([0])));
        assert!(db.relation(e).has_index(mask_of([1])));
        let mut out = Vec::new();
        db.relation(e).lookup(mask_of([1]), &[Const(1)], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn clone_keeps_warm_indexes_and_data() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        let mut out = Vec::new();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        let r2 = r.clone();
        // The clone carried the built index over instead of rebuilding.
        assert!(r2.has_index(mask_of([0])));
        out.clear();
        r2.lookup(mask_of([0]), &[c(1)], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cloned_relation_diverges_without_disturbing_the_original() {
        let mut r = Relation::new(2);
        for i in 0..600u32 {
            r.insert(&[c(i), c(i + 1)]);
        }
        r.build_index(mask_of([0]));
        let snapshot = r.clone();
        // Full chunks are physically shared between the versions.
        assert!(snapshot.shared_chunks_with(&r) >= 2);
        r.insert(&[c(9000), c(9001)]);
        assert_eq!(snapshot.len(), 600);
        assert_eq!(r.len(), 601);
        assert!(!snapshot.contains(&[c(9000), c(9001)]));
        // Both versions answer indexed lookups correctly.
        let mut out = Vec::new();
        snapshot.lookup(mask_of([0]), &[c(9000)], &mut out);
        assert!(out.is_empty());
        r.lookup(mask_of([0]), &[c(9000)], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn compact_store_csr_matches_index_lookups() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(10)]);
        r.insert(&[c(1), c(11)]);
        r.insert(&[c(2), c(10)]);
        assert!(r.build_compact());
        assert!(!r.build_compact(), "second build is a no-op");
        let store = r.compact_store().unwrap();
        assert_eq!(store.successors(c(1)).unwrap(), &[c(10), c(11)]);
        assert_eq!(store.successors(c(7)).unwrap(), &[] as &[Const]);
        assert_eq!(store.predecessors(c(10)).unwrap(), &[c(1), c(2)]);
        assert_eq!(store.first_column().unwrap(), &[c(1), c(2)]);
    }

    #[test]
    fn columnar_scan_matches_trie_index() {
        let mut with_store = Relation::new(3);
        let mut with_index = Relation::new(3);
        for t in [[1, 2, 3], [1, 5, 3], [4, 2, 3], [1, 2, 9]] {
            let tuple: Vec<Const> = t.iter().map(|&i| c(i)).collect();
            with_store.insert(&tuple);
            with_index.insert(&tuple);
        }
        with_store.build_compact();
        for (mask, key) in [
            (mask_of([0]), vec![c(1)]),
            (mask_of([0, 2]), vec![c(1), c(3)]),
            (mask_of([1, 2]), vec![c(2), c(3)]),
            (mask_of([0, 1, 2]), vec![c(9), c(9), c(9)]),
        ] {
            let (mut scanned, mut indexed) = (Vec::new(), Vec::new());
            assert!(with_store.lookup(mask, &key, &mut scanned));
            assert!(!with_index.lookup(mask, &key, &mut indexed));
            assert_eq!(scanned, indexed, "mask {mask:#b}");
        }
    }

    #[test]
    fn insert_invalidates_compact_store() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.build_compact();
        assert!(r.has_compact());
        r.insert(&[c(1), c(3)]);
        assert!(!r.has_compact(), "mutation drops the stale store");
        // Lookups stay correct through the fallback paths.
        let mut out = Vec::new();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn clone_carries_compact_store() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.build_compact();
        let snapshot = r.clone();
        assert!(snapshot.has_compact());
        // Mutating the original drops only its own store.
        r.insert(&[c(2), c(3)]);
        assert!(!r.has_compact());
        assert!(snapshot.has_compact());
        assert_eq!(
            snapshot.compact_store().unwrap().successors(c(1)).unwrap(),
            &[c(2)]
        );
    }

    #[test]
    fn empty_and_nullary_relations_build_cleanly() {
        let empty = Relation::new(2);
        assert!(empty.build_compact());
        let store = empty.compact_store().unwrap();
        assert_eq!(store.successors(c(3)).unwrap(), &[] as &[Const]);
        assert_eq!(store.first_column().unwrap(), &[] as &[Const]);
        let nullary = Relation::new(0);
        assert!(!nullary.build_compact(), "nothing to probe in arity 0");
    }

    #[test]
    fn database_builds_stores_once_per_shard() {
        let p = crate::parser::parse_program("e(a,b). t(a,a,a).").unwrap();
        let db = Database::from_program(&p);
        assert_eq!(db.build_compact_stores(), 2);
        assert_eq!(db.build_compact_stores(), 0, "all shards already built");
    }

    #[test]
    fn poisoned_index_lock_recovers() {
        let r = std::sync::Arc::new({
            let mut r = Relation::new(2);
            r.insert(&[c(1), c(2)]);
            r
        });
        let poisoner = std::sync::Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.indexes.write();
            panic!("poison the lock");
        })
        .join();
        // The relation still answers lookups instead of wedging.
        let mut out = Vec::new();
        r.lookup(mask_of([0]), &[c(1)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(r.build_compact());
    }

    #[test]
    fn relation_matches_a_set_model_across_clones() {
        use std::collections::BTreeSet;
        // Insertion-ordered tuples plus their set, per retained version.
        type Model = (Vec<Vec<Const>>, BTreeSet<Vec<Const>>);
        // Every single- and two-column binding pattern of an arity.
        fn index_columns(arity: usize) -> Vec<Vec<usize>> {
            let pairs = (0..arity).flat_map(|a| (a + 1..arity).map(move |b| vec![a, b]));
            (0..arity).map(|a| vec![a]).chain(pairs).collect()
        }
        fn check(r: &Relation, (order, set): &Model) {
            assert_eq!(r.len(), set.len());
            for (ord, t) in order.iter().enumerate() {
                assert_eq!(r.tuple(ord as u32), t.as_slice());
                assert!(r.contains(t));
            }
            assert_eq!(r.iter().count(), order.len());
            let absent = vec![c(99); r.arity()];
            assert_eq!(r.contains(&absent), r.arity() == 0 && !set.is_empty());
            // The indexes were built before the first insert, so each
            // lookup reads an index every insert maintained (and, for a
            // retained clone, one its successor copied on its first insert).
            // Keys range over the constant pool plus one absent value.
            for columns in index_columns(r.arity()) {
                let mask = mask_of(columns.iter().copied());
                assert!(r.has_index(mask));
                for k in 0..7u32.pow(columns.len() as u32) {
                    let key: Vec<Const> = [k % 7, k / 7][..columns.len()]
                        .iter()
                        .map(|&i| c(i))
                        .collect();
                    let expected: Vec<u32> = (0..order.len() as u32)
                        .filter(|&o| {
                            columns
                                .iter()
                                .zip(&key)
                                .all(|(&col, &v)| order[o as usize][col] == v)
                        })
                        .collect();
                    let mut got = Vec::new();
                    assert!(!r.lookup(mask, &key, &mut got), "answered by the trie");
                    assert_eq!(got, expected, "mask {mask:#b}, key {key:?}");
                }
            }
        }
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for arity in 0..=4usize {
            let mut r = Relation::new(arity);
            for columns in index_columns(arity) {
                r.build_index(mask_of(columns));
            }
            let mut model: Model = Default::default();
            let mut retained: Vec<(Relation, Model)> = Vec::new();
            for _ in 0..1_500 {
                let t: Vec<Const> = (0..arity).map(|_| c(below(6) as u32)).collect();
                if below(4) == 0 {
                    assert_eq!(r.contains(&t), model.1.contains(&t));
                    continue;
                }
                let new = model.1.insert(t.clone());
                if new {
                    model.0.push(t.clone());
                }
                assert_eq!(r.insert(&t), new, "arity {arity}, {t:?}");
                if below(50) == 0 {
                    retained.push((r.clone(), model.clone()));
                }
            }
            check(&r, &model);
            for (version, model) in &retained {
                check(version, model);
            }
        }
    }

    #[test]
    fn postings_match_a_model_on_every_mask_across_clones() {
        // Tuples of a small pool, so every mask has multi-ordinal
        // postings; clones split off and both sides keep inserting.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        /// Each mask's postings, read through the index, against a
        /// filter of the insertion-ordered `model`; `long` collects the
        /// masks that had a posting of two or more ordinals.
        fn check(r: &Relation, model: &[Vec<Const>], long: &mut FxHashSet<ColMask>) {
            assert_eq!(r.len(), model.len());
            for mask in 1..1u32 << r.arity() {
                assert!(r.has_index(mask));
                let mut keys: Vec<Vec<Const>> = model
                    .iter()
                    .map(|t| mask_cols(mask).map(|c| t[c]).collect())
                    .collect();
                keys.push(vec![c(99); mask.count_ones() as usize]);
                for key in keys {
                    let want: Vec<u32> = (0..model.len() as u32)
                        .filter(|&o| matches(&model[o as usize], mask, &key))
                        .collect();
                    let mut got = Vec::new();
                    assert!(!r.lookup(mask, &key, &mut got));
                    assert_eq!(got, want, "mask {mask:#b}, key {key:?}");
                    if got.len() > 1 {
                        long.insert(mask);
                    }
                }
            }
        }
        for arity in 1..=4usize {
            let mut r = Relation::new(arity);
            for mask in 1..1u32 << arity {
                r.build_index(mask);
            }
            let mut model: Vec<Vec<Const>> = Vec::new();
            let mut insert = |r: &mut Relation, model: &mut Vec<Vec<Const>>, n: usize| {
                for _ in 0..n {
                    let t: Vec<Const> = (0..arity).map(|_| c(below(4) as u32)).collect();
                    let new = !model.contains(&t);
                    assert_eq!(r.insert(&t), new);
                    if new {
                        model.push(t);
                    }
                }
            };
            insert(&mut r, &mut model, 40);
            let mut long = FxHashSet::default();
            for round in 0..6 {
                let parent_bytes = r.index_bytes();
                let mut clone = r.clone();
                let mut clone_model = model.clone();
                insert(&mut clone, &mut clone_model, 30);
                // The clone copied its indexes on its first insert;
                // the parent's stay as they were.
                check(&r, &model, &mut long);
                assert_eq!(r.index_bytes(), parent_bytes, "round {round}");
                check(&clone, &clone_model, &mut long);
                // The parent grows on too, independently of the clone.
                insert(&mut r, &mut model, 20);
                check(&clone, &clone_model, &mut long);
                if round % 2 == 1 {
                    (r, model) = (clone, clone_model);
                }
            }
            check(&r, &model, &mut long);
            // Only the all-columns mask has singleton postings alone.
            assert_eq!(long.len(), (1 << arity) - 2, "arity {arity}");
        }
    }

    #[test]
    fn database_clone_shares_untouched_shards() {
        let p = crate::parser::parse_program("e(a,b). f(b,c). g(c,d).").unwrap();
        let db = Database::from_program(&p);
        let mut next = db.clone();
        let e = p.pred_by_name("e").unwrap();
        let f = p.pred_by_name("f").unwrap();
        let g = p.pred_by_name("g").unwrap();
        next.insert(e, &[c(50), c(51)]);
        // The touched shard detached; the other two are pointer-shared.
        assert!(!Arc::ptr_eq(db.shard(e).unwrap(), next.shard(e).unwrap()));
        assert!(Arc::ptr_eq(db.shard(f).unwrap(), next.shard(f).unwrap()));
        assert!(Arc::ptr_eq(db.shard(g).unwrap(), next.shard(g).unwrap()));
        assert_eq!(db.relation(e).len(), 1);
        assert_eq!(next.relation(e).len(), 2);
    }
}
