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
//! (`Arc::make_mut`).  Inside a shard, storage is persistent too: tuples
//! live in a chunked [`PVec`] (appends copy only the tail chunk), and
//! the dedup table and every built index are [`PMap`] hash tries (path
//! copying).  The net effect is that publishing a new snapshot epoch
//! after ingesting a handful of facts costs O(delta), not O(database):
//! untouched shards are shared wholesale (`Arc::ptr_eq` with the parent
//! epoch), and the touched shard shares all of its full chunks and all
//! untouched index regions with its predecessor.
//!
//! **Index warmth.**  The index cache lives *inside* the shard, behind
//! an [`RwLock`] so a fully built relation is `Sync`: the serving layer
//! (`rq-service`) shares immutable [`Database`] snapshots across query
//! worker threads.  Because untouched shards are shared by pointer,
//! their warm indexes survive epoch publication for free; a touched
//! shard clones its index *maps* cheaply (persistent tries) and then
//! maintains them incrementally for the delta, so even the dirty shard
//! never rebuilds an index from scratch.

use rq_common::{Const, FxHashMap, IdVec, PMap, PVec, Pred};
use std::sync::{Arc, PoisonError, RwLock};

/// A bitmask of bound columns; bit `i` set means column `i` is bound.
pub type ColMask = u32;

/// Tuples per storage chunk; the chunk byte-capacity scales with arity
/// so a tuple never straddles a chunk boundary.
const TUPLES_PER_CHUNK: usize = 256;

/// Largest relation served by a columnar scan when no hash index for
/// the binding pattern exists yet.  Shards are shared by `Arc` across
/// every reader of a snapshot, so a trie index built by one query is
/// amortized over all of them; repeated O(n) scans only beat that for
/// relations small enough that a scan costs about as much as one hash
/// probe.
const COLUMNAR_SCAN_MAX: usize = 64;

/// Recover the guard from a poisoned lock.  Every structure behind the
/// relation locks is persistent (mutation happens under `&mut self` or
/// replaces an `Arc` wholesale), so a panicked reader cannot have left
/// torn data — wedging the whole service on the poison flag would hurt
/// strictly more than clearing it.
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Build a mask from an iterator of bound column positions.
pub fn mask_of(cols: impl IntoIterator<Item = usize>) -> ColMask {
    let mut m = 0;
    for c in cols {
        debug_assert!(c < 32);
        m |= 1 << c;
    }
    m
}

/// Columns set in a mask, in ascending order.
pub fn mask_cols(mask: ColMask) -> impl Iterator<Item = usize> {
    (0..32).filter(move |c| mask & (1 << c) != 0)
}

type Index = PMap<Box<[Const]>, Vec<u32>>;

/// Read-optimized storage built once per publish
/// ([`Relation::build_compact`]): a column-major copy of the tuple
/// store so bound-column probes scan contiguous buffers instead of
/// walking hash tries, plus forward/reverse CSR adjacency for binary
/// relations so the traversal engine reads successor sets as plain
/// slices.
///
/// The store is immutable once built.  [`Relation::insert`] drops it
/// (the shard is being mutated, so the snapshot is stale);
/// [`Relation::clone`] carries it by `Arc`, which is what lets every
/// shard untouched by an epoch publish keep its compact store for
/// free.
#[derive(Debug)]
pub struct CompactStore {
    /// Column-major tuples: `cols[c][ord]` is column `c` of tuple
    /// `ord`.
    cols: Vec<Vec<Const>>,
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
    /// larger than the relation; fall back to the trie indexes then.
    fn build(col0: &[Const], col1: &[Const]) -> Option<Self> {
        let width = col0
            .iter()
            .chain(col1)
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);
        if width > 8 * col0.len() + 1024 {
            return None;
        }
        let (fwd_offsets, fwd_targets) = Self::direction(col0, col1, width);
        let (rev_offsets, rev_targets) = Self::direction(col1, col0, width);
        let mut seen = vec![false; width];
        let mut sources = Vec::new();
        for &u in col0 {
            if !seen[u.index()] {
                seen[u.index()] = true;
                sources.push(u);
            }
        }
        Some(Self {
            fwd_offsets,
            fwd_targets,
            rev_offsets,
            rev_targets,
            sources,
        })
    }

    /// One orientation by counting sort: targets of a key stay in
    /// tuple-ordinal order, matching what the trie-index probe yields.
    fn direction(keys: &[Const], vals: &[Const], width: usize) -> (Vec<u32>, Vec<Const>) {
        let mut offsets = vec![0u32; width + 1];
        for k in keys {
            offsets[k.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![Const::from_index(0); keys.len()];
        let mut cursor: Vec<u32> = offsets.clone();
        for (k, &v) in keys.iter().zip(vals) {
            let slot = cursor[k.index()] as usize;
            targets[slot] = v;
            cursor[k.index()] += 1;
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
    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Whether the store covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Whether every column of `mask` exists in this store.
    fn covers(&self, mask: ColMask) -> bool {
        mask_cols(mask).all(|c| c < self.cols.len())
    }

    /// Append the ordinals of all tuples whose `mask` columns equal
    /// `key`, by scanning the bound columns contiguously.  Ordinals
    /// come out ascending — the same order the trie-index path yields.
    fn scan(&self, mask: ColMask, key: &[Const], out: &mut Vec<u32>) {
        let mut bound: Vec<(&[Const], Const)> = Vec::with_capacity(key.len());
        for (ki, c) in mask_cols(mask).enumerate() {
            bound.push((&self.cols[c], key[ki]));
        }
        let Some(&(first_col, first_key)) = bound.first() else {
            out.extend(0..self.len() as u32);
            return;
        };
        'tuples: for ord in 0..self.len() {
            if first_col[ord] != first_key {
                continue;
            }
            for &(col, k) in &bound[1..] {
                if col[ord] != k {
                    continue 'tuples;
                }
            }
            out.push(ord as u32);
        }
    }
}

/// A stored relation: a set of tuples of a fixed arity, persistent in
/// every part (see the module docs for the sharing story).
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Tuples, stored back to back (`arity` constants each) in shared
    /// chunks.
    flat: PVec<Const>,
    /// Tuple → ordinal, for deduplication and membership tests.
    dedup: PMap<Box<[Const]>, u32>,
    /// Lazily built indexes, one per bound-column mask.  Persistent
    /// values, so cloning the cache is cheap and clones keep their
    /// warmth.
    indexes: RwLock<FxHashMap<ColMask, Index>>,
    /// The publish-time compact store ([`CompactStore`]); `None` until
    /// built, dropped again by [`Self::insert`].
    compact: RwLock<Option<Arc<CompactStore>>>,
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
            flat: PVec::with_chunk_capacity(arity.max(1) * TUPLES_PER_CHUNK),
            dedup: PMap::new(),
            indexes: RwLock::new(FxHashMap::default()),
            compact: RwLock::new(None),
        }
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
        self.dedup.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.dedup.is_empty()
    }

    /// The tuple with the given ordinal.
    #[inline]
    pub fn tuple(&self, ord: u32) -> &[Const] {
        if self.arity == 0 {
            debug_assert!((ord as usize) < self.len());
            return &[];
        }
        self.flat.get_slice(ord as usize * self.arity, self.arity)
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
        self.dedup.contains_key(tuple)
    }

    /// Insert a tuple; returns `true` if it was new.  Existing indexes
    /// are maintained incrementally so lookups stay correct as derived
    /// relations grow during bottom-up evaluation, and so a shard
    /// detached from a shared snapshot keeps its warm indexes instead
    /// of rebuilding them.
    pub fn insert(&mut self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        if self.dedup.contains_key(tuple) {
            return false;
        }
        let ord = self.len() as u32;
        self.dedup.entry_mut(tuple.into(), || ord);
        self.flat.push_slice(tuple);
        // The compact store is a snapshot of the tuple set; a mutation
        // makes it stale.  The next publish rebuilds it.
        *recover(self.compact.get_mut()) = None;
        let indexes = recover(self.indexes.get_mut());
        for (&mask, index) in indexes.iter_mut() {
            let key = Self::key_for(tuple, mask);
            index.entry_mut(key, Vec::new).push(ord);
        }
        true
    }

    fn key_for(tuple: &[Const], mask: ColMask) -> Box<[Const]> {
        mask_cols(mask)
            .filter(|&c| c < tuple.len())
            .map(|c| tuple[c])
            .collect()
    }

    /// Append to `out` the ordinals of all tuples whose columns in `mask`
    /// equal `key` (the bound values, in ascending column order).  Builds
    /// the index for `mask` on first use.
    pub fn lookup(&self, mask: ColMask, key: &[Const], out: &mut Vec<u32>) {
        self.lookup_tracked(mask, key, out);
    }

    /// [`Self::lookup`], reporting how the probe was served: `true`
    /// when the publish-time [`CompactStore`] answered it by columnar
    /// scan, `false` for the full-scan and trie-index paths.
    ///
    /// Probe routing: an already-built trie index wins (O(1) to the
    /// posting list); otherwise a small relation with a compact store
    /// is scanned column-wise — contiguous reads, no index
    /// construction, identical ordinal order; only when neither
    /// applies is the trie index built on the spot.
    pub fn lookup_tracked(&self, mask: ColMask, key: &[Const], out: &mut Vec<u32>) -> bool {
        if mask == 0 {
            out.extend(0..self.len() as u32);
            return false;
        }
        {
            let indexes = recover(self.indexes.read());
            if let Some(index) = indexes.get(&mask) {
                if let Some(ords) = index.get(key) {
                    out.extend_from_slice(ords);
                }
                return false;
            }
        }
        if self.len() <= COLUMNAR_SCAN_MAX {
            let compact = recover(self.compact.read());
            if let Some(store) = compact.as_deref() {
                if store.covers(mask) {
                    store.scan(mask, key, out);
                    return true;
                }
            }
        }
        self.build_index(mask);
        let indexes = recover(self.indexes.read());
        if let Some(ords) = indexes[&mask].get(key) {
            out.extend_from_slice(ords);
        }
        false
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
        indexes.entry(mask).or_insert_with(|| {
            let mut idx: Index = PMap::new();
            for ord in 0..self.len() as u32 {
                let key = Self::key_for(self.tuple(ord), mask);
                idx.entry_mut(key, Vec::new).push(ord);
            }
            idx
        });
    }

    /// Whether the index for `mask` has been built — the warmth probe
    /// used by tests and the serving layer's publish path.
    pub fn has_index(&self, mask: ColMask) -> bool {
        recover(self.indexes.read()).contains_key(&mask)
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
        let mut slot = recover(self.compact.write());
        if slot.is_some() {
            return false;
        }
        let n = self.len();
        let mut cols: Vec<Vec<Const>> = vec![Vec::with_capacity(n); self.arity];
        for ord in 0..n {
            for (c, &v) in self.tuple(ord as u32).iter().enumerate() {
                cols[c].push(v);
            }
        }
        let csr = if self.arity == 2 {
            Csr::build(&cols[0], &cols[1])
        } else {
            None
        };
        *slot = Some(Arc::new(CompactStore { cols, csr }));
        true
    }

    /// Whether the compact store is built — the warmth probe used by
    /// tests and the serving layer.
    pub fn has_compact(&self) -> bool {
        recover(self.compact.read()).is_some()
    }

    /// The compact store, if built.  The `Arc` lets callers (e.g. the
    /// traversal engine's source) pin it once and probe lock-free.
    pub fn compact_store(&self) -> Option<Arc<CompactStore>> {
        recover(self.compact.read()).clone()
    }

    /// Count of tuples matching the binding pattern, without materializing.
    pub fn count_matching(&self, mask: ColMask, key: &[Const]) -> usize {
        let mut tmp = Vec::new();
        self.lookup(mask, key, &mut tmp);
        tmp.len()
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

impl Clone for Relation {
    fn clone(&self) -> Self {
        Self {
            arity: self.arity,
            flat: self.flat.clone(),   // chunk refcount bumps
            dedup: self.dedup.clone(), // root refcount bump
            // Indexes are persistent tries too: carry the warm cache
            // over at the cost of one refcount bump per built mask.
            indexes: RwLock::new(recover(self.indexes.read()).clone()),
            // The compact store is immutable; carry it by refcount.
            compact: RwLock::new(recover(self.compact.read()).clone()),
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

    /// Build a database holding the facts of a program (the EDB).
    pub fn from_program(program: &crate::ast::Program) -> Self {
        let mut db = Self::with_preds(program.preds.iter().map(|i| i.arity));
        for (pred, tuple) in &program.facts {
            db.insert(*pred, tuple);
        }
        db
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

    /// Build the first-column and second-column indexes — the two
    /// probes the traversal engine makes — of every binary relation
    /// that has no CSR to serve them: one whose compact store is not
    /// built yet, or whose ids are too sparse for [`CompactStore`] to
    /// carry adjacency.  The serving layer calls this when publishing
    /// an immutable snapshot, right after
    /// [`Self::build_compact_stores`], so concurrent readers never
    /// contend on index construction and a shard served by CSR rows
    /// never pays for two tries it would not probe.  Shards carried
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
            assert!(with_store.lookup_tracked(mask, &key, &mut scanned));
            assert!(!with_index.lookup_tracked(mask, &key, &mut indexed));
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
