//! Demand-driven access to the §4 virtual relations.
//!
//! "Tuples in base-r, in-r, and out-r will only be retrieved 'by demand',
//! that is, when the graph-traversal algorithm has entered a node
//! belonging to the domain of one of these relations.  Only then will the
//! original base relations be consulted and tuples retrieved and joined."
//!
//! A successor probe `rel(t(c̄), ?)` decodes the tuple constant, binds the
//! input terms, runs the defining join against the original database
//! (reusing the Datalog backtracking-join machinery, with built-ins
//! deferred until bound), and interns the resulting output tuples.
//!
//! The tuple interner and the probe memo of a [`ProbeSpace`] live in
//! append-only arenas of atomic words, indexed by tuple id: tuple
//! components sit back to back in one arena, and every (virtual
//! relation, direction) has one column of slots, indexed by the probed
//! tuple, pointing into one arena of output tuple ids.  A memo hit is
//! an `Acquire` load of the slot and a copy of its outputs, with no
//! lock and no store to shared memory; a miss runs its join with no
//! lock held, then interns and records the result under the space's
//! one writer mutex.

use crate::arena::Arena;
use crate::transform::{BinaryProgram, VirtualRel};
use rq_common::obs::Counter;
use rq_common::{Const, Counters, FxHashMap, FxHashSet, FxHasher, Pred, Rows};
use rq_datalog::{
    fire_seeded, Atom, Database, DeltaView, Literal, Program, Relation, Term, WholeDb,
};
use rq_engine::TupleSource;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// First id handed out for tuple constants.  Tuple ids live in the top
/// half of the `u32` id space so they can never collide with program
/// constants (interned densely from zero), even when a probe space is
/// carried across an epoch whose ingest grew the program interner.
const TUPLE_ID_BASE: u32 = 1 << 31;

/// End of a dedup hash chain ([`Writer::chain`]).
const NO_TUPLE: u32 = u32::MAX;

/// A memo slot word: `(start + 1) << 32 | len` for the `len` output
/// ids at `outputs[start..]`; 0 is a key with no entry.
fn pack(range: Range<usize>) -> u64 {
    (range.start as u64 + 1) << 32 | range.len() as u64
}

/// The output range of a slot word, `None` when vacant.
fn unpack(slot: u64) -> Option<Range<usize>> {
    let start = (slot >> 32).checked_sub(1)? as usize;
    Some(start..start + (slot as u32) as usize)
}

/// Index of tuple constant `c` in the tuple arenas.
fn tuple_index(c: Const) -> usize {
    c.0.checked_sub(TUPLE_ID_BASE)
        .expect("expected a tuple constant") as usize
}

/// The memo columns of one space, `[backward, forward]` per predicate
/// id in `first..`, covering its plan's virtual relations.
struct Columns {
    first: u32,
    columns: Box<[[Arena<AtomicU64>; 2]]>,
}

impl Columns {
    fn new(virtuals: impl Iterator<Item = Pred> + Clone) -> Self {
        let first = virtuals.clone().map(|p| p.0).min().unwrap_or(0);
        let end = virtuals.map(|p| p.0 + 1).max().unwrap_or(first);
        Self {
            first,
            columns: (first..end).map(|_| Default::default()).collect(),
        }
    }

    fn get(&self, r: Pred, forward: bool) -> Option<&Arena<AtomicU64>> {
        let column = self.columns.get(r.0.checked_sub(self.first)? as usize)?;
        Some(&column[usize::from(forward)])
    }

    fn copy(&self) -> Self {
        Self {
            first: self.first,
            columns: self
                .columns
                .iter()
                .map(|[back, fwd]| [back.copy(), fwd.copy()])
                .collect(),
        }
    }
}

/// What the writers of one [`ProbeSpace`] share, behind its mutex: the
/// dedup index and how far each arena is filled.  Every mutation
/// stores into the arenas, then advances these lengths, then publishes
/// (returns the interned id, stores the slot), so a panic leaves the
/// space merely smaller, never torn.
#[derive(Clone, Default)]
struct Writer {
    /// Dedup index: a component hash → the newest tuple with that hash.
    heads: FxHashMap<u64, u32>,
    /// Tuple index → the next older tuple with the same hash; its
    /// length is the number of interned tuples.
    chain: Vec<u32>,
    /// Filled length of the component arena.
    components: usize,
    /// Filled length of the output arena.  Stays below `u32::MAX` so
    /// every slot's `start + 1` fits its half of the word.
    outputs: usize,
    /// Recorded memo entries.
    entries: usize,
}

impl Writer {
    fn hash(components: &[Const]) -> u64 {
        let mut h = FxHasher::default();
        components.hash(&mut h);
        h.finish()
    }

    /// Whether the output arena can grow by `more` ids.
    fn outputs_fit(&self, more: usize) -> bool {
        self.outputs + more < u32::MAX as usize
    }
}

/// Hit/miss/entry counts of one [`ProbeSpace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that ran the defining join.
    pub misses: u64,
    /// Memoized `(relation, key, direction)` probe results.
    pub entries: usize,
}

impl ProbeStats {
    /// Fold `other` into `self` with saturating arithmetic — the
    /// aggregation an epoch context runs over all of its probe spaces,
    /// safe even if a counter has (pathologically) reached the top of
    /// its range.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.entries = self.entries.saturating_add(other.entries);
    }
}

/// The shareable half of a [`VirtualSource`]: the tuple-constant
/// interner and the probe memo.
///
/// Every probe of a §4 virtual relation joins the same immutable base
/// relations, so its result depends only on the database version and
/// the transformed program — never on which query asked.  Hoisting the
/// interner + memo out of per-query scope lets a whole batch of
/// adorned queries against one snapshot epoch pay each virtual-
/// predicate probe **once**: the serving layer keys one space per
/// `(epoch, predicate, adornment)` and hands it to every
/// `VirtualSource` it builds for that plan, discarding the space
/// wholesale when a new epoch is published.
///
/// The storage is append-only chunked arenas of atomics (see the module
/// docs): a word never moves once written, so the wire workers that
/// share one space read tuples and memo entries with no lock, and a
/// probe's hit or miss lands in a per-thread counter shard.  Writers —
/// [`VirtualSource::intern_tuple`], a miss recording its result,
/// [`Self::patch_pairs`], [`delta_pairs`] and [`Self::fork`] — take one
/// mutex, which owns the dedup index and the arena lengths; a writer
/// stores a slot with `Release` after its outputs, and a reader loads
/// it with `Acquire` before reading them.  Every other word is stored
/// and loaded `Relaxed`: a tuple id reaches a reader only from its own
/// thread's intern, from a slot it loaded with `Acquire`, or through a
/// lock (the machine memo's), and each of those orders the tuple's
/// components before the read.  No lock is held across a join.
///
/// The memo columns are fixed when the space first meets its plan
/// ([`VirtualSource::with_space`]), one per virtual relation and
/// direction.  The memo is bounded by an entry cap: once full, further
/// probe results are computed but not recorded — always sound, the
/// memo is only an optimization — so a long-lived epoch cannot grow it
/// without bound.
pub struct ProbeSpace {
    /// Every tuple's components, back to back.  Component ids are
    /// program constants; tuple ids start at [`TUPLE_ID_BASE`], above
    /// every id the program interner can reach.
    components: Arena<AtomicU32>,
    /// Tuple `i` is `components[ends[i - 1]..ends[i]]` (from 0 for the
    /// first).
    ends: Arena<AtomicU32>,
    /// Memo slots ([`pack`]), set once from the plan's virtual
    /// relations.
    columns: OnceLock<Columns>,
    /// Output tuple ids of every memo entry, back to back.
    outputs: Arena<AtomicU32>,
    /// The writers' mutex.
    writer: Mutex<Writer>,
    /// Entry cap of the memo.
    max_entries: usize,
    hits: Counter,
    misses: Counter,
}

/// Default entry cap for [`ProbeSpace`]: an epoch's whole probe working
/// set on the 240k-flight serving workload (480k keys) fits.
pub const DEFAULT_PROBE_ENTRIES: usize = 1 << 20;

impl ProbeSpace {
    /// Fresh space compatible with `program`'s constant ids, with the
    /// default entry cap ([`DEFAULT_PROBE_ENTRIES`]).
    pub fn new(program: &Program) -> Self {
        Self::with_capacity(program, DEFAULT_PROBE_ENTRIES)
    }

    /// Fresh space holding at most `max_entries` memoized probe
    /// results; overflow stops recording (probes still compute).  It
    /// allocates no arena chunk until its first write.
    pub fn with_capacity(program: &Program, max_entries: usize) -> Self {
        debug_assert!(
            program.consts.len() < TUPLE_ID_BASE as usize,
            "program interner overlaps the tuple id range"
        );
        Self {
            components: Arena::default(),
            ends: Arena::default(),
            columns: OnceLock::new(),
            outputs: Arena::default(),
            writer: Mutex::default(),
            max_entries,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Lock the writers' mutex, recovering from poison: the arenas are
    /// never torn by a panic (see [`Writer`]), so serving the remaining
    /// queries from the space is sound.
    fn write(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fix the memo columns to `bin`'s virtual relations, unless an
    /// earlier source already did.
    fn bind(&self, bin: &BinaryProgram) {
        self.columns
            .get_or_init(|| Columns::new(bin.virtuals.keys().copied()));
    }

    /// The slot column of `(r, forward)`, if the plan memoizes `r`.
    fn column(&self, r: Pred, forward: bool) -> Option<&Arena<AtomicU64>> {
        self.columns.get()?.get(r, forward)
    }

    /// The component range of tuple `i` in the component arena.
    fn span(&self, i: usize) -> Range<usize> {
        let end = |i: usize| {
            self.ends
                .load(i, Ordering::Relaxed)
                .expect("tuple was interned") as usize
        };
        if i == 0 {
            0..end(0)
        } else {
            end(i - 1)..end(i)
        }
    }

    /// The components of tuple constant `c`.
    fn components(&self, c: Const) -> impl Iterator<Item = Const> + '_ {
        self.components
            .segments(self.span(tuple_index(c)))
            .flatten()
            .map(|w| Const(w.load(Ordering::Relaxed)))
    }

    /// The memoized output range of `(r, key, forward)`, if recorded.
    fn entry(&self, r: Pred, key: Const, forward: bool) -> Option<Range<usize>> {
        let slot = self
            .column(r, forward)?
            .load(tuple_index(key), Ordering::Acquire)?;
        unpack(slot)
    }

    /// Append the output ids at `range` to `out`.
    fn copy_outputs(&self, range: Range<usize>, out: &mut Vec<Const>) {
        for segment in self.outputs.segments(range) {
            out.extend(segment.iter().map(|w| Const(w.load(Ordering::Relaxed))));
        }
    }

    /// The tuple id of `components`, if interned.
    fn lookup(&self, w: &Writer, components: &[Const], hash: u64) -> Option<Const> {
        let mut i = *w.heads.get(&hash)?;
        while i != NO_TUPLE {
            let id = Const(TUPLE_ID_BASE + i);
            if self.components(id).eq(components.iter().copied()) {
                return Some(id);
            }
            i = w.chain[i as usize];
        }
        None
    }

    /// The tuple id of `components`, interned on first sight.
    fn intern_locked(&self, w: &mut Writer, components: &[Const]) -> Const {
        let hash = Writer::hash(components);
        if let Some(id) = self.lookup(w, components, hash) {
            return id;
        }
        let i = u32::try_from(w.chain.len())
            .ok()
            .filter(|&i| i < TUPLE_ID_BASE)
            .expect("tuple table exhausted the id space");
        let end = u32::try_from(w.components + components.len())
            .expect("tuple table exhausted its component arena");
        for (at, c) in (w.components..).zip(components) {
            self.components.store(at, c.0, Ordering::Relaxed);
        }
        self.ends.store(i as usize, end, Ordering::Relaxed);
        w.components = end as usize;
        w.chain.push(w.heads.insert(hash, i).unwrap_or(NO_TUPLE));
        Const(TUPLE_ID_BASE + i)
    }

    /// The tuple id of `components`, interned on first sight.
    fn intern(&self, components: &[Const]) -> Const {
        self.intern_locked(&mut self.write(), components)
    }

    /// Record `rows` as the entry of a key that has none, unless the
    /// entry cap (or the output arena's `u32` offsets) refuse it.
    fn record(&self, w: &mut Writer, r: Pred, key: Const, forward: bool, rows: &[Const]) {
        let Some(column) = self.column(r, forward) else {
            return;
        };
        let i = tuple_index(key);
        if w.entries >= self.max_entries
            || !w.outputs_fit(rows.len())
            || column.load(i, Ordering::Relaxed).unwrap_or(0) != 0
        {
            return;
        }
        let start = w.outputs;
        for (at, c) in (start..).zip(rows) {
            self.outputs.store(at, c.0, Ordering::Relaxed);
        }
        w.outputs += rows.len();
        column.store(i, pack(start..w.outputs), Ordering::Release);
        w.entries += 1;
    }

    /// Append `row` to the entry of `(r, key, forward)` if the entry
    /// exists and lacks it: the entry's outputs are copied to the end
    /// of the output arena (extended in place when they already end
    /// there), then the slot is re-pointed, so a reader of the old
    /// slot still reads the old outputs.  Returns 1 if a row was added.
    fn patch(&self, w: &mut Writer, r: Pred, key: Const, forward: bool, row: Const) -> u64 {
        let Some(column) = self.column(r, forward) else {
            return 0;
        };
        let i = tuple_index(key);
        let Some(range) = column.load(i, Ordering::Relaxed).and_then(unpack) else {
            return 0;
        };
        let mut old = Vec::with_capacity(range.len() + 1);
        self.copy_outputs(range.clone(), &mut old);
        if old.contains(&row) {
            return 0;
        }
        let at_tail = range.end == w.outputs;
        if !w.outputs_fit(if at_tail { 1 } else { old.len() + 1 }) {
            // Unpatchable: drop the entry, so the key recomputes.
            column.store(i, 0, Ordering::Release);
            w.entries -= 1;
            return 0;
        }
        let start = if at_tail { range.start } else { w.outputs };
        old.push(row);
        for (at, c) in (start..)
            .zip(&old)
            .skip(if at_tail { range.len() } else { 0 })
        {
            self.outputs.store(at, c.0, Ordering::Relaxed);
        }
        w.outputs = start + old.len();
        column.store(i, pack(start..w.outputs), Ordering::Release);
        1
    }

    /// Replace `out`'s first `matches` rows of `width` components each
    /// by their tuple ids and record the ids as the entry of
    /// `(r, key, forward)` — one lock of the writers' mutex for the
    /// whole probe.
    fn settle(
        &self,
        r: Pred,
        key: Const,
        forward: bool,
        width: usize,
        matches: usize,
        out: &mut Vec<Const>,
    ) {
        let mut w = self.write();
        if width == 0 {
            out.clear();
            if matches > 0 {
                out.resize(matches, self.intern_locked(&mut w, &[]));
            }
        } else {
            // Row `i` starts at `i * width >= i`, so writing id `i`
            // never clobbers a row not yet interned.
            for i in 0..matches {
                out[i] = self.intern_locked(&mut w, &out[i * width..(i + 1) * width]);
            }
            out.truncate(matches);
        }
        self.record(&mut w, r, key, forward, out);
    }

    /// Deep-copy this space: same tuple ids, same memo entries,
    /// independent storage, fresh hit/miss counters.  The chunks are
    /// copied under the writers' mutex; readers of this space never
    /// block on it.
    ///
    /// The delta-repair path forks the previous epoch's space, patches
    /// the fork against the publish's delta, and hands the fork to the
    /// new epoch: readers of the old epoch keep an untouched space (no
    /// new rows leak into already-published results), while the new
    /// epoch starts from all previously-paid probe and intern work —
    /// with identical tuple ids, so carried machine-memo entries keep
    /// meaning the same tuples.
    pub fn fork(&self) -> Self {
        let w = self.write();
        let columns = OnceLock::new();
        if let Some(parent) = self.columns.get() {
            let _ = columns.set(parent.copy());
        }
        Self {
            components: self.components.copy(),
            ends: self.ends.copy(),
            columns,
            outputs: self.outputs.copy(),
            writer: Mutex::new(w.clone()),
            max_entries: self.max_entries,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Merge a publish's new `(in, out)` pairs of virtual relation `r`
    /// into the probe memo: an existing forward entry for `in` gains
    /// `out`, an existing backward entry for `out` gains `in`.  Absent
    /// keys stay absent — a later probe recomputes them against the new
    /// database.  Patched entries are complete again provided `pairs`
    /// really is the full delta of `r` (what [`delta_pairs`] computes),
    /// because ingests only ever add tuples.  Returns the rows added.
    pub fn patch_pairs(&self, r: Pred, pairs: &[(Const, Const)]) -> u64 {
        let mut w = self.write();
        let mut added = 0u64;
        for &(input, output) in pairs {
            added += self.patch(&mut w, r, input, true, output);
            added += self.patch(&mut w, r, output, false, input);
        }
        added
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> ProbeStats {
        ProbeStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            entries: self.write().entries,
        }
    }
}

/// Enumerate the `(in, out)` tuple-constant pairs a publish's added
/// base tuples contribute to each §4 virtual relation of `bin` — the
/// seminaive delta of the defining joins.
///
/// For every virtual relation and every body-atom occurrence of a
/// predicate in `delta`, the defining join is re-fired over the **new**
/// database with the delta relation substituted at that occurrence and
/// the delta atom moved to the front, so the join is driven by the few
/// new tuples rather than re-enumerating the base relation.  The union
/// over occurrences is the complete set of new pairs (a pair may also
/// be derivable from old tuples alone — consumers must tolerate
/// already-known pairs, which both [`ProbeSpace::patch_pairs`] and the
/// engine's repair do).  Emitted tuples are interned into `space`,
/// which should be the forked space the new epoch will serve from.
///
/// Returns `None` when some virtual relation cannot be delta-enumerated
/// — output variables not bound by the defining join (non-chain mode),
/// in/out terms whose variables the join does not cover (a full
/// enumeration could not close the key space), or a built-in left
/// unbound without the probe key's seed bindings.  The caller then
/// falls back to dropping the carried state for this plan.
pub fn delta_pairs(
    program: &Program,
    db: &Database,
    bin: &BinaryProgram,
    space: &ProbeSpace,
    delta: &FxHashMap<Pred, Relation>,
    counters: &mut Counters,
) -> Option<FxHashMap<Pred, Vec<(Const, Const)>>> {
    let mut out: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
    for (&r, rel) in &bin.virtuals {
        if !rel.unbound_out_vars.is_empty() {
            return None;
        }
        let rule = &program.rules[rel.rule_idx];
        let mut bound: FxHashSet<rq_common::Var> = FxHashSet::default();
        for &li in &rel.literals {
            if let Some(atom) = rule.body[li].as_atom() {
                for t in &atom.args {
                    if let Term::Var(v) = t {
                        bound.insert(*v);
                    }
                }
            }
        }
        let covered = rel
            .in_terms
            .iter()
            .chain(rel.out_terms.iter())
            .all(|t| match t {
                Term::Var(v) => bound.contains(v),
                Term::Const(_) => true,
            });
        if !covered {
            return None;
        }
        let mut head_terms: Vec<Term> =
            Vec::with_capacity(rel.in_terms.len() + rel.out_terms.len());
        head_terms.extend(rel.in_terms.iter().copied());
        head_terms.extend(rel.out_terms.iter().copied());
        let width = head_terms.len();
        let mut pairs: Vec<(Const, Const)> = Vec::new();
        for (pos, &li) in rel.literals.iter().enumerate() {
            let Some(atom) = rule.body[li].as_atom() else {
                continue;
            };
            let Some(delta_rel) = delta.get(&atom.pred) else {
                continue;
            };
            if delta_rel.is_empty() {
                continue;
            }
            // Delta atom first (occurrence 0 reads the delta); further
            // occurrences of the same predicate read the full relation.
            let body = std::iter::once(&rule.body[li]).chain(
                rel.literals
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != pos)
                    .map(|(_, &lj)| &rule.body[lj]),
            );
            let view = DeltaView {
                full: db,
                target: atom.pred,
                target_occurrence: 0,
                delta: delta_rel,
            };
            let mut env: Vec<Option<Const>> = vec![None; rule.num_vars()];
            let mut rows: Vec<Const> = Vec::new();
            let mut matches = 0usize;
            fire_seeded(
                program,
                body,
                &head_terms,
                &mut env,
                &view,
                counters,
                &mut |row| {
                    matches += 1;
                    rows.extend_from_slice(row);
                },
            )
            .ok()?;
            let mut w = space.write();
            for i in 0..matches {
                let (ins, outs) = rows[i * width..(i + 1) * width].split_at(rel.in_terms.len());
                pairs.push((
                    space.intern_locked(&mut w, ins),
                    space.intern_locked(&mut w, outs),
                ));
            }
        }
        if !pairs.is_empty() {
            pairs.sort_unstable();
            pairs.dedup();
            out.insert(r, pairs);
        }
    }
    Some(out)
}

impl std::fmt::Debug for ProbeSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProbeSpace")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// How a [`VirtualSource`] holds its [`ProbeSpace`]: built for this
/// source, or borrowed from the serving layer's epoch.
enum SpaceRef<'a> {
    Owned(Box<ProbeSpace>),
    Shared(&'a ProbeSpace),
}

/// A [`TupleSource`] computing virtual relations on demand.
pub struct VirtualSource<'a> {
    program: &'a Program,
    /// The original EDB — borrowed, or an owned copy extended with a
    /// `__domain` unary relation when some virtual relation has unbound
    /// output variables (only in the unchecked/non-chain mode).
    db: Cow<'a, Database>,
    virtuals: &'a FxHashMap<Pred, VirtualRel>,
    /// The tuple interner + probe memo — private to this query, or
    /// shared with every query of one snapshot epoch
    /// ([`VirtualSource::with_space`]).
    space: SpaceRef<'a>,
    /// The `__domain` predicate, if materialized.
    domain_pred: Option<Pred>,
}

impl<'a> VirtualSource<'a> {
    /// Build a source for a transformed program with a private
    /// [`ProbeSpace`] (per-query memoization only).
    pub fn new(program: &'a Program, db: &'a Database, bin: &'a BinaryProgram) -> Self {
        let space = SpaceRef::Owned(Box::new(ProbeSpace::new(program)));
        Self::build(program, db, bin, space)
    }

    /// Build a source whose probes read and feed a shared
    /// [`ProbeSpace`].  The caller owns the invalidation contract: a
    /// space must only be shared between sources over the **same**
    /// database version and the **same** transformed program.
    pub fn with_space(
        program: &'a Program,
        db: &'a Database,
        bin: &'a BinaryProgram,
        space: &'a ProbeSpace,
    ) -> Self {
        Self::build(program, db, bin, SpaceRef::Shared(space))
    }

    fn build(
        program: &'a Program,
        db: &'a Database,
        bin: &'a BinaryProgram,
        space: SpaceRef<'a>,
    ) -> Self {
        let needs_domain = bin
            .virtuals
            .values()
            .any(|v| !v.unbound_out_vars.is_empty());
        let mut db = Cow::Borrowed(db);
        let mut domain_pred = None;
        if needs_domain {
            // Materialize the active domain as a unary relation so
            // unbound output variables can range over it (reproducing
            // the overapproximation the paper warns about for non-chain
            // programs).
            let db = db.to_mut();
            let max_virtual = bin.names.keys().map(|p| p.0).max().unwrap_or(0);
            let dp = Pred(max_virtual + 1);
            db.ensure_pred(dp, 1);
            let mut constants: Vec<Const> = Vec::new();
            for pi in 0..program.preds.len() {
                let rel = db.relation(Pred::from_index(pi));
                for t in rel.iter() {
                    constants.extend_from_slice(t);
                }
            }
            for c in constants {
                db.insert(dp, &[c]);
            }
            domain_pred = Some(dp);
        }
        let source = Self {
            program,
            db,
            virtuals: &bin.virtuals,
            space,
            domain_pred,
        };
        source.space().bind(bin);
        source
    }

    #[inline]
    fn space(&self) -> &ProbeSpace {
        match &self.space {
            SpaceRef::Owned(space) => space,
            SpaceRef::Shared(space) => space,
        }
    }

    /// Intern a tuple constant.
    pub fn intern_tuple(&self, components: Vec<Const>) -> Const {
        self.space().intern(&components)
    }

    /// Decode a tuple constant into its components.
    pub fn decode_tuple(&self, c: Const) -> Vec<Const> {
        self.space().components(c).collect()
    }

    /// Decode answer tuple constants of `width` components each into
    /// sorted, deduplicated rows, with no lock taken.
    pub fn decode_rows(&self, width: usize, answers: impl IntoIterator<Item = Const>) -> Rows {
        let space = self.space();
        let mut rows = Rows::builder(width);
        let mut row = Vec::with_capacity(width);
        for c in answers {
            row.clear();
            row.extend(space.components(c));
            rows.push(&row);
        }
        rows.finish()
    }

    /// Render a tuple constant (for tests and examples).  Components
    /// below `TUPLE_ID_BASE` render through the program interner;
    /// nested tuple ids recurse.
    pub fn display_const(&self, c: Const) -> String {
        if c.0 < TUPLE_ID_BASE {
            return self.program.consts.display(c);
        }
        let parts = self.decode_tuple(c);
        let inner: Vec<String> = parts.iter().map(|&p| self.display_const(p)).collect();
        format!("t({})", inner.join(","))
    }

    /// Evaluate one direction of a virtual relation: bind `bind_terms`
    /// to the key's `components`, join `rel`'s literals, and append the
    /// instantiation of `emit_terms` for every match to `out` — flat,
    /// `emit_terms.len()` constants per match.  Returns the number of
    /// matches.  Runs with no lock held.
    ///
    /// Chain programs (no unbound output variables) take the seeded
    /// fast path: the key's components are bound straight into the join
    /// environment and the rule's own literals are joined in place —
    /// no substitution map, no cloned body, no synthetic rule.  The
    /// environment lives in a stack buffer (heap fallback past 32
    /// variables).
    fn join(
        &self,
        rel: &VirtualRel,
        bind_terms: &[Term],
        emit_terms: &[Term],
        components: &[Const],
        out: &mut Vec<Const>,
        counters: &mut Counters,
    ) -> usize {
        if components.len() != bind_terms.len() {
            return 0;
        }
        let rule = &self.program.rules[rel.rule_idx];
        let num_vars = rule.num_vars();
        let mut env_stack = [None; 32];
        let mut env_heap: Vec<Option<Const>> = Vec::new();
        let env: &mut [Option<Const>] = if num_vars <= 32 {
            &mut env_stack[..num_vars]
        } else {
            env_heap.resize(num_vars, None);
            &mut env_heap
        };
        // Seed the environment: input variables become constants; an
        // input constant that disagrees with the key kills the probe.
        for (t, &c) in bind_terms.iter().zip(components) {
            match t {
                Term::Var(v) => {
                    let slot = &mut env[v.0 as usize];
                    if slot.is_some_and(|prev| prev != c) {
                        return 0;
                    }
                    *slot = Some(c);
                }
                Term::Const(k) => {
                    if *k != c {
                        return 0;
                    }
                }
            }
        }
        let mut matches = 0usize;
        let mut emit = |t: &[Const]| {
            matches += 1;
            out.extend_from_slice(t);
        };
        let body = rel.literals.iter().map(|&li| &rule.body[li]);
        if rel.unbound_out_vars.is_empty() {
            fire_seeded(
                self.program,
                body,
                emit_terms,
                env,
                &WholeDb(&self.db),
                counters,
                &mut emit,
            )
            .expect("virtual-relation joins bind all built-ins");
        } else {
            // Non-chain mode: unbound output variables range over the
            // materialized active domain, appended as extra body atoms.
            let dp = self
                .domain_pred
                .expect("domain relation materialized for non-chain programs");
            let domain_atoms: Vec<Literal> = rel
                .unbound_out_vars
                .iter()
                .filter(|&&v| !bind_terms.iter().any(|t| t.as_var() == Some(v)))
                .map(|&v| Literal::Atom(Atom::new(dp, vec![Term::Var(v)])))
                .collect();
            fire_seeded(
                self.program,
                body.chain(domain_atoms.iter()),
                emit_terms,
                env,
                &WholeDb(&self.db),
                counters,
                &mut emit,
            )
            .expect("virtual-relation joins bind all built-ins");
        }
        counters.tuples_retrieved += matches as u64;
        matches
    }

    /// One memoized direction of a virtual relation, into `out`
    /// (cleared first: a virtual relation has no stored row to lend).
    /// A hit copies the entry out with no lock taken.  A miss copies
    /// the key's components out, joins with no lock held, then interns
    /// and records under the writers' mutex; a racing thread computing
    /// the same key produces identical outputs (the interner dedups
    /// tuple constants), and whichever records first wins.
    fn cached_probe(
        &self,
        r: Pred,
        key: Const,
        forward: bool,
        out: &mut Vec<Const>,
        counters: &mut Counters,
    ) {
        counters.index_probes += 1;
        out.clear();
        let space = self.space();
        if let Some(range) = space.entry(r, key, forward) {
            space.copy_outputs(range, out);
            space.hits.inc();
            return;
        }
        space.misses.inc();
        let mut key_stack = [Const(0); 32];
        let mut key_heap: Vec<Const> = Vec::new();
        let len = space.span(tuple_index(key)).len();
        let components: &[Const] = if len <= key_stack.len() {
            for (slot, c) in key_stack.iter_mut().zip(space.components(key)) {
                *slot = c;
            }
            &key_stack[..len]
        } else {
            key_heap.extend(space.components(key));
            &key_heap
        };
        let rel = &self.virtuals[&r];
        let (bind_terms, emit_terms) = if forward {
            (&rel.in_terms, &rel.out_terms)
        } else {
            (&rel.out_terms, &rel.in_terms)
        };
        let matches = self.join(rel, bind_terms, emit_terms, components, out, counters);
        space.settle(r, key, forward, emit_terms.len(), matches, out);
    }
}

impl TupleSource for VirtualSource<'_> {
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        self.cached_probe(r, u, true, buf, counters);
        buf
    }

    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        self.cached_probe(r, v, false, buf, counters);
        buf
    }

    /// Virtual relations cannot be enumerated without bindings; all-pairs
    /// queries over the transformed program always anchor at the query's
    /// bound tuple (possibly the empty tuple `t()`), so this is unused.
    fn first_column(&self, _r: Pred, _out: &mut Vec<Const>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adornment::adorn;
    use crate::transform::transform;
    use rq_common::ConstValue;
    use rq_datalog::{parse_program, Query};

    #[test]
    fn probe_in_relation_of_flight_program() {
        let mut program = parse_program(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130).\n\
             flight(ams,1200,cdg,1330).\n\
             flight(ams,1100,cdg,1230).\n\
             is_deptime(900). is_deptime(1200). is_deptime(1100).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "cnx(hel, 900, D, AT)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let src = VirtualSource::new(&program, &db, &bin);

        let in_pred = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "in-r1")
            .map(|(p, _)| p)
            .unwrap();
        let hel = program.consts.get(&ConstValue::Str("hel".into())).unwrap();
        let t900 = program.consts.get(&ConstValue::Int(900)).unwrap();
        let anchor = src.intern_tuple(vec![hel, t900]);
        let mut out = Vec::new();
        let mut counters = Counters::new();
        src.successors(in_pred, anchor, &mut out, &mut counters);
        // From (hel, 900): flight(hel,900,ams,1130), connections with
        // AT1=1130 < DT1 ∈ {1200}: → t(ams, 1200).  (1100 < 1130 fails.)
        let rendered: Vec<String> = out.iter().map(|&c| src.display_const(c)).collect();
        assert_eq!(rendered, vec!["t(ams,1200)"]);
        assert!(counters.tuples_retrieved > 0);
    }

    #[test]
    fn repeated_probe_hits_memo() {
        let mut program = parse_program(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(a,b). b0(a,c). b1(a,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let src = VirtualSource::new(&program, &db, &bin);
        let base = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "base-r0")
            .map(|(p, _)| p)
            .unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let anchor = src.intern_tuple(vec![a]);
        let mut out = Vec::new();
        let mut c1 = Counters::new();
        src.successors(base, anchor, &mut out, &mut c1);
        let first = out.clone();
        out.clear();
        let mut c2 = Counters::new();
        src.successors(base, anchor, &mut out, &mut c2);
        assert_eq!(out, first);
        // Second probe answers from the memo: no base tuples touched.
        assert_eq!(c2.tuples_retrieved, 0);
        assert!(c1.tuples_retrieved > 0);
    }

    #[test]
    fn shared_space_memoizes_across_sources() {
        // Two sources (two queries of one epoch) over one space: the
        // second source's probe answers from the first one's memo.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ProbeSpace>();
        assert_sync::<VirtualSource<'_>>();

        let mut program = parse_program(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(a,b). b0(a,c). b1(a,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let space = ProbeSpace::new(&program);
        let base = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "base-r0")
            .map(|(p, _)| p)
            .unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();

        let first_source = VirtualSource::with_space(&program, &db, &bin, &space);
        let anchor = first_source.intern_tuple(vec![a]);
        let mut out = Vec::new();
        let mut c1 = Counters::new();
        first_source.successors(base, anchor, &mut out, &mut c1);
        assert!(c1.tuples_retrieved > 0);
        let first = out.clone();
        drop(first_source);

        let second_source = VirtualSource::with_space(&program, &db, &bin, &space);
        let anchor_again = second_source.intern_tuple(vec![a]);
        assert_eq!(anchor, anchor_again, "shared interner keeps ids stable");
        out.clear();
        let mut c2 = Counters::new();
        second_source.successors(base, anchor_again, &mut out, &mut c2);
        assert_eq!(out, first);
        assert_eq!(c2.tuples_retrieved, 0, "served from the shared memo");
        let stats = space.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn probe_space_entry_cap_stops_recording_not_probing() {
        let mut program = parse_program(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(a,b). b0(b,c). b0(c,d). b1(a,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let space = ProbeSpace::with_capacity(&program, 1);
        let src = VirtualSource::with_space(&program, &db, &bin, &space);
        let base = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "base-r0")
            .map(|(p, _)| p)
            .unwrap();
        let mut counters = Counters::new();
        for name in ["a", "b", "c"] {
            let c = program
                .consts
                .get(&ConstValue::Str((*name).into()))
                .unwrap();
            let anchor = src.intern_tuple(vec![c]);
            let mut out = Vec::new();
            src.successors(base, anchor, &mut out, &mut counters);
            assert!(!out.is_empty(), "capped memo must still probe ({name})");
        }
        assert_eq!(
            space.stats().entries,
            1,
            "cap refuses keys beyond the first"
        );
    }

    #[test]
    fn forked_space_patch_matches_recomputation_and_leaves_parent_clean() {
        let mut program = parse_program(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130).\n\
             flight(ams,1200,cdg,1330).\n\
             is_deptime(900). is_deptime(1200).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "cnx(hel, 900, D, AT)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let space = ProbeSpace::new(&program);
        let src = VirtualSource::with_space(&program, &db, &bin, &space);

        let in_pred = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "in-r1")
            .map(|(p, _)| p)
            .unwrap();
        let hel = program.consts.get(&ConstValue::Str("hel".into())).unwrap();
        let t900 = program.consts.get(&ConstValue::Int(900)).unwrap();
        let anchor = src.intern_tuple(vec![hel, t900]);
        let mut warm = Vec::new();
        let mut counters = Counters::new();
        src.successors(in_pred, anchor, &mut warm, &mut counters);
        assert_eq!(warm.len(), 1, "old epoch sees one onward connection");

        // The publish adds is_deptime(1300): (hel,900)'s flight arriving
        // at 1130 now also connects onward at departure time 1300.
        let extended = parse_program(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130).\n\
             flight(ams,1200,cdg,1330).\n\
             is_deptime(900). is_deptime(1200). is_deptime(1300).",
        )
        .unwrap();
        assert_eq!(program.preds.len(), extended.preds.len());
        let db_new = Database::from_program(&extended);
        let dep = extended.pred_by_name("is_deptime").unwrap();
        let t1300 = extended.consts.get(&ConstValue::Int(1300)).unwrap();
        let mut delta: FxHashMap<Pred, Relation> = FxHashMap::default();
        delta.insert(dep, Relation::from_rows(1, [&[t1300][..]]));

        let fork = space.fork();
        let pairs = delta_pairs(&extended, &db_new, &bin, &fork, &delta, &mut counters)
            .expect("chain program is delta-enumerable");
        let in_pairs = &pairs[&in_pred];
        assert_eq!(in_pairs.len(), 1);
        assert_eq!(in_pairs[0].0, anchor, "new pair hangs off the warm key");
        let added = fork.patch_pairs(in_pred, in_pairs);
        assert_eq!(added, 1, "forward entry patched; backward key absent");

        // The patched fork serves the repaired row from its memo and
        // matches a cold recomputation over the new database exactly.
        let repaired_src = VirtualSource::with_space(&extended, &db_new, &bin, &fork);
        let mut patched = Vec::new();
        let mut c_patched = Counters::new();
        repaired_src.successors(in_pred, anchor, &mut patched, &mut c_patched);
        assert_eq!(c_patched.tuples_retrieved, 0, "served from the memo");
        let cold_src = VirtualSource::new(&extended, &db_new, &bin);
        let cold_anchor = cold_src.intern_tuple(vec![hel, t900]);
        let mut cold = Vec::new();
        cold_src.successors(in_pred, cold_anchor, &mut cold, &mut Counters::new());
        let render = |src: &VirtualSource<'_>, rows: &[rq_common::Const]| -> Vec<String> {
            let mut v: Vec<String> = rows.iter().map(|&c| src.display_const(c)).collect();
            v.sort();
            v
        };
        assert_eq!(render(&repaired_src, &patched), render(&cold_src, &cold));
        assert_eq!(render(&repaired_src, &patched).len(), 2);

        // The parent space is untouched: the old epoch still sees the
        // pre-publish row set.
        let mut old = Vec::new();
        src.successors(in_pred, anchor, &mut old, &mut Counters::new());
        assert_eq!(old, warm);
    }

    #[test]
    fn fork_under_live_readers_patches_only_the_fork() {
        // One thread keeps probing and interning into the parent while
        // the main thread forks, delta-enumerates and patches, again
        // and again: every fork matches a cold recomputation over the
        // new database, and the parent never shows the patched row.
        const OLD: &str = "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,900,ams,1130).\n\
             flight(ams,1200,cdg,1330).\n\
             flight(ams,1300,nce,1430).\n\
             is_deptime(900). is_deptime(1200).";
        let mut program = parse_program(OLD).unwrap();
        let q = Query::parse(&mut program, "cnx(hel, 900, D, AT)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let extended = parse_program(&format!("{OLD}\nis_deptime(1300).")).unwrap();
        assert_eq!(program.preds.len(), extended.preds.len());
        let db_new = Database::from_program(&extended);
        let dep = extended.pred_by_name("is_deptime").unwrap();
        let t1300 = extended.consts.get(&ConstValue::Int(1300)).unwrap();
        let mut delta: FxHashMap<Pred, Relation> = FxHashMap::default();
        delta.insert(dep, Relation::from_rows(1, [&[t1300][..]]));
        let in_pred = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "in-r1")
            .map(|(p, _)| p)
            .unwrap();
        let constant = |name: &str| program.consts.get(&ConstValue::Str(name.into())).unwrap();
        let (hel, ams) = (constant("hel"), constant("ams"));
        let t900 = program.consts.get(&ConstValue::Int(900)).unwrap();

        let space = ProbeSpace::new(&program);
        let src = VirtualSource::with_space(&program, &db, &bin, &space);
        let anchor = src.intern_tuple(vec![hel, t900]);
        let mut warm = Vec::new();
        src.successors(in_pred, anchor, &mut warm, &mut Counters::new());
        let warm = src.decode_tuple(warm[0]);

        let cold_src = VirtualSource::new(&extended, &db_new, &bin);
        let cold_anchor = cold_src.intern_tuple(vec![hel, t900]);
        let mut cold = Vec::new();
        cold_src.successors(in_pred, cold_anchor, &mut cold, &mut Counters::new());
        let mut cold: Vec<Vec<Const>> = cold.iter().map(|&c| cold_src.decode_tuple(c)).collect();
        cold.sort();
        assert_eq!(cold.len(), 2, "the new departure time adds one connection");

        let stop = std::sync::atomic::AtomicBool::new(false);
        let progress = AtomicU32::new(0);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut rounds = 0u32;
                while !stop.load(Ordering::Relaxed) || rounds < 100 {
                    let mut out = Vec::new();
                    src.successors(in_pred, anchor, &mut out, &mut Counters::new());
                    let rows: Vec<Vec<Const>> = out.iter().map(|&c| src.decode_tuple(c)).collect();
                    assert_eq!(rows, vec![warm.clone()], "the parent never shows a patch");
                    // New keys keep the parent's writers busy (of the
                    // wrong width, so their joins match nothing).
                    let fresh = src.intern_tuple(vec![ams, Const(100_000 + rounds), ams]);
                    src.successors(in_pred, fresh, &mut out, &mut Counters::new());
                    src.predecessors(in_pred, fresh, &mut out, &mut Counters::new());
                    rounds += 1;
                    progress.store(rounds, Ordering::Relaxed);
                }
                rounds
            });
            for i in 0..50 {
                // Fork only once the reader is mid-stream.
                while progress.load(Ordering::Relaxed) <= i {
                    std::thread::yield_now();
                }
                let fork = space.fork();
                let mut counters = Counters::new();
                let pairs = delta_pairs(&extended, &db_new, &bin, &fork, &delta, &mut counters)
                    .expect("chain program is delta-enumerable");
                assert_eq!(fork.patch_pairs(in_pred, &pairs[&in_pred]), 1);
                let patched_src = VirtualSource::with_space(&extended, &db_new, &bin, &fork);
                let mut patched = Vec::new();
                let mut c_patched = Counters::new();
                patched_src.successors(in_pred, anchor, &mut patched, &mut c_patched);
                assert_eq!(c_patched.tuples_retrieved, 0, "served from the memo");
                let mut patched: Vec<Vec<Const>> = patched
                    .iter()
                    .map(|&c| patched_src.decode_tuple(c))
                    .collect();
                patched.sort();
                assert_eq!(patched, cold);
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() >= 100);
        });
        let mut old = Vec::new();
        src.successors(in_pred, anchor, &mut old, &mut Counters::new());
        assert_eq!(old.len(), 1);
        assert_eq!(src.decode_tuple(old[0]), warm);
    }

    #[test]
    fn probe_respects_input_constants_mismatch() {
        let mut program = parse_program(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Z), p(Y,Z).\n\
             b0(a,b). b1(a,c).",
        )
        .unwrap();
        let q = Query::parse(&mut program, "p(a, Y)").unwrap();
        let adorned = adorn(&program, &q).unwrap();
        let bin = transform(&program, &adorned);
        let db = Database::from_program(&program);
        let src = VirtualSource::new(&program, &db, &bin);
        // Probe base-r0 (for bin-p^bf) with a key of wrong arity: no
        // results, no panic.
        let base = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "base-r0")
            .map(|(p, _)| p)
            .unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let b = program.consts.get(&ConstValue::Str("b".into())).unwrap();
        let bad = src.intern_tuple(vec![a, b]);
        let mut out = Vec::new();
        let mut counters = Counters::new();
        src.successors(base, bad, &mut out, &mut counters);
        assert!(out.is_empty());
    }
}
