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
//! The tuple interner and the probe memo are one flat table behind one
//! `RwLock` ([`ProbeSpace`]), indexed by tuple id: tuple components sit
//! back to back in one arena, and every (virtual relation, direction)
//! has one dense column of slots, indexed by the probed tuple, pointing
//! into one arena of output tuple ids.  A memo hit is a read lock, two
//! array reads and a copy; a miss runs its join with no lock held and
//! interns and records the result under one short write lock.

use crate::transform::{BinaryProgram, VirtualRel};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, FxHasher, Pred, Rows};
use rq_datalog::{
    fire_seeded, Atom, Database, DeltaView, Literal, Program, Relation, Term, WholeDb,
};
use rq_engine::TupleSource;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// First id handed out for tuple constants.  Tuple ids live in the top
/// half of the `u32` id space so they can never collide with program
/// constants (interned densely from zero), even when a probe space is
/// carried across an epoch whose ingest grew the program interner.
const TUPLE_ID_BASE: u32 = 1 << 31;

/// End of a dedup hash chain ([`FlatTable::chain`]).
const NO_TUPLE: u32 = u32::MAX;

/// One memo entry: `len` output tuple ids at `outputs[start..]`.
#[derive(Clone, Copy)]
struct Slot {
    start: u32,
    len: u32,
}

impl Slot {
    /// A key with no entry.
    const VACANT: Slot = Slot {
        start: u32::MAX,
        len: 0,
    };

    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// The tuple interner and probe memo of one [`ProbeSpace`], as flat
/// vectors indexed by tuple index (`id - TUPLE_ID_BASE`).  Every
/// mutation is append-or-overwrite after its checks, so a panic leaves
/// the table merely smaller, never torn.
#[derive(Clone, Default)]
struct FlatTable {
    /// Every tuple's components, back to back.
    components: Vec<Const>,
    /// Tuple `i` is `components[ends[i - 1]..ends[i]]` (from 0 for the
    /// first).
    ends: Vec<u32>,
    /// Dedup index: a component hash → the newest tuple with that hash.
    heads: FxHashMap<u64, u32>,
    /// Tuple index → the next older tuple with the same hash.
    chain: Vec<u32>,
    /// Memo slots, `[backward, forward]` per virtual predicate index,
    /// each column indexed by the probed tuple's index.
    columns: Vec<[Vec<Slot>; 2]>,
    /// Output tuple ids of every memo entry, back to back.  Stays below
    /// `u32::MAX` long so no slot can look vacant.
    outputs: Vec<Const>,
    /// Recorded memo entries.
    entries: usize,
}

impl FlatTable {
    fn index(c: Const) -> usize {
        c.0.checked_sub(TUPLE_ID_BASE)
            .expect("expected a tuple constant") as usize
    }

    fn tuple(&self, i: usize) -> &[Const] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.components[start as usize..self.ends[i] as usize]
    }

    fn components(&self, c: Const) -> &[Const] {
        self.tuple(Self::index(c))
    }

    fn hash(components: &[Const]) -> u64 {
        let mut h = FxHasher::default();
        components.hash(&mut h);
        h.finish()
    }

    fn lookup(&self, components: &[Const], hash: u64) -> Option<Const> {
        let mut i = *self.heads.get(&hash)?;
        while i != NO_TUPLE {
            if self.tuple(i as usize) == components {
                return Some(Const(TUPLE_ID_BASE + i));
            }
            i = self.chain[i as usize];
        }
        None
    }

    fn intern(&mut self, components: &[Const]) -> Const {
        self.intern_hashed(components, Self::hash(components))
    }

    fn intern_hashed(&mut self, components: &[Const], hash: u64) -> Const {
        if let Some(id) = self.lookup(components, hash) {
            return id;
        }
        let i = u32::try_from(self.chain.len())
            .ok()
            .filter(|&i| i < TUPLE_ID_BASE)
            .expect("tuple table exhausted the id space");
        let end = u32::try_from(self.components.len() + components.len())
            .expect("tuple table exhausted its component arena");
        self.components.extend_from_slice(components);
        self.ends.push(end);
        self.chain
            .push(self.heads.insert(hash, i).unwrap_or(NO_TUPLE));
        Const(TUPLE_ID_BASE + i)
    }

    /// The memo slot of `(r, key, forward)`, if that key has an entry.
    fn slot(&self, r: Pred, key: Const, forward: bool) -> Option<Slot> {
        let column = &self.columns.get(r.index())?[usize::from(forward)];
        let slot = *column.get(Self::index(key))?;
        (slot.start != Slot::VACANT.start).then_some(slot)
    }

    /// The memoized outputs of `(r, key, forward)`.
    fn entry(&self, r: Pred, key: Const, forward: bool) -> Option<&[Const]> {
        self.slot(r, key, forward).map(|s| &self.outputs[s.range()])
    }

    /// The slot of `(r, key, forward)`, growing its column to reach it.
    fn slot_mut(&mut self, r: Pred, key: Const, forward: bool) -> &mut Slot {
        if self.columns.len() <= r.index() {
            self.columns.resize_with(r.index() + 1, Default::default);
        }
        let column = &mut self.columns[r.index()][usize::from(forward)];
        let i = Self::index(key);
        if column.len() <= i {
            column.resize(i + 1, Slot::VACANT);
        }
        &mut column[i]
    }

    /// Whether the output arena can grow by `more` ids.
    fn arena_fits(&self, more: usize) -> bool {
        self.outputs.len() + more < u32::MAX as usize
    }

    /// Record `rows` as the entry of a key that has none, unless the
    /// entry cap (or the arena's `u32` offsets) refuse it.
    fn record(&mut self, r: Pred, key: Const, forward: bool, rows: &[Const], max_entries: usize) {
        if self.entries >= max_entries
            || !self.arena_fits(rows.len())
            || self.slot(r, key, forward).is_some()
        {
            return;
        }
        let start = self.outputs.len() as u32;
        self.outputs.extend_from_slice(rows);
        *self.slot_mut(r, key, forward) = Slot {
            start,
            len: rows.len() as u32,
        };
        self.entries += 1;
    }

    /// Append `row` to the entry of `(r, key, forward)` if the entry
    /// exists and lacks it, moving the entry's range to the end of the
    /// output arena (in place when it already ends there); returns 1 if
    /// a row was added.
    fn patch(&mut self, r: Pred, key: Const, forward: bool, row: Const) -> u64 {
        let Some(slot) = self.slot(r, key, forward) else {
            return 0;
        };
        let range = slot.range();
        if self.outputs[range.clone()].contains(&row) {
            return 0;
        }
        let at_tail = range.end == self.outputs.len();
        if !self.arena_fits(if at_tail { 1 } else { range.len() + 1 }) {
            // Unpatchable: drop the entry, so the key recomputes.
            *self.slot_mut(r, key, forward) = Slot::VACANT;
            self.entries -= 1;
            return 0;
        }
        let start = if at_tail {
            slot.start
        } else {
            let start = self.outputs.len() as u32;
            self.outputs.extend_from_within(range);
            start
        };
        self.outputs.push(row);
        *self.slot_mut(r, key, forward) = Slot {
            start,
            len: slot.len + 1,
        };
        1
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
/// Both halves share one flat table behind one `RwLock` (see the module
/// docs), which is also what makes [`VirtualSource`] `Sync` — a
/// requirement of the engine's parallel machine-instance expansion.
/// No lock is held across a join.  The memo is bounded by an entry
/// cap: once full, further probe results are computed but not recorded
/// — always sound, the memo is only an optimization — so a long-lived
/// epoch cannot grow it without bound.
pub struct ProbeSpace {
    /// Tuple components and memo entries.  Component ids are program
    /// constants; tuple ids start at [`TUPLE_ID_BASE`], above every id
    /// the program interner can reach.
    table: RwLock<FlatTable>,
    /// Entry cap of the memo.
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// results; overflow stops recording (probes still compute).
    pub fn with_capacity(program: &Program, max_entries: usize) -> Self {
        debug_assert!(
            program.consts.len() < TUPLE_ID_BASE as usize,
            "program interner overlaps the tuple id range"
        );
        Self {
            table: RwLock::new(FlatTable::default()),
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Read-lock the table, recovering from poison: the table is never
    /// torn by a panic (see [`FlatTable`]), so serving the remaining
    /// queries of a batch from it is sound.
    fn read(&self) -> RwLockReadGuard<'_, FlatTable> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock the table, recovering from poison (see [`Self::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, FlatTable> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tuple id of `components`, interned on first sight.
    fn intern(&self, components: &[Const]) -> Const {
        let hash = FlatTable::hash(components);
        if let Some(id) = self.read().lookup(components, hash) {
            return id;
        }
        self.write().intern_hashed(components, hash)
    }

    /// Replace `out`'s first `matches` rows of `width` components each
    /// by their tuple ids and record the ids as the entry of
    /// `(r, key, forward)` — one write lock for the whole probe.
    fn settle(
        &self,
        r: Pred,
        key: Const,
        forward: bool,
        width: usize,
        matches: usize,
        out: &mut Vec<Const>,
    ) {
        let mut table = self.write();
        if width == 0 {
            out.clear();
            if matches > 0 {
                out.resize(matches, table.intern(&[]));
            }
        } else {
            // Row `i` starts at `i * width >= i`, so writing id `i`
            // never clobbers a row not yet interned.
            for i in 0..matches {
                out[i] = table.intern(&out[i * width..(i + 1) * width]);
            }
            out.truncate(matches);
        }
        table.record(r, key, forward, out, self.max_entries);
    }

    /// Deep-copy this space: same tuple ids, same memo entries,
    /// independent storage, fresh hit/miss counters.
    ///
    /// The delta-repair path forks the previous epoch's space, patches
    /// the fork against the publish's delta, and hands the fork to the
    /// new epoch: readers of the old epoch keep an untouched space (no
    /// new rows leak into already-published results), while the new
    /// epoch starts from all previously-paid probe and intern work —
    /// with identical tuple ids, so carried machine-memo entries keep
    /// meaning the same tuples.
    pub fn fork(&self) -> Self {
        Self {
            table: RwLock::new(self.read().clone()),
            max_entries: self.max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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
        let mut table = self.write();
        let mut added = 0u64;
        for &(input, output) in pairs {
            added += table.patch(r, input, true, output);
            added += table.patch(r, output, false, input);
        }
        added
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> ProbeStats {
        ProbeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.read().entries,
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
            let mut table = space.write();
            for i in 0..matches {
                let (ins, outs) = rows[i * width..(i + 1) * width].split_at(rel.in_terms.len());
                pairs.push((table.intern(ins), table.intern(outs)));
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
    space: Arc<ProbeSpace>,
    /// The `__domain` predicate, if materialized.
    domain_pred: Option<Pred>,
}

impl<'a> VirtualSource<'a> {
    /// Build a source for a transformed program with a private
    /// [`ProbeSpace`] (per-query memoization only).
    pub fn new(program: &'a Program, db: &'a Database, bin: &'a BinaryProgram) -> Self {
        Self::with_space(program, db, bin, Arc::new(ProbeSpace::new(program)))
    }

    /// Build a source whose probes read and feed a shared
    /// [`ProbeSpace`].  The caller owns the invalidation contract: a
    /// space must only be shared between sources over the **same**
    /// database version and the **same** transformed program.
    pub fn with_space(
        program: &'a Program,
        db: &'a Database,
        bin: &'a BinaryProgram,
        space: Arc<ProbeSpace>,
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
        Self {
            program,
            db,
            virtuals: &bin.virtuals,
            space,
            domain_pred,
        }
    }

    /// Intern a tuple constant.
    pub fn intern_tuple(&self, components: Vec<Const>) -> Const {
        self.space.intern(&components)
    }

    /// Decode a tuple constant into its components.
    pub fn decode_tuple(&self, c: Const) -> Vec<Const> {
        self.space.read().components(c).to_vec()
    }

    /// Decode answer tuple constants of `width` components each into
    /// sorted, deduplicated rows, under one read lock of the table.
    pub fn decode_rows(&self, width: usize, answers: impl IntoIterator<Item = Const>) -> Rows {
        let table = self.space.read();
        let mut rows = Rows::builder(width);
        for c in answers {
            rows.push(table.components(c));
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
    /// A hit copies the entry out under the read lock.  A miss copies
    /// the key's components out, joins with no lock held, then interns
    /// and records under one write lock; a racing thread computing the
    /// same key produces identical outputs (the interner dedups tuple
    /// constants), and whichever records first wins.
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
        let mut key_stack = [Const(0); 32];
        let mut key_heap: Vec<Const> = Vec::new();
        let components: &[Const] = {
            let table = self.space.read();
            if let Some(rows) = table.entry(r, key, forward) {
                out.extend_from_slice(rows);
                self.space.hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let parts = table.components(key);
            if parts.len() <= key_stack.len() {
                key_stack[..parts.len()].copy_from_slice(parts);
                &key_stack[..parts.len()]
            } else {
                key_heap.extend_from_slice(parts);
                &key_heap
            }
        };
        self.space.misses.fetch_add(1, Ordering::Relaxed);
        let rel = &self.virtuals[&r];
        let (bind_terms, emit_terms) = if forward {
            (&rel.in_terms, &rel.out_terms)
        } else {
            (&rel.out_terms, &rel.in_terms)
        };
        let matches = self.join(rel, bind_terms, emit_terms, components, out, counters);
        self.space
            .settle(r, key, forward, emit_terms.len(), matches, out);
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
        let space = std::sync::Arc::new(ProbeSpace::new(&program));
        let base = *bin
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "base-r0")
            .map(|(p, _)| p)
            .unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();

        let first_source = VirtualSource::with_space(&program, &db, &bin, Arc::clone(&space));
        let anchor = first_source.intern_tuple(vec![a]);
        let mut out = Vec::new();
        let mut c1 = Counters::new();
        first_source.successors(base, anchor, &mut out, &mut c1);
        assert!(c1.tuples_retrieved > 0);
        let first = out.clone();
        drop(first_source);

        let second_source = VirtualSource::with_space(&program, &db, &bin, Arc::clone(&space));
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
        let space = Arc::new(ProbeSpace::with_capacity(&program, 1));
        let src = VirtualSource::with_space(&program, &db, &bin, Arc::clone(&space));
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
        let space = Arc::new(ProbeSpace::new(&program));
        let src = VirtualSource::with_space(&program, &db, &bin, Arc::clone(&space));

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
        let fork = Arc::new(fork);
        let repaired_src = VirtualSource::with_space(&extended, &db_new, &bin, Arc::clone(&fork));
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
