//! Epoch-versioned, immutable database snapshots with O(delta) publishes.
//!
//! The store keeps the current [`Snapshot`] behind an `Arc`: readers
//! grab the pointer and traverse it for as long as they like without
//! ever blocking a writer.  Ingestion is copy-on-write over the
//! predicate-sharded persistent storage (`rq_datalog::Database` holds
//! one `Arc`-shared shard per predicate): a writer validates the new
//! facts *first*, then clones the program and database — refcount
//! bumps, not deep copies — applies the delta (which detaches only the
//! shards it touches), and atomically publishes the result as the next
//! epoch.  Untouched shards are [`std::sync::Arc::ptr_eq`]-identical
//! across epochs, so publishing one fact into one relation costs
//! O(delta), no matter how large the rest of the database is.
//!
//! Each snapshot records which predicates its publish **dirtied**; the
//! service layer uses that to keep result-cache entries alive when the
//! predicates their plan reads were untouched.  Old snapshots stay
//! alive until their last reader drops them, so long-running batch
//! queries are never invalidated mid-flight; they simply answer against
//! the epoch they started on.

use crate::context::EpochContext;
use rq_common::{Const, ConstValue, FxHashMap, FxHashSet, Pred};
use rq_datalog::{parse_program, Database, Program};
use std::sync::{Arc, Mutex, RwLock};

/// The typed delta of one publish: per-predicate tuples this epoch
/// **added** relative to its parent (ingests are monotone — facts are
/// only ever added — so additions are the whole delta).
///
/// Duplicate facts never reach the delta: `apply_validated` skips
/// them before the database insert, so a recorded row is guaranteed to
/// be new in this epoch.  Constants are interned in this epoch's
/// program (ids are stable across epochs).
#[derive(Clone, Debug, Default)]
pub struct Delta {
    added: FxHashMap<Pred, Vec<Vec<Const>>>,
    /// The same rows in **original insertion order** across predicates.
    /// The write-ahead log serializes this list: replaying it re-interns
    /// every new constant and predicate at exactly the position the
    /// original ingest did, which is what makes recovered services
    /// answer byte-identically (answer rows sort by interned id).
    ordered: Vec<(Pred, Vec<Const>)>,
}

impl Delta {
    /// Record one genuinely-new row (both the per-predicate group and
    /// the cross-predicate insertion order).
    fn push(&mut self, pred: Pred, row: Vec<Const>) {
        self.added.entry(pred).or_default().push(row.clone());
        self.ordered.push((pred, row));
    }

    /// Whether the publish added nothing (duplicate-only ingest).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
    }

    /// Every `(predicate, added tuples)` group of the publish.
    pub fn added(&self) -> &FxHashMap<Pred, Vec<Vec<Const>>> {
        &self.added
    }

    /// The tuples added to one predicate, if any.
    pub fn rows(&self, pred: Pred) -> Option<&[Vec<Const>]> {
        self.added.get(&pred).map(Vec::as_slice)
    }

    /// Every added row in original insertion order — the write-ahead
    /// log's view of the publish.
    pub fn ordered_rows(&self) -> &[(Pred, Vec<Const>)] {
        &self.ordered
    }

    /// Total tuples added across all predicates.
    pub fn total_rows(&self) -> usize {
        self.ordered.len()
    }
}

/// One immutable version of the served database.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    rules_fingerprint: u64,
    program: Program,
    db: Database,
    /// Predicates whose shard this epoch replaced (relative to its
    /// parent).  Epoch 0 reports every predicate dirty.
    dirty: FxHashSet<Pred>,
    /// The tuples this publish added, per predicate — what the delta
    /// repair path propagates through warm memos.  Empty at epoch 0
    /// (the initial load is the baseline, not a delta).
    delta: Delta,
    /// The epoch's evaluation context: traversal/probe memos shared by
    /// every query of this epoch, invalidated wholesale by the next
    /// publish (each snapshot owns a fresh context).
    context: EpochContext,
    /// How many shards this publish built a compact store (columnar
    /// buffers + CSR adjacency) for.  Clean shards carry their store
    /// from the parent epoch and cost nothing here.
    csr_builds: usize,
    /// Wall time the publish spent building those stores.
    csr_build_time: std::time::Duration,
}

impl Snapshot {
    fn new(
        epoch: u64,
        program: Program,
        db: Database,
        dirty: FxHashSet<Pred>,
        delta: Delta,
    ) -> Self {
        // Dirty shards dropped their compact store on mutation and
        // rebuild it here; clean shards still hold the parent epoch's
        // store via the copy-on-write clone, so the cost is O(dirty
        // data).
        let build_start = std::time::Instant::now();
        let csr_builds = db.build_compact_stores();
        let csr_build_time = build_start.elapsed();
        // CSR or trie, never both: only a binary shard whose store has
        // no adjacency (ids too sparse) gets its two trie indexes built
        // here, so readers still never contend on index construction.
        db.prewarm_binary_indexes();
        let rules_fingerprint = crate::plan::rules_fingerprint(&program);
        Self {
            epoch,
            rules_fingerprint,
            program,
            db,
            dirty,
            delta,
            context: EpochContext::new(),
            csr_builds,
            csr_build_time,
        }
    }

    /// The snapshot's version number; epoch `n + 1` supersedes `n`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hash of the rules and their predicate-id binding (not the facts),
    /// computed once at publication — the plan-cache key component.
    pub fn rules_fingerprint(&self) -> u64 {
        self.rules_fingerprint
    }

    /// The program (rules + interners) of this version.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The extensional database of this version.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Predicates whose shard changed between the parent epoch and this
    /// one — the unit of per-predicate cache invalidation.  A result
    /// whose plan reads none of these survives the publish.
    pub fn dirty_preds(&self) -> &FxHashSet<Pred> {
        &self.dirty
    }

    /// The tuples this publish added, per predicate.  Empty at epoch 0
    /// and after duplicate-only ingests.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// The epoch's evaluation context (see [`EpochContext`]): memos
    /// every query of this epoch may share, dead with the snapshot.
    pub fn context(&self) -> &EpochContext {
        &self.context
    }

    /// How many compact stores this publish built (dirty shards only).
    pub fn csr_builds(&self) -> usize {
        self.csr_builds
    }

    /// Wall time this publish spent building compact stores.
    pub fn csr_build_time(&self) -> std::time::Duration {
        self.csr_build_time
    }
}

/// Errors from [`SnapshotStore::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The fact text did not parse.
    Parse(String),
    /// The text contained rules; the rule set is fixed at service start.
    RulesNotAllowed,
    /// A fact targets a derived predicate.
    DerivedPredicate(String),
    /// A fact uses an existing predicate at a different arity.
    ArityMismatch {
        /// The predicate name.
        pred: String,
        /// Arity already registered.
        expected: usize,
        /// Arity in the ingested fact.
        got: usize,
    },
    /// The durability hook (write-ahead log append) failed, so the
    /// publish was aborted: the epoch was **not** bumped and no reader
    /// ever saw the batch.
    Durability(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Parse(e) => write!(f, "cannot parse facts: {e}"),
            IngestError::RulesNotAllowed => {
                write!(
                    f,
                    "ingest accepts facts only; rules are fixed at service start"
                )
            }
            IngestError::DerivedPredicate(p) => {
                write!(f, "cannot ingest facts for derived predicate `{p}`")
            }
            IngestError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "fact for `{pred}` has arity {got}, but `{pred}` has arity {expected}"
            ),
            IngestError::Durability(e) => {
                write!(f, "cannot persist ingest (publish aborted): {e}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The store: the current snapshot plus a writer lock.
///
/// Readers call [`SnapshotStore::snapshot`] (a lock-free-in-spirit
/// `Arc` clone under a read lock held for nanoseconds).  Writers
/// serialize on a separate mutex so two concurrent ingests cannot both
/// base their copy on the same parent and lose one of the updates.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Open a store at epoch 0 with the program's facts as the EDB.
    pub fn new(program: Program) -> Self {
        Self::with_restored(program, 0)
    }

    /// Open a store whose first snapshot is a **recovered** epoch: the
    /// program already carries every fact up to `epoch` (checkpoint
    /// restore re-extends the interners and fact list).  Like epoch 0,
    /// every predicate reports dirty and the delta is empty — there is
    /// no parent epoch to be clean against.
    pub fn with_restored(program: Program, epoch: u64) -> Self {
        let mut db = Database::from_program(&program);
        let dirty: FxHashSet<Pred> = program.preds.ids().collect();
        // The first snapshot owns every shard uniquely: trim the
        // tail-chunk over-allocation the initial load left behind.
        db.compact_shards(dirty.iter().copied());
        let first = Snapshot::new(epoch, program, db, dirty, Delta::default());
        Self {
            current: RwLock::new(Arc::new(first)),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot.  Cheap; never blocks on writers for longer
    /// than the pointer swap.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    /// Copy-on-write ingestion: parse `facts_text` (fact clauses only,
    /// e.g. `e(a,b). e(b,c).`), apply them to a persistent clone of the
    /// current version, and publish the clone as the next epoch.
    /// Returns the new snapshot.  Concurrent readers keep whatever
    /// snapshot they already hold.
    ///
    /// Validation runs **before** anything is cloned: a batch that
    /// fails to parse, smuggles rules, or conflicts with the schema is
    /// rejected without paying any copy at all.
    pub fn ingest(&self, facts_text: &str) -> Result<Arc<Snapshot>, IngestError> {
        self.ingest_with(facts_text, |_| Ok(()))
    }

    /// [`SnapshotStore::ingest`] with a durability hook: `pre_publish`
    /// runs on the fully-built next snapshot **before** the pointer
    /// swap makes it visible.  The write-ahead log appends here — if
    /// the append fails the publish is aborted, the epoch does not
    /// move, and no reader ever observed the batch (no acknowledged
    /// epoch can be missing from the log).
    pub fn ingest_with(
        &self,
        facts_text: &str,
        pre_publish: impl FnOnce(&Snapshot) -> Result<(), IngestError>,
    ) -> Result<Arc<Snapshot>, IngestError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        let parsed = {
            let _validate = rq_common::obs::span("ingest.validate");
            validate_facts(&base.program, facts_text)?
        };
        let (program, mut db, dirty, delta) = {
            let _apply = rq_common::obs::span("ingest.apply");
            // Persistent clones: per-shard/per-chunk refcount bumps.
            let mut program = base.program.clone();
            let mut db = base.db.clone();
            let (dirty, delta) = apply_validated(&mut program, &mut db, &parsed);
            (program, db, dirty, delta)
        };
        {
            let _compact = rq_common::obs::span("ingest.compact");
            // Publish-time compaction (first slice of background shard
            // compaction): the dirty shards just detached copy-on-write,
            // so their tail chunks — carrying the capacity the detach
            // over-allocated, now fully shadowed by the live prefix —
            // are uniquely owned and shrink in place.  Clean shards stay
            // pointer-shared with the parent epoch and are never
            // touched.
            db.compact_shards(dirty.iter().copied());
        }
        self.publish(&base, program, db, dirty, delta, pre_publish)
    }

    /// Re-apply one recovered write-ahead-log record: the rows of a
    /// crashed service's publish, in original insertion order, as
    /// `(pred name, arity, constant values)`.  Interning value-by-value
    /// in that order reproduces the original interner ids exactly, so
    /// the replayed epoch is structurally identical to the lost one —
    /// same ids, same fact order.  Rows are values (not ids) precisely
    /// so this holds on a fresh process.
    ///
    /// Publishes `current epoch + 1`; the caller aligns record epochs.
    pub fn replay_rows(
        &self,
        rows: &[(String, usize, Vec<ConstValue>)],
    ) -> Result<Arc<Snapshot>, IngestError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        let mut program = base.program.clone();
        let mut db = base.db.clone();
        let mut dirty = FxHashSet::default();
        let mut delta = Delta::default();
        for (name, arity, values) in rows {
            // The same schema checks `validate_facts` ran on the
            // original batch — a log that fails them is corrupt.
            check_schema(&program, name, *arity)?;
            let values = values.iter().cloned();
            apply_fact(&mut program, &mut db, &mut dirty, &mut delta, name, values);
        }
        db.compact_shards(dirty.iter().copied());
        self.publish(&base, program, db, dirty, delta, |_| Ok(()))
    }

    /// The shared publish tail: snapshot construction, the pre-publish
    /// hook, and the pointer swap.
    fn publish(
        &self,
        base: &Snapshot,
        program: Program,
        db: Database,
        dirty: FxHashSet<Pred>,
        delta: Delta,
        pre_publish: impl FnOnce(&Snapshot) -> Result<(), IngestError>,
    ) -> Result<Arc<Snapshot>, IngestError> {
        let next = Arc::new(Snapshot::new(base.epoch + 1, program, db, dirty, delta));
        pre_publish(&next)?;
        *self.current.write().expect("snapshot lock poisoned") = Arc::clone(&next);
        Ok(next)
    }
}

/// Parse `text` with the ordinary Datalog parser and check every fact
/// against `program`'s schema, **without mutating or cloning anything**.
/// Returns the parsed batch for [`apply_validated`].
fn validate_facts(program: &Program, text: &str) -> Result<Program, IngestError> {
    let parsed = parse_program(text).map_err(|e| IngestError::Parse(e.to_string()))?;
    if !parsed.rules.is_empty() {
        return Err(IngestError::RulesNotAllowed);
    }
    for (pred, _) in &parsed.facts {
        check_schema(program, parsed.pred_name(*pred), parsed.arity(*pred))?;
    }
    Ok(parsed)
}

/// A fact for `name` at `arity` must not target a derived predicate or
/// contradict an arity `program` already registered.
fn check_schema(program: &Program, name: &str, arity: usize) -> Result<(), IngestError> {
    let Some(existing) = program.pred_by_name(name) else {
        return Ok(());
    };
    if program.is_derived(existing) {
        return Err(IngestError::DerivedPredicate(name.to_string()));
    }
    if program.arity(existing) != arity {
        return Err(IngestError::ArityMismatch {
            pred: name.to_string(),
            expected: program.arity(existing),
            got: arity,
        });
    }
    Ok(())
}

/// Merge a validated fact batch into `program`/`db`, translating
/// interned ids across programs.  Returns the set of predicates whose
/// shard was actually touched plus the typed [`Delta`] of genuinely new
/// tuples.
fn apply_validated(
    program: &mut Program,
    db: &mut Database,
    parsed: &Program,
) -> (FxHashSet<Pred>, Delta) {
    let mut dirty = FxHashSet::default();
    let mut delta = Delta::default();
    for (pred, tuple) in &parsed.facts {
        let values = tuple.iter().map(|&c| parsed.consts.value(c).clone());
        let name = parsed.pred_name(*pred);
        apply_fact(program, db, &mut dirty, &mut delta, name, values);
    }
    (dirty, delta)
}

/// Apply one schema-checked fact — the step live ingest and log replay
/// share, so a replayed epoch interns its predicate and values in
/// exactly the order the original did.  Duplicate facts are skipped
/// *before* reaching the database so they cannot detach an
/// otherwise-clean shard from its parent epoch — and never reach the
/// delta either.
fn apply_fact(
    program: &mut Program,
    db: &mut Database,
    dirty: &mut FxHashSet<Pred>,
    delta: &mut Delta,
    name: &str,
    values: impl ExactSizeIterator<Item = ConstValue>,
) {
    let arity = values.len();
    let fresh_pred = program.pred_by_name(name).is_none();
    let target = program.pred(name, arity);
    let mapped: Vec<Const> = values.map(|v| program.consts.intern(v)).collect();
    if fresh_pred {
        db.ensure_pred(target, arity);
        dirty.insert(target);
    }
    if !db.contains(target, &mapped) {
        db.insert(target, &mapped);
        delta.push(target, mapped.clone());
        program.add_fact(target, mapped);
        dirty.insert(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::ConstValue;
    use std::sync::Arc;

    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c).";

    fn store() -> SnapshotStore {
        SnapshotStore::new(parse_program(TC).unwrap())
    }

    #[test]
    fn ingest_bumps_epoch_and_preserves_old_snapshots() {
        let store = store();
        let before = store.snapshot();
        assert_eq!(before.epoch(), 0);
        let after = store.ingest("e(c,d).").unwrap();
        assert_eq!(after.epoch(), 1);
        // The old snapshot is untouched.
        let e = before.program().pred_by_name("e").unwrap();
        assert_eq!(before.db().relation(e).len(), 2);
        assert_eq!(after.db().relation(e).len(), 3);
        assert_eq!(store.snapshot().epoch(), 1);
    }

    #[test]
    fn ingest_shares_untouched_shards_with_the_parent_epoch() {
        let store = SnapshotStore::new(
            parse_program(
                "tc(X,Y) :- e(X,Y).\n\
                 tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                 e(a,b). f(a,b). g(a,b). h(a,b).",
            )
            .unwrap(),
        );
        let before = store.snapshot();
        let after = store.ingest("e(b,c).").unwrap();
        let pred = |n: &str| before.program().pred_by_name(n).unwrap();
        // The dirty shard was replaced...
        assert!(!Arc::ptr_eq(
            before.db().shard(pred("e")).unwrap(),
            after.db().shard(pred("e")).unwrap()
        ));
        // ...every other shard is pointer-identical across the epochs.
        for name in ["f", "g", "h", "tc"] {
            assert!(
                Arc::ptr_eq(
                    before.db().shard(pred(name)).unwrap(),
                    after.db().shard(pred(name)).unwrap()
                ),
                "shard `{name}` must be shared across epochs"
            );
        }
        assert_eq!(
            after.dirty_preds().iter().copied().collect::<Vec<_>>(),
            vec![pred("e")]
        );
    }

    #[test]
    fn duplicate_only_ingest_leaves_every_shard_shared() {
        let store = store();
        let before = store.snapshot();
        let after = store.ingest("e(a,b).").unwrap();
        let e = before.program().pred_by_name("e").unwrap();
        // The fact already existed: even the target shard stays shared
        // and nothing is marked dirty.
        assert!(Arc::ptr_eq(
            before.db().shard(e).unwrap(),
            after.db().shard(e).unwrap()
        ));
        assert!(after.dirty_preds().is_empty());
        assert_eq!(after.epoch(), 1);
    }

    #[test]
    fn warm_indexes_survive_epoch_publication() {
        let store = store();
        let before = store.snapshot();
        let e = before.program().pred_by_name("e").unwrap();
        // A CSR serves this shard's probes, so publication built no
        // trie for it; warm both by hand.
        let shard = before.db().relation(e);
        assert!(shard.compact_store().unwrap().first_column().is_some());
        assert!(!shard.has_index(rq_datalog::mask_of([0])));
        shard.build_index(rq_datalog::mask_of([0]));
        shard.build_index(rq_datalog::mask_of([1]));
        let after = store.ingest("e(c,d). x(p,q).").unwrap();
        // The dirty shard detached but kept its warm indexes (persistent
        // index maps travel with the clone).
        assert!(after.db().relation(e).has_index(rq_datalog::mask_of([0])));
        assert!(after.db().relation(e).has_index(rq_datalog::mask_of([1])));
        let mut out = Vec::new();
        let c = after
            .program()
            .consts
            .get(&ConstValue::Str("c".into()))
            .unwrap();
        after
            .db()
            .relation(e)
            .lookup(rq_datalog::mask_of([0]), &[c], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn publication_builds_tries_only_for_binary_shards_without_a_csr() {
        // `far` holds one tuple over ids past 1,200: too sparse for an
        // offset table, so its store carries no CSR.
        let mut src = String::from(TC);
        for i in 0..1200 {
            src.push_str(&format!(" pad(p{i})."));
        }
        src.push_str(" far(p1198, p1199).");
        let store = SnapshotStore::new(parse_program(&src).unwrap());
        let snap = store.snapshot();
        let pred = |n: &str| snap.program().pred_by_name(n).unwrap();
        let (e, far) = (
            snap.db().relation(pred("e")),
            snap.db().relation(pred("far")),
        );
        let csr =
            |rel: &rq_datalog::Relation| rel.compact_store().unwrap().first_column().is_some();
        assert!(csr(e) && !csr(far));
        for col in [0, 1] {
            let mask = rq_datalog::mask_of([col]);
            assert!(!e.has_index(mask), "CSR rows serve `e`: no trie");
            assert!(far.has_index(mask), "no CSR: readers find the trie built");
        }
        // A dirty sparse shard is prewarmed again; a dirty dense one
        // still is not.
        let after = store.ingest("far(p0, p1199). e(c,a).").unwrap();
        let mask = rq_datalog::mask_of([1]);
        assert!(after.db().relation(pred("far")).has_index(mask));
        assert!(!after.db().relation(pred("e")).has_index(mask));
    }

    #[test]
    fn compact_stores_survive_epoch_publication_on_clean_shards() {
        let store = SnapshotStore::new(
            parse_program(
                "tc(X,Y) :- e(X,Y).\n\
                 tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                 e(a,b). f(a,b).",
            )
            .unwrap(),
        );
        let before = store.snapshot();
        let pred = |n: &str| before.program().pred_by_name(n).unwrap();
        // Epoch 0 builds stores for every shard — both base relations
        // plus the (empty) derived `tc` shard.
        assert_eq!(before.csr_builds(), 3);
        assert!(before.db().relation(pred("e")).has_compact());
        let after = store.ingest("e(b,c).").unwrap();
        // Only the dirty shard rebuilt; `f` kept its store through the
        // copy-on-write clone.
        assert_eq!(after.csr_builds(), 1);
        assert!(after.db().relation(pred("e")).has_compact());
        assert!(after.db().relation(pred("f")).has_compact());
        // The rebuilt store answers over the post-ingest extension.
        let b = after
            .program()
            .consts
            .get(&ConstValue::Str("b".into()))
            .unwrap();
        let succ = after
            .db()
            .relation(pred("e"))
            .compact_store()
            .unwrap()
            .successors(b)
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        assert_eq!(succ.len(), 1, "e(b,c) is visible through the new CSR");
    }

    #[test]
    fn interned_ids_are_stable_across_epochs() {
        let store = store();
        let before = store.snapshot();
        let after = store.ingest("e(d,a). e(a,z9).").unwrap();
        let a_before = before.program().consts.get(&ConstValue::Str("a".into()));
        let a_after = after.program().consts.get(&ConstValue::Str("a".into()));
        assert_eq!(a_before, a_after);
        assert!(after
            .program()
            .consts
            .get(&ConstValue::Str("z9".into()))
            .is_some());
        assert_eq!(
            before.program().pred_by_name("e"),
            after.program().pred_by_name("e")
        );
    }

    #[test]
    fn ingest_new_predicate_and_integers() {
        let store = store();
        let snap = store.ingest("weight(a, 10). weight(b, 20).").unwrap();
        let w = snap.program().pred_by_name("weight").unwrap();
        assert_eq!(snap.db().relation(w).len(), 2);
        assert!(snap.program().consts.get(&ConstValue::Int(10)).is_some());
        assert!(snap.dirty_preds().contains(&w));
    }

    #[test]
    fn ingest_rejects_rules_derived_heads_and_arity_conflicts() {
        let store = store();
        assert_eq!(
            store.ingest("p(X,Y) :- e(X,Y).").err(),
            Some(IngestError::RulesNotAllowed)
        );
        assert_eq!(
            store.ingest("tc(a,b).").err(),
            Some(IngestError::DerivedPredicate("tc".into()))
        );
        assert!(matches!(
            store.ingest("e(a,b,c)."),
            Err(IngestError::ArityMismatch { .. })
        ));
        assert!(matches!(store.ingest("e(a,"), Err(IngestError::Parse(_))));
        // Failed ingests publish nothing.
        assert_eq!(store.snapshot().epoch(), 0);
    }

    #[test]
    fn rejected_batches_are_atomic_even_mid_batch() {
        // The bad clause arrives after a good one; validation runs over
        // the whole batch before anything is applied, so the good fact
        // must not leak into a published epoch.
        let store = store();
        assert!(store.ingest("e(y1,y2). tc(a,b).").is_err());
        assert_eq!(store.snapshot().epoch(), 0);
        assert!(store
            .snapshot()
            .program()
            .consts
            .get(&ConstValue::Str("y1".into()))
            .is_none());
    }

    #[test]
    fn delta_records_only_genuinely_new_tuples() {
        let store = store();
        assert!(store.snapshot().delta().is_empty(), "epoch 0 is baseline");
        // One duplicate, one new fact: only the new row reaches the delta.
        let snap = store.ingest("e(a,b). e(c,d).").unwrap();
        let e = snap.program().pred_by_name("e").unwrap();
        let rows = snap.delta().rows(e).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(snap.delta().total_rows(), 1);
        let c = snap.program().consts.get(&ConstValue::Str("c".into()));
        assert_eq!(rows[0][0], c.unwrap());
        // Duplicate-only ingest: empty delta.
        let snap = store.ingest("e(a,b).").unwrap();
        assert!(snap.delta().is_empty());
        assert!(snap.delta().rows(e).is_none());
    }

    #[test]
    fn rules_fingerprint_survives_fact_ingest() {
        let store = store();
        let before = store.snapshot();
        let after = store.ingest("e(c,d). extra(a,b).").unwrap();
        assert_eq!(before.rules_fingerprint(), after.rules_fingerprint());
    }
}
