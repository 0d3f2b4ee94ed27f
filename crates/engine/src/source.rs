//! The tuple-retrieval interface between the traversal engine and the
//! extensional database.
//!
//! The paper's algorithm consults base relations in exactly two ways:
//! "for any transition q --r--> q' and any term v such that r(u,v) is
//! true" (successors of `u`), and the symmetric direction for inverted
//! expressions.  Keeping this behind a trait lets the same engine run
//! over raw EDB relations *and* over §4's virtual `base-r`/`in-r`/`out-r`
//! relations, whose tuples are computed on demand by joining the original
//! database — the paper's "tuples will only be retrieved by demand".

use rq_common::{Const, Counters, Pred};
use rq_datalog::{mask_of, CompactStore, Database, Relation};
use std::sync::Arc;

/// Demand-driven access to binary relations.
///
/// `Sync` is a supertrait: a traversal runs on the thread that asked,
/// but the serving layer's wire workers answer concurrently over one
/// snapshot, sharing its sources' state — the EDB, and the §4 virtual
/// relations' probe memo, which every worker's `VirtualSource` over
/// one plan reads and feeds.  Sources needing interior mutability must
/// use atomics or locks, not `Cell`/`RefCell`.
pub trait TupleSource: Sync {
    /// Every `v` with `r(u, v)`, borrowed: the source's own row where
    /// it stores one contiguously (a CSR row is iterated in place,
    /// never copied), and otherwise `buf`, cleared and filled.  `buf`
    /// is scratch — only the returned slice is the answer.
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const];

    /// Every `u` with `r(u, v)`, borrowed like [`Self::successors`].
    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const];

    /// Append every constant in the first column of `r` (deduplicated).
    /// Used to seed all-pairs (`p(X,Y)`) queries.
    fn first_column(&self, r: Pred, out: &mut Vec<Const>);
}

/// A [`TupleSource`] reading binary relations straight from a [`Database`].
///
/// All reads go through *shard views* (`EdbSource::shard`): the
/// database hands out per-predicate `Arc`-shared [`Relation`] shards,
/// so a source over an epoch snapshot reads exactly the shard versions
/// that epoch published — including their warm indexes, which persist
/// across epochs for every untouched shard.  The traversal itself is
/// oblivious to the sharding; behavior matches a monolithic database.
pub struct EdbSource<'a> {
    db: &'a Database,
    /// Per-predicate compact stores pinned at construction (one `Arc`
    /// bump each).  Probes read CSR slices through these without
    /// touching the shard's locks; predicates whose shard has no store
    /// (mutated since the last publish, or never published) fall back
    /// to the trie-index path.
    compact: Vec<Option<Arc<CompactStore>>>,
}

impl<'a> EdbSource<'a> {
    /// Wrap a database.
    pub fn new(db: &'a Database) -> Self {
        let compact = (0..db.num_preds())
            .map(|i| db.relation(Pred::from_index(i)).compact_store())
            .collect();
        Self { db, compact }
    }

    /// The wrapped database.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// The shard view for `r` — the relation version this source's
    /// snapshot pinned.
    #[inline]
    fn shard(&self, r: Pred) -> &Relation {
        self.db.relation(r)
    }

    /// The pinned compact store for `r`, if its shard had one.
    #[inline]
    fn store(&self, r: Pred) -> Option<&CompactStore> {
        self.compact.get(r.index()).and_then(|s| s.as_deref())
    }

    /// One probe with column `bound` fixed to `key`: the CSR `row` if
    /// the shard has one, else the trie index's matches copied into
    /// `buf`.
    #[inline]
    fn probe<'s>(
        &'s self,
        r: Pred,
        row: Option<&'s [Const]>,
        bound: usize,
        key: Const,
        buf: &'s mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'s [Const] {
        counters.index_probes += 1;
        if let Some(row) = row {
            counters.csr_probes += 1;
            counters.tuples_retrieved += row.len() as u64;
            return row;
        }
        let rel = self.shard(r);
        debug_assert_eq!(rel.arity(), 2, "engine relations are binary");
        counters.trie_probes += 1;
        let mut ords = Vec::new();
        rel.lookup(mask_of([bound]), &[key], &mut ords);
        counters.tuples_retrieved += ords.len() as u64;
        buf.clear();
        buf.extend(ords.iter().map(|&o| rel.tuple(o)[1 - bound]));
        buf
    }
}

impl TupleSource for EdbSource<'_> {
    fn successors<'a>(
        &'a self,
        r: Pred,
        u: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        let row = self.store(r).and_then(|s| s.successors(u));
        self.probe(r, row, 0, u, buf, counters)
    }

    fn predecessors<'a>(
        &'a self,
        r: Pred,
        v: Const,
        buf: &'a mut Vec<Const>,
        counters: &mut Counters,
    ) -> &'a [Const] {
        let row = self.store(r).and_then(|s| s.predecessors(v));
        self.probe(r, row, 1, v, buf, counters)
    }

    fn first_column(&self, r: Pred, out: &mut Vec<Const>) {
        if let Some(sources) = self.store(r).and_then(|s| s.first_column()) {
            out.extend_from_slice(sources);
            return;
        }
        let rel = self.shard(r);
        let mut seen = rq_common::FxHashSet::default();
        for t in rel.iter() {
            if seen.insert(t[0]) {
                out.push(t[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    #[test]
    fn edb_source_directions() {
        let p = parse_program("e(a,b). e(a,c). e(d,b).").unwrap();
        let db = Database::from_program(&p);
        let e = p.pred_by_name("e").unwrap();
        let a = p
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let b = p
            .consts
            .get(&rq_common::ConstValue::Str("b".into()))
            .unwrap();
        let src = EdbSource::new(&db);
        let mut counters = Counters::new();
        let mut out = Vec::new();
        assert_eq!(src.successors(e, a, &mut out, &mut counters).len(), 2);
        assert_eq!(src.predecessors(e, b, &mut out, &mut counters).len(), 2);
        assert_eq!(counters.index_probes, 2);
        assert_eq!(counters.tuples_retrieved, 4);
        out.clear();
        src.first_column(e, &mut out);
        assert_eq!(out.len(), 2); // {a, d}
    }

    #[test]
    fn csr_probes_match_trie_probes_and_counter_totals() {
        let p = parse_program("e(a,b). e(a,c). e(d,b).").unwrap();
        let trie_db = Database::from_program(&p);
        let csr_db = Database::from_program(&p);
        assert!(csr_db.build_compact_stores() > 0);
        let e = p.pred_by_name("e").unwrap();
        let trie = EdbSource::new(&trie_db);
        let csr = EdbSource::new(&csr_db);
        for c in 0..p.consts.len() {
            let x = Const::from_index(c);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let (mut ca, mut cb) = (Counters::new(), Counters::new());
            assert_eq!(
                trie.successors(e, x, &mut a, &mut ca),
                csr.successors(e, x, &mut b, &mut cb)
            );
            assert!(b.is_empty(), "a CSR row is borrowed, never copied");
            assert_eq!(
                trie.predecessors(e, x, &mut a, &mut ca),
                csr.predecessors(e, x, &mut b, &mut cb)
            );
            // Identical probe/tuple charges; only the csr/trie split
            // differs between the two paths.
            assert_eq!(ca.index_probes, cb.index_probes);
            assert_eq!(ca.tuples_retrieved, cb.tuples_retrieved);
            assert_eq!(ca.csr_probes, 0);
            assert_eq!(cb.trie_probes, 0);
            assert_eq!(cb.csr_probes, cb.index_probes);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        trie.first_column(e, &mut a);
        csr.first_column(e, &mut b);
        assert_eq!(a, b, "first-seen order matches the scan path");
    }

    #[test]
    fn sources_over_shared_snapshots_answer_independently() {
        // Two database versions sharing every untouched shard: sources
        // over each must answer from their own pinned shard views.
        let p = parse_program("e(a,b). f(a,c).").unwrap();
        let db = Database::from_program(&p);
        let e = p.pred_by_name("e").unwrap();
        let f = p.pred_by_name("f").unwrap();
        let a = p
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let mut next = db.clone();
        next.insert(e, &[a, a]);
        // `f` is untouched: both versions read the *same* shard.
        assert!(std::sync::Arc::ptr_eq(
            db.shard(f).unwrap(),
            next.shard(f).unwrap()
        ));
        let mut counters = Counters::new();
        let mut out = Vec::new();
        let old = EdbSource::new(&db);
        let seen = old.successors(e, a, &mut out, &mut counters).len();
        assert_eq!(seen, 1, "old snapshot sees the old shard");
        let new = EdbSource::new(&next);
        let seen = new.successors(e, a, &mut out, &mut counters).len();
        assert_eq!(seen, 2, "new snapshot sees the delta");
    }
}
