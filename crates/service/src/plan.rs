//! The plan cache: memoized compilation for both serving pipelines.
//!
//! Compiling a program (Arden elimination + position machines for the
//! §3 binary-chain path; adornment + the §4 binding-propagating
//! transformation + elimination + machines for n-ary queries) is work
//! proportional to the rule set, not to the data — exactly the kind of
//! work that should happen once per program, not once per query.  A
//! service serves one rule set for its whole lifetime (ingestion
//! refuses rules), so nothing here is keyed by program:
//!
//! * the §3 chain plan is one [`ProgramPlan`], compiled on first use,
//!   since Lemma 1 eliminates the whole equation system at once and the
//!   [`CompiledPlan`] holds both machine orientations — every binary
//!   `(pred, adornment)` shares it;
//! * each §4 `(pred, adornment)` holds its own [`NaryPlan`] — the
//!   transformation genuinely depends on the adornment (which positions
//!   are bound decides the before/after split), though never on the
//!   bound values.
//!
//! Plans speak in `Pred` ids, which ingestion never reassigns, and
//! never in facts — so fact ingestion never invalidates a plan.

use crate::spec::Adornment;
use rq_adorn::{plan_nary_query, NaryPlan, QueryError};
use rq_common::obs::Counter;
use rq_common::{FxHashMap, FxHasher, Pred};
use rq_datalog::{display_rule, Program};
use rq_engine::CompiledPlan;
use rq_relalg::{lemma1, EqSystem, Lemma1Error, Lemma1Options};
use std::hash::Hasher;
use std::sync::{Arc, OnceLock, RwLock};

use crate::snapshot::Snapshot;

/// Everything compiled from one binary-chain program: the Lemma 1
/// equation system and the machines (both orientations).
pub struct ProgramPlan {
    /// The final equation system of Lemma 1.
    pub system: EqSystem,
    /// Compiled machines for every derived predicate, both orientations.
    pub compiled: CompiledPlan,
}

impl ProgramPlan {
    /// Every predicate a query rooted at `pred` can read — the
    /// cache-invalidation footprint: a published epoch whose dirty
    /// shards are disjoint from this set cannot change any answer of a
    /// `pred` query.
    pub fn read_set(&self, pred: Pred) -> rq_common::FxHashSet<Pred> {
        self.system.read_set(pred)
    }
}

/// Hash the rule set and its predicate-id binding.  Facts are excluded
/// on purpose: plans survive ingestion.  Predicate ids are included
/// because compiled expressions refer to predicates by id, so the same
/// rule *text* under a different id assignment is a different plan.
///
/// The value is written into every checkpoint and WAL record and
/// compared on recovery, so it must never change for a given program:
/// it is the raw Fx mix state, undoing the rotation
/// [`FxHasher::finish`] applies, which keeps every existing data
/// directory recoverable.
pub fn rules_fingerprint(program: &Program) -> u64 {
    let mut h = FxHasher::default();
    for rule in &program.rules {
        h.write(display_rule(program, rule).as_bytes());
        h.write_u32(rule.head.pred.0);
        for atom in rule.body_atoms() {
            h.write_u32(atom.pred.0);
        }
    }
    h.finish().rotate_right(26)
}

/// Hit/miss counts of the plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when idle).  Saturating:
    /// counters near the top of their range degrade gracefully instead
    /// of wrapping into a nonsense rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A §4 compilation, or its cached failure.
type NaryOutcome = Result<Arc<NaryPlan>, QueryError>;

/// Thread-safe memoization of one service's compiled plans.  Failures
/// are cached too: the rule set is fixed for a service's lifetime, so
/// a program that fails Lemma 1 (or a `(pred, adornment)` that fails
/// adornment or the chain condition) fails deterministically and must
/// not re-run the whole pipeline on every query.
///
/// Every evaluation that consults the cache counts exactly one hit or
/// one miss, and a miss means it compiled a plan.  A chain lookup that
/// finds the program outside the binary-chain class counts nothing:
/// the evaluation falls through to its §4 lookup, which counts.
pub struct PlanCache {
    chain: OnceLock<Result<ProgramPlan, Lemma1Error>>,
    nary: RwLock<FxHashMap<(Pred, Adornment), NaryOutcome>>,
    /// Shareable hit/miss counters ([`rq_common::obs::Counter`]):
    /// the service adopts clones into its metrics registry, so the
    /// Prometheus export reads the very cells the cache increments.
    hits: Counter,
    misses: Counter,
}

impl PlanCache {
    /// Empty cache; one per [`crate::QueryService`].
    pub(crate) fn new() -> Self {
        Self {
            chain: OnceLock::new(),
            nary: RwLock::new(FxHashMap::default()),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// A handle to the hit counter (shares the underlying cells).
    pub fn hits_counter(&self) -> Counter {
        self.hits.clone()
    }

    /// A handle to the miss counter (shares the underlying cells).
    pub fn misses_counter(&self) -> Counter {
        self.misses.clone()
    }

    /// The §3 binary-chain plan of `snapshot`'s program, compiled on
    /// first use.  Racing first lookups wait for one compilation; a
    /// warm lookup is one atomic load — no lock, no refcount.
    pub fn chain_plan_for(&self, snapshot: &Snapshot) -> Result<&ProgramPlan, &Lemma1Error> {
        let mut fresh = false;
        let outcome = self.chain.get_or_init(|| {
            fresh = true;
            lemma1(snapshot.program(), &Lemma1Options::default()).map(|out| ProgramPlan {
                compiled: CompiledPlan::compile(&out.system),
                system: out.system,
            })
        });
        if outcome.is_ok() {
            if fresh {
                self.misses.inc();
            } else {
                self.hits.inc();
            }
        }
        outcome.as_ref()
    }

    /// The §4 plan for querying `pred` with `adornment` on `snapshot`'s
    /// program: adornment, binding-propagating transformation to a
    /// chain program over `base-r`/`in-r`/`out-r` virtual predicates,
    /// Lemma 1 over the transformed system, machine compilation.
    /// Compiles (or fails) at most once per key.
    pub fn nary_plan_for(
        &self,
        snapshot: &Snapshot,
        pred: Pred,
        adornment: Adornment,
    ) -> Result<Arc<NaryPlan>, QueryError> {
        let key = (pred, adornment);
        if let Some(outcome) = self
            .nary
            .read()
            .expect("plan cache lock poisoned")
            .get(&key)
        {
            self.hits.inc();
            return outcome.clone();
        }
        self.misses.inc();
        // Compile outside any lock: the pipeline can be slow and must
        // not stall readers.  A racing thread may compile the same key;
        // first publication wins and the duplicate is dropped.
        let outcome = plan_nary_query(snapshot.program(), pred, adornment).map(Arc::new);
        let mut nary = self.nary.write().expect("plan cache lock poisoned");
        nary.entry(key).or_insert(outcome).clone()
    }

    /// The §3 chain plan if it is already compiled — never triggers
    /// compilation.  The publish pass ([`crate::publish`]) judges it
    /// once per ingest without paying a compile under the writer lock.
    pub fn peek_program(&self) -> Option<&ProgramPlan> {
        self.chain.get().and_then(|outcome| outcome.as_ref().ok())
    }

    /// Every successfully compiled §4 plan — the publish pass walks
    /// these once per ingest to decide each plan's fate.  Never
    /// triggers compilation.
    pub fn cached_nary_plans(&self) -> Vec<((Pred, Adornment), Arc<NaryPlan>)> {
        self.nary
            .read()
            .expect("plan cache lock poisoned")
            .iter()
            .filter_map(|(&key, outcome)| outcome.as_ref().ok().map(|plan| (key, Arc::clone(plan))))
            .collect()
    }

    /// Number of programs compiled (successfully) for the §3 path: 1
    /// once the chain plan exists, else 0.
    pub fn programs(&self) -> usize {
        usize::from(self.peek_program().is_some())
    }

    /// Number of §4 plans compiled (successfully).
    pub fn nary_plans(&self) -> usize {
        self.nary
            .read()
            .expect("plan cache lock poisoned")
            .values()
            .filter(|o| o.is_ok())
            .count()
    }

    /// Hit/miss counters.  Plans are never evicted: the rule set is
    /// fixed for a service's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use crate::QueryService;
    use rq_datalog::parse_program;

    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                      up(a,a1). flat(a1,b1). down(b1,b).";

    /// Plan-cache `(hits, misses)` after answering `queries` in order.
    fn lookups(source: &str, queries: &[&str]) -> (u64, u64) {
        let service = QueryService::from_source(source).unwrap();
        for q in queries {
            service.query(&service.parse_query(q).unwrap()).unwrap();
        }
        let stats = service.plan_cache().stats();
        (stats.hits, stats.misses)
    }

    #[test]
    fn one_compile_serves_both_adornments() {
        let service = QueryService::from_source(SG).unwrap();
        for q in ["sg(a, Y)", "sg(X, b)"] {
            let answer = service.query(&service.parse_query(q).unwrap()).unwrap();
            assert_eq!(answer.route, Some(crate::Route::BinaryChain), "{q}");
            assert_eq!(answer.rows.len(), 1, "{q}");
        }
        let cache = service.plan_cache();
        assert_eq!(cache.programs(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        let snap = service.snapshot();
        let first = cache.chain_plan_for(&snap).unwrap();
        let again = cache.chain_plan_for(&snap).unwrap();
        assert!(std::ptr::eq(first, again));
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn each_evaluated_query_counts_one_lookup() {
        // Outside the binary-chain class: the chain lookup counts
        // nothing and the §4 lookup counts once.  The repeated query
        // looks its plan up again (a hit) before the memo answers it.
        let ternary = "p(X,Y) :- t(X,Z,Y).\nt(a,b,c). t(c,d,e).";
        let queries = ["p(a, Y)", "p(a, Y)", "p(c, Y)", "p(X, e)"];
        assert_eq!(lookups(ternary, &queries), (2, 2));
        // Inside it: one compile serves point, inverse and all-pairs.
        let tc = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\ne(a,b). e(b,c).";
        assert_eq!(lookups(tc, &["tc(a, Y)", "tc(X, b)", "tc(X, Y)"]), (2, 1));
    }

    #[test]
    fn plans_survive_fact_ingest() {
        let store = SnapshotStore::new(parse_program(SG).unwrap());
        let cache = PlanCache::new();
        let p0 = cache.chain_plan_for(&store.snapshot()).unwrap();
        let snap1 = store.ingest("up(x,y). flat(y,z).").unwrap();
        let p1 = cache.chain_plan_for(&snap1).unwrap();
        assert!(std::ptr::eq(p0, p1), "ingest must not recompile");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.programs(), 1);
    }

    #[test]
    fn rules_fingerprint_is_pinned() {
        // Recorded on-disk value: checkpoints and WAL records written
        // with it must keep recovering.
        let tc = parse_program("tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\ne(a,b).").unwrap();
        assert_eq!(rules_fingerprint(&tc), 0x6c9a_68e4_6dfd_e21d);
    }

    #[test]
    fn lemma1_errors_propagate_and_are_memoized() {
        // A non-binary-chain program: ternary head.
        let src = "t(X,Y,Z) :- a(X,Y), b(Y,Z).\na(x,y). b(y,z).";
        let store = SnapshotStore::new(parse_program(src).unwrap());
        let snap = store.snapshot();
        let cache = PlanCache::new();
        let first = cache.chain_plan_for(&snap).err().cloned();
        assert!(first.is_some());
        // The failure is cached; repeat lookups must not re-run the
        // elimination, count as a compiled program, or count at all.
        let again = cache.chain_plan_for(&snap).err().cloned();
        assert_eq!(again, first);
        assert_eq!(cache.programs(), 0);
        assert!(cache.peek_program().is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn nary_plans_cached_per_adornment() {
        let src = "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
                   cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
                   flight(hel,540,ams,690). is_deptime(540).";
        let store = SnapshotStore::new(parse_program(src).unwrap());
        let snap = store.snapshot();
        let cnx = snap.program().pred_by_name("cnx").unwrap();
        let cache = PlanCache::new();
        let bbff = Adornment::from_bound(4, [0, 1]);
        let p1 = cache.nary_plan_for(&snap, cnx, bbff).unwrap();
        let p2 = cache.nary_plan_for(&snap, cnx, bbff).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "repeat key must hit the cache");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.nary_plans(), 1);
        // A different adornment is a different plan.
        let bbbb = Adornment::from_bound(4, [0, 1, 2, 3]);
        let p3 = cache.nary_plan_for(&snap, cnx, bbbb).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.nary_plans(), 2);
        // The plan's read-set resolves virtual predicates back to the
        // real relations their joins consult.
        let rs = p1.read_set(snap.program());
        let pred = |n: &str| snap.program().pred_by_name(n).unwrap();
        assert!(rs.contains(&pred("flight")));
        assert!(rs.contains(&pred("is_deptime")));
        assert!(!rs.contains(&cnx), "cnx itself is rewritten away");
    }

    #[test]
    fn nary_failures_are_memoized() {
        // §4's counterexample fails the chain condition.
        let src = "p(X,Y) :- b0(X,Y).\n\
                   p(X,Y) :- b1(X,Y), p(Y,Z).\n\
                   b1(a,b). b0(b,c).";
        let store = SnapshotStore::new(parse_program(src).unwrap());
        let snap = store.snapshot();
        let p = snap.program().pred_by_name("p").unwrap();
        let cache = PlanCache::new();
        let first = cache.nary_plan_for(&snap, p, Adornment::from_bound(2, [0]));
        assert!(matches!(first, Err(QueryError::NotChain(_))));
        let again = cache.nary_plan_for(&snap, p, Adornment::from_bound(2, [0]));
        assert!(again.is_err());
        assert_eq!(cache.stats().hits, 1, "failure served from cache");
        assert_eq!(cache.nary_plans(), 0);
    }
}
