//! The plan cache: memoized compilation for both serving pipelines.
//!
//! Compiling a program (Arden elimination + Thompson construction for
//! the §3 binary-chain path; adornment + the §4 binding-propagating
//! transformation + elimination + machines for n-ary queries) is work
//! proportional to the rule set, not to the data — exactly the kind of
//! work that should happen once per program, not once per query.  The
//! cache is keyed by `(rules fingerprint, predicate, adornment)`, the
//! service's unit of reuse:
//!
//! * every binary-chain key of one program shares a single
//!   [`ProgramPlan`], since Lemma 1 compiles the whole equation system
//!   at once and the [`CompiledPlan`] holds both machine orientations;
//! * each §4 key holds its own [`NaryPlan`] — the transformation
//!   genuinely depends on the adornment (which positions are bound
//!   decides the before/after split), though never on the bound values.
//!
//! The fingerprint covers the rules *and* their predicate-id binding
//! (compiled expressions speak in `Pred` ids), but not the facts — so
//! fact ingestion never invalidates a plan.

use crate::spec::Adornment;
use rq_adorn::{plan_nary_query, NaryPlan, QueryError};
use rq_common::obs::Counter;
use rq_common::{FxHashMap, FxHasher, Pred};
use rq_datalog::{display_rule, Program};
use rq_engine::CompiledPlan;
use rq_relalg::{lemma1, EqSystem, Lemma1Error, Lemma1Options};
use std::hash::Hasher;
use std::sync::{Arc, RwLock};

use crate::snapshot::Snapshot;

/// Cache key: one compiled unit of reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`Snapshot::rules_fingerprint`] of the program.
    pub program: u64,
    /// The queried predicate.
    pub pred: Pred,
    /// The query's `{b,f}` binding pattern.
    pub adornment: Adornment,
}

/// Everything compiled from one binary-chain program: the Lemma 1
/// equation system and the Thompson machines (both orientations).
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
pub fn rules_fingerprint(program: &Program) -> u64 {
    let mut h = FxHasher::default();
    for rule in &program.rules {
        h.write(display_rule(program, rule).as_bytes());
        h.write_u32(rule.head.pred.0);
        for atom in rule.body_atoms() {
            h.write_u32(atom.pred.0);
        }
    }
    h.finish()
}

/// Hit/miss/eviction/dedup counts of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by capacity pressure or epoch invalidation.
    pub evictions: u64,
    /// Batch queries answered by sharing an identical query's
    /// evaluation (result cache only; always 0 for the plan cache).
    pub deduped: u64,
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

/// Thread-safe memoization of compiled plans.  Failures are cached
/// too: the rule set is fixed for a service's lifetime, so a program
/// that fails Lemma 1 (or a `(pred, adornment)` that fails adornment or
/// the chain condition) fails deterministically and must not re-run
/// the whole pipeline on every query.
pub struct PlanCache {
    by_key: RwLock<FxHashMap<PlanKey, Arc<ProgramPlan>>>,
    by_program: RwLock<FxHashMap<u64, Result<Arc<ProgramPlan>, Lemma1Error>>>,
    by_nary: RwLock<FxHashMap<PlanKey, Result<Arc<NaryPlan>, QueryError>>>,
    /// Shareable hit/miss counters ([`rq_common::obs::Counter`]):
    /// the service adopts clones into its metrics registry, so the
    /// Prometheus export reads the very cells the cache increments.
    hits: Counter,
    misses: Counter,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self {
            by_key: RwLock::new(FxHashMap::default()),
            by_program: RwLock::new(FxHashMap::default()),
            by_nary: RwLock::new(FxHashMap::default()),
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

    /// The §3 binary-chain plan for querying `pred` with `adornment` on
    /// `snapshot`'s program, compiling at most once per program
    /// fingerprint.
    pub fn chain_plan_for(
        &self,
        snapshot: &Snapshot,
        pred: Pred,
        adornment: Adornment,
    ) -> Result<Arc<ProgramPlan>, Lemma1Error> {
        let key = PlanKey {
            program: snapshot.rules_fingerprint(),
            pred,
            adornment,
        };
        if let Some(plan) = self
            .by_key
            .read()
            .expect("plan cache lock poisoned")
            .get(&key)
        {
            self.hits.inc();
            return Ok(Arc::clone(plan));
        }
        self.misses.inc();
        let plan = self.program_plan(key.program, snapshot.program())?;
        self.by_key
            .write()
            .expect("plan cache lock poisoned")
            .insert(key, Arc::clone(&plan));
        Ok(plan)
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
        let key = PlanKey {
            program: snapshot.rules_fingerprint(),
            pred,
            adornment,
        };
        if let Some(outcome) = self
            .by_nary
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
        let mut by_nary = self.by_nary.write().expect("plan cache lock poisoned");
        by_nary.entry(key).or_insert(outcome).clone()
    }

    /// The per-program §3 compilation (or its cached failure), shared
    /// by every binary-chain `(pred, adornment)` key of one program.
    fn program_plan(
        &self,
        fingerprint: u64,
        program: &Program,
    ) -> Result<Arc<ProgramPlan>, Lemma1Error> {
        if let Some(outcome) = self
            .by_program
            .read()
            .expect("plan cache lock poisoned")
            .get(&fingerprint)
        {
            return outcome.clone();
        }
        // Compile outside any lock: lemma1 can be slow and must not
        // stall readers.  A racing thread may compile the same program;
        // first publication wins and the duplicate is dropped.
        let outcome = lemma1(program, &Lemma1Options::default()).map(|out| {
            let compiled = CompiledPlan::compile(&out.system);
            Arc::new(ProgramPlan {
                system: out.system,
                compiled,
            })
        });
        let mut by_program = self.by_program.write().expect("plan cache lock poisoned");
        by_program.entry(fingerprint).or_insert(outcome).clone()
    }

    /// The already-compiled §3 plan for `fingerprint`, if one is cached
    /// — never triggers compilation.  The publish pass
    /// ([`crate::publish`]) judges it once per ingest without paying a
    /// compile under the writer lock.
    pub fn peek_program(&self, fingerprint: u64) -> Option<Arc<ProgramPlan>> {
        self.by_program
            .read()
            .expect("plan cache lock poisoned")
            .get(&fingerprint)
            .and_then(|o| o.clone().ok())
    }

    /// Every successfully compiled §4 plan of `fingerprint`'s program —
    /// the publish pass walks these once per ingest to decide each
    /// plan's fate.  Never triggers compilation.
    pub fn cached_nary_plans(&self, fingerprint: u64) -> Vec<(PlanKey, Arc<NaryPlan>)> {
        self.by_nary
            .read()
            .expect("plan cache lock poisoned")
            .iter()
            .filter(|(key, _)| key.program == fingerprint)
            .filter_map(|(key, outcome)| outcome.as_ref().ok().map(|plan| (*key, Arc::clone(plan))))
            .collect()
    }

    /// Number of binary-chain `(program, pred, adornment)` entries.
    pub fn len(&self) -> usize {
        self.by_key.read().expect("plan cache lock poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.nary_plans() == 0
    }

    /// Number of distinct programs compiled (successfully) for the §3
    /// path.
    pub fn programs(&self) -> usize {
        self.by_program
            .read()
            .expect("plan cache lock poisoned")
            .values()
            .filter(|o| o.is_ok())
            .count()
    }

    /// Number of §4 plans compiled (successfully).
    pub fn nary_plans(&self) -> usize {
        self.by_nary
            .read()
            .expect("plan cache lock poisoned")
            .values()
            .filter(|o| o.is_ok())
            .count()
    }

    /// Hit/miss counters.  Plans are never evicted (the rule set is
    /// fixed for a service's lifetime), so `evictions` is always 0.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            ..CacheStats::default()
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use rq_datalog::parse_program;

    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                      up(a,a1). flat(a1,b1). down(b1,b).";

    fn bf() -> Adornment {
        Adornment::from_bound(2, [0])
    }

    fn fb() -> Adornment {
        Adornment::from_bound(2, [1])
    }

    #[test]
    fn one_compile_serves_both_adornments() {
        let store = SnapshotStore::new(parse_program(SG).unwrap());
        let snap = store.snapshot();
        let sg = snap.program().pred_by_name("sg").unwrap();
        let cache = PlanCache::new();
        let p_bf = cache.chain_plan_for(&snap, sg, bf()).unwrap();
        let p_fb = cache.chain_plan_for(&snap, sg, fb()).unwrap();
        assert!(
            Arc::ptr_eq(&p_bf, &p_fb),
            "both adornments share the program plan"
        );
        assert_eq!(cache.programs(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                ..CacheStats::default()
            }
        );
        let again = cache.chain_plan_for(&snap, sg, bf()).unwrap();
        assert!(Arc::ptr_eq(&p_bf, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn plans_survive_fact_ingest() {
        let store = SnapshotStore::new(parse_program(SG).unwrap());
        let cache = PlanCache::new();
        let snap0 = store.snapshot();
        let sg = snap0.program().pred_by_name("sg").unwrap();
        let p0 = cache.chain_plan_for(&snap0, sg, bf()).unwrap();
        let snap1 = store.ingest("up(x,y). flat(y,z).").unwrap();
        let p1 = cache.chain_plan_for(&snap1, sg, bf()).unwrap();
        assert!(Arc::ptr_eq(&p0, &p1), "ingest must not recompile");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.programs(), 1);
    }

    #[test]
    fn different_programs_get_different_plans() {
        let a = SnapshotStore::new(parse_program(SG).unwrap());
        let b = SnapshotStore::new(
            parse_program("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b).").unwrap(),
        );
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa.rules_fingerprint(), sb.rules_fingerprint());
        let cache = PlanCache::new();
        let pa = cache
            .chain_plan_for(&sa, sa.program().pred_by_name("sg").unwrap(), bf())
            .unwrap();
        let pb = cache
            .chain_plan_for(&sb, sb.program().pred_by_name("tc").unwrap(), bf())
            .unwrap();
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!(cache.programs(), 2);
    }

    #[test]
    fn lemma1_errors_propagate_and_are_memoized() {
        // A non-binary-chain program: ternary head.
        let src = "t(X,Y,Z) :- a(X,Y), b(Y,Z).\na(x,y). b(y,z).";
        let store = SnapshotStore::new(parse_program(src).unwrap());
        let snap = store.snapshot();
        let t = snap.program().pred_by_name("t").unwrap();
        let cache = PlanCache::new();
        let first = cache.chain_plan_for(&snap, t, Adornment::from_bound(3, [0]));
        assert!(first.is_err());
        // The failure is cached per program; repeat queries must not
        // re-run the elimination (and must not count as a compiled
        // program).
        let again = cache.chain_plan_for(&snap, t, Adornment::from_bound(3, [0, 1]));
        assert_eq!(again.err(), first.err());
        assert_eq!(cache.programs(), 0);
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
