//! The epoch-scoped evaluation context: everything one snapshot's
//! queries may share with each other, and nothing a later epoch may
//! ever see.
//!
//! The paper's automaton/equation formulation makes evaluation
//! *shareable*: per-source runs over one equation system traverse
//! overlapping state, and §4's virtual-relation probes depend only on
//! the database version, never on which query demanded them.  A
//! snapshot epoch is exactly the unit over which that sharing is sound
//! — the database is immutable for the epoch's lifetime — so each
//! [`crate::Snapshot`] owns one [`EpochContext`]:
//!
//! * the engine's [`EvalContext`] — completed machine traversals,
//!   reused at the root and at machine-instance expansion time;
//! * one [`ProbeSpace`] per §4 plan — the tuple interner and
//!   virtual-probe memo a batch of adorned queries shares, so each
//!   probe joins the base relations once per epoch instead of once per
//!   query;
//! * the SCC-path counter — how many all-free queries the epoch served
//!   through the shared [`rq_engine::all_pairs_scc`] condensation
//!   instead of the per-source loop.
//!
//! Invalidation is wholesale by default: publishing a new epoch
//! creates a new snapshot, which creates a new (empty) context; the
//! old one dies with the last reader of the old snapshot.  The one
//! deliberate exception is `EpochContext::install`: the publish pass
//! ([`crate::publish`]) decides once per cached plan whether its state
//! carries unchanged (the plan reads none of the shards the publish
//! dirtied), is repaired against the delta, or is dropped, and installs
//! what survives here.  That keeps long-lived clients at warm-epoch
//! throughput across ingests while preserving the invariant that no
//! entry can outlive the data it was computed from (a carried entry's
//! entire read-set is pointer-identical across the two epochs; a
//! repaired one is complete on the new database before it lands).

use crate::spec::Adornment;
use rq_adorn::ProbeSpace;
use rq_common::{FxHashMap, Pred};
use rq_datalog::Program;
use rq_engine::EvalContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Aggregated statistics of one [`EpochContext`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochContextStats {
    /// Engine machine-memo lookups answered from the context.
    pub eval_hits: u64,
    /// Engine machine-memo lookups that found nothing.
    pub eval_misses: u64,
    /// Memoized machine-traversal answer sets.
    pub eval_entries: usize,
    /// §4 virtual-relation probes answered from a shared memo.
    pub probe_hits: u64,
    /// §4 virtual-relation probes that ran their defining join.
    pub probe_misses: u64,
    /// Memoized virtual-relation probe results across all plans.
    pub probe_entries: usize,
    /// All-free queries served through the shared-SCC path.
    pub scc_served: u64,
    /// Machine-memo entries inherited from the previous epoch's context
    /// (plans whose read-set the publish left clean).
    pub eval_carried: u64,
    /// §4 probe spaces inherited from the previous epoch's context.
    /// A carried space keeps its cumulative hit/miss counters — its
    /// memo (and the tuple interner the machine memo's answers are
    /// encoded in) survives the publish as one unit.
    pub probe_spaces_carried: u64,
}

/// The sharing state of one snapshot epoch.  See the module docs.
pub struct EpochContext {
    eval: EvalContext,
    probes: RwLock<FxHashMap<(Pred, Adornment), Arc<ProbeSpace>>>,
    scc_served: AtomicU64,
    eval_carried: AtomicU64,
    probe_spaces_carried: AtomicU64,
}

impl EpochContext {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self {
            eval: EvalContext::new(),
            probes: RwLock::new(FxHashMap::default()),
            scc_served: AtomicU64::new(0),
            eval_carried: AtomicU64::new(0),
            probe_spaces_carried: AtomicU64::new(0),
        }
    }

    /// Install one plan's surviving state — the only way anything from
    /// an earlier epoch enters this context.  The publish pass
    /// ([`crate::publish`]) calls it once per plan it decided to keep:
    ///
    /// * `space` — for a §4 plan, its `(pred, adornment)` key and the
    ///   probe space to install: the previous epoch's `Arc` when the
    ///   plan carries, the patched fork when it was repaired.  `None`
    ///   for the §3 chain plan, whose memoized answers are real program
    ///   constants (interned ids are stable across epochs) and need no
    ///   space.
    /// * `plan`, `from`, `machine` — the memo entries to bring along:
    ///   those of plan id `plan` in `from` (the previous epoch's memo
    ///   for a carry, the repair's scratch memo for a repair) whose
    ///   machine index `machine` vouches for.
    ///
    /// **Vacant-only rule.**  A §4 plan's memoized answers are encoded
    /// in its probe space's tuple interner, so the two travel as a unit
    /// or not at all: the space is installed only into a vacant slot,
    /// and the entries follow only if that install won.  An occupied
    /// slot means a racing query already built a fresh space on this
    /// epoch; its interner numbers tuples differently and may already
    /// anchor new memo entries, so it is kept, `space` is discarded and
    /// `false` comes back with nothing installed.  (A slot already
    /// holding this very `Arc` — an idempotent re-run — counts as won.)
    ///
    /// Installed spaces and entries are counted in
    /// [`EpochContextStats::probe_spaces_carried`] /
    /// [`EpochContextStats::eval_carried`]: a repaired space *did*
    /// travel from the previous epoch, patched en route.
    pub(crate) fn install(
        &self,
        space: Option<((Pred, Adornment), Arc<ProbeSpace>)>,
        plan: u64,
        from: &EvalContext,
        mut machine: impl FnMut(u32) -> bool,
    ) -> bool {
        if let Some((key, space)) = space {
            let mut map = self.probes.write().expect("probe space map poisoned");
            match map.entry(key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(space);
                    self.probe_spaces_carried.fetch_add(1, Ordering::Relaxed);
                }
                std::collections::hash_map::Entry::Occupied(existing) => {
                    if !Arc::ptr_eq(existing.get(), &space) {
                        return false;
                    }
                }
            }
        }
        let carried = self.eval.carry_from(from, |p, m| p == plan && machine(m)) as u64;
        self.eval_carried.fetch_add(carried, Ordering::Relaxed);
        true
    }

    /// The engine-level machine-traversal memo.
    pub fn eval(&self) -> &EvalContext {
        &self.eval
    }

    /// The shared [`ProbeSpace`] for one §4 plan, created on first use.
    /// Keyed by `(pred, adornment)` — the same key as the plan cache,
    /// so every query compiled to one [`rq_adorn::NaryPlan`] shares one
    /// space.
    pub fn probe_space(
        &self,
        pred: Pred,
        adornment: Adornment,
        program: &Program,
    ) -> Arc<ProbeSpace> {
        if let Some(space) = self
            .probes
            .read()
            .expect("probe space map poisoned")
            .get(&(pred, adornment))
        {
            return Arc::clone(space);
        }
        let mut map = self.probes.write().expect("probe space map poisoned");
        Arc::clone(
            map.entry((pred, adornment))
                .or_insert_with(|| Arc::new(ProbeSpace::new(program))),
        )
    }

    /// The shared [`ProbeSpace`] for one §4 plan **if it already
    /// exists**, without creating one.  The publish pass carries or
    /// forks the *previous* epoch's space; a `None` here means the plan
    /// had nothing warm.
    pub fn peek_probe_space(&self, pred: Pred, adornment: Adornment) -> Option<Arc<ProbeSpace>> {
        self.probes
            .read()
            .expect("probe space map poisoned")
            .get(&(pred, adornment))
            .cloned()
    }

    /// Record one all-free query served through the shared-SCC path.
    pub fn note_scc_served(&self) {
        self.scc_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregated hit/miss/entry counts across the engine memo and all
    /// probe spaces.
    pub fn stats(&self) -> EpochContextStats {
        let eval = self.eval.stats();
        let mut stats = EpochContextStats {
            eval_hits: eval.hits,
            eval_misses: eval.misses,
            eval_entries: eval.entries,
            scc_served: self.scc_served.load(Ordering::Relaxed),
            eval_carried: self.eval_carried.load(Ordering::Relaxed),
            probe_spaces_carried: self.probe_spaces_carried.load(Ordering::Relaxed),
            ..EpochContextStats::default()
        };
        // Aggregate the probe spaces with the saturating
        // `ProbeStats::merge`, outside any write lock (the map is only
        // read-locked; each space reads its own atomics).
        let mut probes = rq_adorn::ProbeStats::default();
        for space in self
            .probes
            .read()
            .expect("probe space map poisoned")
            .values()
        {
            probes.merge(&space.stats());
        }
        stats.probe_hits = probes.hits;
        stats.probe_misses = probes.misses;
        stats.probe_entries = probes.entries;
        stats
    }
}

impl Default for EpochContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EpochContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochContext")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    #[test]
    fn probe_spaces_are_per_plan_and_created_once() {
        let program = parse_program("e(a,b).").unwrap();
        let ctx = EpochContext::new();
        let bf = Adornment::from_bound(2, [0]);
        let fb = Adornment::from_bound(2, [1]);
        let p = Pred(0);
        let s1 = ctx.probe_space(p, bf, &program);
        let s2 = ctx.probe_space(p, bf, &program);
        assert!(Arc::ptr_eq(&s1, &s2), "one space per (pred, adornment)");
        let s3 = ctx.probe_space(p, fb, &program);
        assert!(
            !Arc::ptr_eq(&s1, &s3),
            "different adornment, different space"
        );
    }

    #[test]
    fn carry_pairs_probe_space_with_its_plan_or_drops_both() {
        let program = parse_program("e(a,b).").unwrap();
        let key = (Pred(0), Adornment::from_bound(2, [0]));
        let plan_id = 77u64;

        // Vacant destination: the old space carries, same Arc.
        let prev = EpochContext::new();
        let old_space = prev.probe_space(key.0, key.1, &program);
        let carry = |into: &EpochContext, from: &EpochContext| {
            from.peek_probe_space(key.0, key.1).is_some_and(|space| {
                into.install(Some((key, space)), plan_id, from.eval(), |_| true)
            })
        };
        let fresh = EpochContext::new();
        assert!(carry(&fresh, &prev));
        assert_eq!(fresh.stats().probe_spaces_carried, 1);
        assert!(Arc::ptr_eq(
            &old_space,
            &fresh.probe_space(key.0, key.1, &program)
        ));
        // Idempotent re-run: the already-carried space still counts as
        // paired (same interner), but is not carried twice.
        assert!(carry(&fresh, &prev));
        assert_eq!(fresh.stats().probe_spaces_carried, 1);

        // A racing query created a fresh space first: the old space —
        // and with it the plan's memo entries, whose answers are
        // encoded in the old space's interner — must NOT carry.
        let racing = EpochContext::new();
        let racing_space = racing.probe_space(key.0, key.1, &program);
        assert!(!carry(&racing, &prev));
        assert_eq!(racing.stats().probe_spaces_carried, 0);
        assert!(Arc::ptr_eq(
            &racing_space,
            &racing.probe_space(key.0, key.1, &program)
        ));

        // A plan whose previous epoch never built a space carries
        // nothing and counts nothing.
        let empty_prev = EpochContext::new();
        let target = EpochContext::new();
        assert!(!carry(&target, &empty_prev));
        assert_eq!(target.stats().probe_spaces_carried, 0);
        assert_eq!(target.stats().eval_carried, 0);
    }

    #[test]
    fn stats_aggregate_scc_counter() {
        let ctx = EpochContext::new();
        ctx.note_scc_served();
        ctx.note_scc_served();
        assert_eq!(ctx.stats().scc_served, 2);
        assert_eq!(ctx.stats().eval_entries, 0);
    }
}
