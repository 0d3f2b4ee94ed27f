//! The epoch-scoped memo of completed machine traversals.
//!
//! An [`EvalContext`] keeps its answer sets in an [`AnswerStore`]: each
//! (plan, machine) has one column of slots per id space, indexed by the
//! source constant's offset in it (program constants are dense from 0,
//! §4 tuple ids dense from 2³¹).  A plan finds its columns in a small
//! append-only directory, once per evaluation ([`PlanMemo`]); from
//! there a root hit or a memo teleport is one `Acquire` slot load plus
//! a copy of the answers, with no lock.

use rq_common::{AnswerStats, AnswerStore, Arena, Const, FxHashSet};
use std::sync::OnceLock;

/// Statistics of one [`EvalContext`]: memo lookups answered and
/// missed, and memoized `(plan, machine, constant)` answer sets.
pub type EvalContextStats = AnswerStats;

/// The top bit of a [`Const`]: set on §4 tuple ids.
const ID_SPACE: u32 = 1 << 31;

/// Where one plan's columns live in the store.
#[derive(Clone, Copy, Debug)]
struct Home {
    /// The first column of machine 0; machine `m` has columns
    /// `first + 2m` (program constants) and `first + 2m + 1` (tuples).
    first: usize,
    machines: u32,
}

impl Home {
    /// The `(column, slot index)` of `(machine, from)`.
    #[inline]
    fn locate(self, machine: u32, from: Const) -> Option<(usize, usize)> {
        let column = self.first + 2 * machine as usize + (from.0 >> 31) as usize;
        (machine < self.machines).then_some((column, (from.0 & !ID_SPACE) as usize))
    }

    /// `machine`'s columns, each with the id its slot 0 stands for.
    fn columns(self, machine: u32) -> [(usize, u32); 2] {
        let column = self.first + 2 * machine as usize;
        [(column, 0), (column + 1, ID_SPACE)]
    }
}

/// An epoch-scoped memo of completed machine traversals, shared by
/// every query evaluated against one immutable database snapshot.
///
/// The key is `(plan id, machine, source constant)`; the value is the
/// complete, converged answer set of traversing that machine from that
/// constant — the answer set of the point query the machine encodes.
/// The evaluator consults it at the **root** (a repeated point query
/// returns instantly) and at **machine-instance expansion time** (a
/// continuation about to splice a copy of machine `m` for term `u`
/// routes `m`'s memoized answers straight to the parent state).
///
/// Sound because only *naturally converged* runs record (never runs cut
/// by an iteration bound, a node budget or a `stop_on_answer` exit),
/// and because a context never outlives the database version it was
/// computed on: the serving layer keys one per snapshot epoch.  It is
/// bounded by an entry cap: once full, new results are not recorded —
/// always sound, because the memo is never the source of truth.
pub struct EvalContext {
    pub(crate) store: AnswerStore,
    /// The directory: registered plans' ids and homes, in order.
    plans: Arena<OnceLock<(u64, Home)>>,
}

/// Default entry cap for [`EvalContext`].  The memo cannot evict, so
/// on a stream that never repeats it holds the first roots of the epoch
/// until the cap; 8,192 bounds what that costs (a 65,536 cap held
/// ≈ 48k one-shot roots on the benchmark's `cold_reach`).  Keeping the
/// 65,536 cap and recording a root past 8,192 only on its second
/// traversal held ≈ 29 MB more server RSS there.
pub const DEFAULT_CONTEXT_ENTRIES: usize = 1 << 13;

/// One plan's view of an [`EvalContext`], resolved with one directory
/// lookup per evaluation.  A plan the context had not met then misses
/// every lookup through the view.
#[derive(Clone, Copy)]
pub(crate) struct PlanMemo<'c> {
    ctx: &'c EvalContext,
    home: Option<Home>,
}

impl PlanMemo<'_> {
    /// Append the memoized answers of `(machine, from)` to `out`,
    /// counting a hit or a miss.  Returns whether there were any.
    #[inline]
    pub(crate) fn lookup(&self, machine: u32, from: Const, out: &mut Vec<Const>) -> bool {
        let at = self.home.and_then(|home| home.locate(machine, from));
        self.ctx.store.lookup(at, out)
    }
}

impl EvalContext {
    /// Fresh, empty context with the default entry cap
    /// ([`DEFAULT_CONTEXT_ENTRIES`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CONTEXT_ENTRIES)
    }

    /// Fresh, empty context holding at most `max_entries` memoized
    /// answer sets; overflow stops recording (never lookups).
    pub fn with_capacity(max_entries: usize) -> Self {
        Self {
            store: AnswerStore::new(max_entries),
            plans: Arena::default(),
        }
    }

    /// Every registered plan, in order, read with no lock.
    fn directory(&self) -> impl Iterator<Item = (u64, Home)> + '_ {
        (0..).map_while(|i| self.plans.get(i)?.get().copied())
    }

    /// The home of `plan`, if registered.
    fn home(&self, plan: u64) -> Option<Home> {
        self.directory()
            .find(|&(p, _)| p == plan)
            .map(|(_, home)| home)
    }

    /// `plan`'s view, for the lookups of one evaluation.
    pub(crate) fn view(&self, plan: u64) -> PlanMemo<'_> {
        PlanMemo {
            ctx: self,
            home: self.home(plan),
        }
    }

    /// Memoize `answers` (sorted and duplicate-free, what a traversal
    /// returns) for `(machine, from)` of `plan`, which has `machines`
    /// machines.  Returns whether the key now holds an entry (`false`:
    /// the cap refused it).
    pub(crate) fn record(
        &self,
        plan: u64,
        machines: u32,
        machine: u32,
        from: Const,
        answers: &[Const],
    ) -> bool {
        self.register(plan, machines)
            .locate(machine, from)
            .is_some_and(|(column, key)| self.store.record(column, key, answers))
    }

    /// The home of `plan`, registered on first sight with `machines`
    /// machines.
    fn register(&self, plan: u64, machines: u32) -> Home {
        loop {
            if let Some(home) = self.home(plan) {
                return home;
            }
            // Claim the first vacant directory entry; a racing
            // registration that wins it sends this one round again.
            let (at, first) = self.directory().fold((0, 0), |(at, _), (_, h)| {
                (at + 1, h.first + 2 * h.machines as usize)
            });
            let home = Home { first, machines };
            if self.plans.slot(at).set((plan, home)).is_ok() {
                return home;
            }
        }
    }

    /// Carry the entries of `prev` whose `(plan id, machine)` the caller
    /// vouches for into this context, sharing their answers
    /// ([`AnswerStore::carry`]); returns how many carried (a full
    /// context stops the carry).  An answer set stays valid across a
    /// publish while the relations its machine reads are untouched:
    /// [`crate::CompiledPlan::stale_machines`] names the others.
    pub fn carry_from(&self, prev: &EvalContext, mut keep: impl FnMut(u64, u32) -> bool) -> usize {
        let mut carried = 0;
        for (plan, home) in prev.directory() {
            let to = self.register(plan, home.machines);
            for machine in (0..home.machines).filter(|&m| keep(plan, m)) {
                for ((from, _), (to, _)) in
                    home.columns(machine).into_iter().zip(to.columns(machine))
                {
                    for (key, range) in prev.store.keys(from) {
                        if !self.store.carry(&prev.store, range, to, key) {
                            return carried;
                        }
                        carried += 1;
                    }
                }
            }
        }
        carried
    }

    /// Every memoized `(machine, root constant)` of `plan` whose
    /// machine is in `machines`, sorted — the work-list of a delta
    /// repair ([`crate::Evaluator::repair`]).
    pub fn roots_for(&self, plan: u64, machines: &FxHashSet<u32>) -> Vec<(u32, Const)> {
        let Some(home) = self.home(plan) else {
            return Vec::new();
        };
        let mut out: Vec<(u32, Const)> = (0..home.machines)
            .filter(|m| machines.contains(m))
            .flat_map(|m| home.columns(m).into_iter().map(move |column| (m, column)))
            .flat_map(|(m, (column, base))| {
                let keys = self.store.keys(column);
                keys.map(move |(key, _)| (m, Const(key as u32 | base)))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The memoized answer set for one key, without counting a hit or
    /// a miss (maintenance reads must not skew serving stats).
    pub fn peek(&self, plan: u64, machine: u32, from: Const) -> Option<Vec<Const>> {
        let (column, key) = self.home(plan)?.locate(machine, from)?;
        let mut out = Vec::new();
        self.store.copy(self.store.get(column, key)?, &mut out);
        Some(out)
    }

    /// Merge `additions` into an existing memoized answer set, keeping
    /// it sorted and deduplicated; returns how many were new.  A missing
    /// entry stays missing (it re-derives on demand).  The caller
    /// vouches that the result is the **complete** answer set over the
    /// *new* database — the semi-naive repair contract (ingests only
    /// add).
    pub fn patch(&self, plan: u64, machine: u32, from: Const, additions: &FxHashSet<Const>) -> u64 {
        let Some((column, key)) = self.home(plan).and_then(|h| h.locate(machine, from)) else {
            return 0;
        };
        self.store.patch(column, key, |answers| {
            let fresh: Vec<Const> = additions
                .iter()
                .filter(|c| answers.binary_search(c).is_err())
                .copied()
                .collect();
            if !fresh.is_empty() {
                answers.extend(fresh);
                answers.sort_unstable();
            }
        })
    }

    /// Drop every entry of `plan` whose machine is in `machines` — the
    /// fallback when a repair cannot complete (truncated closure):
    /// stale entries must not serve, so queries re-derive cold.
    /// Returns how many entries were purged.
    pub fn purge(&self, plan: u64, machines: &FxHashSet<u32>) -> usize {
        let Some(home) = self.home(plan) else {
            return 0;
        };
        self.roots_for(plan, machines)
            .into_iter()
            .filter_map(|(m, from)| home.locate(m, from))
            .filter(|&(column, key)| self.store.remove(column, key))
            .count()
    }

    /// Number of memoized answer sets.
    pub fn entries(&self) -> usize {
        self.store.stats().entries
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> EvalContextStats {
        self.store.stats()
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("EvalContext").field(&self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: u64 = 7;

    fn record(ctx: &EvalContext, plan: u64, machine: u32, from: u32, answers: &[u32]) -> bool {
        let answers: Vec<Const> = answers.iter().map(|&c| Const(c)).collect();
        ctx.record(plan, 2, machine, Const(from), &answers)
    }

    fn lookup(ctx: &EvalContext, plan: u64, machine: u32, from: u32) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        ctx.view(plan)
            .lookup(machine, Const(from), &mut out)
            .then(|| out.iter().map(|c| c.0).collect())
    }

    #[test]
    fn lookups_count_and_the_cap_refuses_new_keys() {
        let ctx = EvalContext::with_capacity(2);
        assert_eq!(lookup(&ctx, PLAN, 0, 1), None, "unknown plan misses");
        assert!(record(&ctx, PLAN, 0, 1, &[10, 11]));
        assert!(record(&ctx, PLAN, 1, 1, &[]));
        assert!(!record(&ctx, PLAN, 0, 2, &[12]), "cap refuses new keys");
        assert!(
            record(&ctx, PLAN, 0, 1, &[99]),
            "a held key keeps its entry"
        );
        assert_eq!(lookup(&ctx, PLAN, 0, 1), Some(vec![10, 11]));
        assert_eq!(lookup(&ctx, PLAN, 1, 1), Some(vec![]));
        assert_eq!(lookup(&ctx, PLAN, 0, 2), None);
        assert_eq!(lookup(&ctx, PLAN, 2, 1), None, "no such machine");
        assert_eq!(
            ctx.stats(),
            EvalContextStats {
                hits: 2,
                misses: 3,
                entries: 2
            }
        );
        assert_eq!(ctx.store.words(), 2, "no payload slack");
    }

    #[test]
    fn tuple_ids_and_program_constants_key_dense_columns() {
        let ctx = EvalContext::new();
        let tuple = ID_SPACE + 5;
        assert!(record(&ctx, PLAN, 1, tuple, &[ID_SPACE + 6]));
        assert!(record(&ctx, PLAN + 1, 0, 3, &[4]));
        assert_eq!(lookup(&ctx, PLAN, 1, tuple), Some(vec![ID_SPACE + 6]));
        assert_eq!(lookup(&ctx, PLAN, 1, 5), None, "other id space, other slot");
        let all: FxHashSet<u32> = [0, 1].into_iter().collect();
        assert_eq!(ctx.roots_for(PLAN, &all), vec![(1, Const(tuple))]);
        assert_eq!(ctx.roots_for(PLAN + 1, &all), vec![(0, Const(3))]);
        assert_eq!(
            ctx.home(PLAN + 1).unwrap().first,
            4,
            "two columns per machine"
        );
    }

    #[test]
    fn carry_from_filters_shares_and_respects_the_cap() {
        let old = EvalContext::new();
        record(&old, 1, 0, 10, &[100]);
        record(&old, 1, 1, 10, &[101]);
        record(&old, 2, 0, 20, &[200]);
        let fresh = EvalContext::new();
        assert_eq!(fresh.carry_from(&old, |plan, _| plan == 1), 2);
        assert_eq!(fresh.entries(), 2);
        assert_eq!(fresh.peek(1, 1, Const(10)), Some(vec![Const(101)]));
        assert_eq!(
            fresh.peek(2, 0, Const(20)),
            None,
            "filtered keys do not carry"
        );
        assert_eq!(fresh.stats().hits, 0, "peek counts nothing");
        assert_eq!(fresh.store.words(), old.store.words(), "answers shared");
        // A tiny destination caps what carries.
        let tiny = EvalContext::with_capacity(1);
        assert_eq!(tiny.carry_from(&old, |_, _| true), 1);
        assert_eq!(tiny.entries(), 1);
    }

    #[test]
    fn purge_frees_capacity_and_patch_merges_sorted() {
        let ctx = EvalContext::with_capacity(2);
        record(&ctx, PLAN, 0, 1, &[3, 5]);
        record(&ctx, PLAN, 1, 1, &[4]);
        let add: FxHashSet<Const> = [Const(1), Const(5)].into_iter().collect();
        assert_eq!(ctx.patch(PLAN, 0, Const(1), &add), 1);
        assert_eq!(
            ctx.peek(PLAN, 0, Const(1)),
            Some(vec![Const(1), Const(3), Const(5)])
        );
        assert_eq!(ctx.patch(PLAN, 0, Const(9), &add), 0, "absent stays absent");
        let fork = EvalContext::new();
        assert_eq!(fork.carry_from(&ctx, |_, _| true), 2);
        assert_eq!(fork.store.words(), ctx.store.words(), "answers shared");
        let machine0: FxHashSet<u32> = [0].into_iter().collect();
        assert_eq!(ctx.purge(PLAN, &machine0), 1);
        assert_eq!(ctx.peek(PLAN, 0, Const(1)), None);
        assert!(record(&ctx, PLAN, 0, 2, &[6]), "a purge frees capacity");
        assert_eq!(
            fork.peek(PLAN, 0, Const(1)),
            Some(vec![Const(1), Const(3), Const(5)])
        );
        assert_eq!(fork.entries(), 2);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext>();
    }
}
