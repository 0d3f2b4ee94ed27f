//! The publish pass: one verdict per cached plan per publish.
//!
//! The paper evaluates a query against one fixed database; deciding
//! which warm traversal state is still valid for the *next* database
//! version is the serving layer's own problem, and this module is the
//! one place that decides it.  `QueryService::transition` walks the
//! plan cache once per publish and gives every cached plan one of three
//! fates:
//!
//! * **Carry** — the plan's read-set is disjoint from the publish's
//!   dirty shards, so everything derived from it is still exact;
//! * **Repair** — the read-set is dirty, but the plan's warm state was
//!   extended semi-naively by the publish delta on detached scratch and
//!   is complete on the new database;
//! * **Drop** — dirty, and repair is off, had nothing warm to work on,
//!   or refused (counted in `rq_delta_fallback_cold_total`).
//!
//! The same pass installs each Carry / Repair plan's state into the new
//! snapshot's context through `EpochContext::install`, and the
//! `PublishVerdicts` it returns is all the result-cache sweep reads —
//! so a plan's memo, its probe space and its cached answers meet one
//! fate by construction, not by three predicates that happen to agree.
//!
//! Granularity follows what each memo key can vouch for.  The §3 chain
//! plan is one compiled unit shared by every binary predicate of the
//! program, so its fate is decided **per derived predicate** (machine →
//! predicate → read-set): an ingest into `e` dirties `tc`'s machines
//! while `rc`-over-`f` carries.  Each §4 plan carries, is repaired or
//! drops **wholesale**, always together with its probe space.

use crate::plan::ProgramPlan;
use crate::results::{CachedResult, ResultKey, SweepDecision};
use crate::service::QueryService;
use crate::snapshot::Snapshot;
use crate::spec::{Adornment, QuerySpec};
use rq_adorn::{NaryPlan, ProbeSpace, VirtualSource};
use rq_common::{obs, Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_datalog::Relation;
use rq_engine::{EdbSource, EvalContext, Evaluator};
use std::sync::Arc;

/// The fate of every cached plan across one publish.
#[derive(Debug, Default)]
pub(crate) struct PublishVerdicts {
    /// The shared §3 chain plan, per derived predicate.
    chain: FxHashMap<Pred, SweepDecision>,
    /// Each §4 plan.
    nary: FxHashMap<(Pred, Adornment), SweepDecision>,
}

impl PublishVerdicts {
    /// What the publish decided for the plan that answers `pred` under
    /// `adornment` (a binary predicate of a chain program is served by
    /// the chain plan whatever its adornment).  A key no cached plan
    /// answers has nothing vouching for it: `Drop`.
    pub(crate) fn verdict(&self, pred: Pred, adornment: Adornment) -> SweepDecision {
        self.chain
            .get(&pred)
            .or_else(|| self.nary.get(&(pred, adornment)))
            .copied()
            .unwrap_or(SweepDecision::Drop)
    }
}

/// The table's one rule: clean carries; dirty is repaired or dropped.
fn fate(clean: bool, repaired: bool) -> SweepDecision {
    match (clean, repaired) {
        (true, _) => SweepDecision::Carry,
        (false, true) => SweepDecision::Repair,
        (false, false) => SweepDecision::Drop,
    }
}

/// A dirty plan's warm state, patched against the publish delta on
/// detached scratch: racing queries on the already-published snapshot
/// never observe a half-patched memo, because nothing lands in its
/// context until the whole repair has.
struct Patched {
    /// The plan's id in the machine memo.
    plan: u64,
    /// The patched fork of the previous epoch's probe space, under its
    /// slot (§4 only).
    space: Option<((Pred, Adornment), Arc<ProbeSpace>)>,
    /// The plan's machine memo, complete on the new database.
    memo: EvalContext,
    /// Memo and probe rows the repair added.
    rows: u64,
}

impl QueryService {
    /// Judge every cached plan against the publish `prev → snap`,
    /// install what survives into `snap`'s context, and return the
    /// verdict table.  `share_epoch_context: false` turns every install
    /// off and `delta_repair: false` every would-be Repair into a Drop,
    /// so the reference configurations keep their meaning.
    pub(crate) fn transition(&self, prev: &Snapshot, snap: &Snapshot) -> PublishVerdicts {
        let dirty = snap.dirty_preds();
        let fingerprint = snap.rules_fingerprint();
        let share = self.config.share_epoch_context;
        let repair = share && self.config.delta_repair && !snap.delta().is_empty();
        let mut verdicts = PublishVerdicts::default();
        if let Some(plan) = self.plans.peek_program(fingerprint) {
            let id = plan.compiled.id();
            let clean: FxHashMap<Pred, bool> = plan
                .system
                .lhs
                .iter()
                .map(|&pred| (pred, plan.read_set(pred).is_disjoint(dirty)))
                .collect();
            let repaired = repair && clean.values().any(|&c| !c) && {
                let _repair = obs::span("ingest.delta_repair");
                self.repair_chain_plan(prev, snap, &plan)
                    .is_some_and(|patched| self.adopt(snap, patched))
            };
            // A repair's scratch memo held the whole plan — clean
            // machines as they were, dirty ones patched — so only an
            // unrepaired plan carries its clean machines from `prev`.
            if share && !repaired {
                let _carry = obs::span("ingest.carry_context");
                let machines: FxHashSet<u32> = plan
                    .compiled
                    .machine_preds()
                    .into_iter()
                    .filter(|(_, pred)| clean[pred])
                    .map(|(machine, _)| machine)
                    .collect();
                snap.context()
                    .install(None, id, prev.context().eval(), |m| machines.contains(&m));
            }
            for (pred, clean) in clean {
                verdicts.chain.insert(pred, fate(clean, repaired));
            }
        }
        for (key, plan) in self.plans.cached_nary_plans(fingerprint) {
            let slot = (key.pred, key.adornment);
            let id = plan.compiled.id();
            let clean = plan.read_set(snap.program()).is_disjoint(dirty);
            let repaired = repair && !clean && {
                let _repair = obs::span("ingest.delta_repair");
                self.repair_nary_plan(prev, snap, slot, &plan)
                    .is_some_and(|patched| self.adopt(snap, patched))
            };
            if share && clean {
                let _carry = obs::span("ingest.carry_context");
                if let Some(space) = prev.context().peek_probe_space(slot.0, slot.1) {
                    let memo = prev.context().eval();
                    snap.context()
                        .install(Some((slot, space)), id, memo, |_| true);
                }
            }
            verdicts.nary.insert(slot, fate(clean, repaired));
        }
        verdicts
    }

    /// Install a finished repair and count it.  `false` — counted as a
    /// cold fallback — when a racing query's fresh probe space already
    /// holds the slot, so the patched fork cannot be spliced under it.
    fn adopt(&self, snap: &Snapshot, patched: Patched) -> bool {
        let context = snap.context();
        let installed = context.install(patched.space, patched.plan, &patched.memo, |_| true);
        if installed {
            self.counters.delta_repairs.inc();
            self.counters.delta_repaired_rows.add(patched.rows);
        } else {
            self.counters.delta_fallback_cold.inc();
        }
        installed
    }

    /// An honest cold fallback: the delta could not be propagated
    /// through a warm plan, which is left for drop-and-re-derive.
    fn refuse_repair(&self) -> Option<Patched> {
        self.counters.delta_fallback_cold.inc();
        None
    }

    /// Repair the dirty §3 chain plan's machine memos against the new
    /// database.  `None` without a count means nothing was warm.
    fn repair_chain_plan(
        &self,
        prev: &Snapshot,
        snap: &Snapshot,
        plan: &ProgramPlan,
    ) -> Option<Patched> {
        // The delta as label pairs.  Chain labels are binary relations,
        // so rows of any other arity cannot concern this plan.
        let pairs: FxHashMap<Pred, Vec<(Const, Const)>> = snap
            .delta()
            .added()
            .iter()
            .filter(|(_, rows)| rows.iter().all(|r| r.len() == 2))
            .map(|(&pred, rows)| (pred, rows.iter().map(|r| (r[0], r[1])).collect()))
            .collect();
        let memo = EvalContext::new();
        let plan_id = plan.compiled.id();
        if memo.carry_from(prev.context().eval(), |p, _| p == plan_id) == 0 {
            return None;
        }
        let source = EdbSource::new(snap.db());
        let evaluator =
            Evaluator::with_plan(&plan.system, &plan.compiled, &source).with_context(&memo);
        let outcome = evaluator.repair(&pairs, &self.budgeted_options());
        if !outcome.repaired {
            return self.refuse_repair();
        }
        Some(Patched {
            plan: plan_id,
            space: None,
            memo,
            rows: outcome.added_rows,
        })
    }

    /// Repair one dirty §4 plan: re-derive the delta's consequences on
    /// the plan's virtual relations (semi-naive rule firings seeded by
    /// the delta), patch them into a **fork** of the previous epoch's
    /// probe space, then repair the machine memos over the patched
    /// virtual pairs.  `None` without a count means nothing was warm.
    fn repair_nary_plan(
        &self,
        prev: &Snapshot,
        snap: &Snapshot,
        slot: (Pred, Adornment),
        plan: &NaryPlan,
    ) -> Option<Patched> {
        let prev_space = prev.context().peek_probe_space(slot.0, slot.1)?;
        let fork = Arc::new(prev_space.fork());
        let delta_rels: FxHashMap<Pred, Relation> = snap
            .delta()
            .added()
            .iter()
            .map(|(&pred, rows)| {
                let arity = snap.program().arity(pred);
                (
                    pred,
                    Relation::from_rows(arity, rows.iter().map(Vec::as_slice)),
                )
            })
            .collect();
        let mut counters = Counters::default();
        let vpairs = rq_adorn::delta_pairs(
            snap.program(),
            snap.db(),
            &plan.binary,
            &fork,
            &delta_rels,
            &mut counters,
        );
        self.note_probes(&counters);
        let Some(vpairs) = vpairs else {
            return self.refuse_repair();
        };
        // Patch the probe memos first: the machine repair's closures
        // read the virtual relations through them.
        let mut patched_rows = 0u64;
        for (&vpred, vp) in &vpairs {
            patched_rows += fork.patch_pairs(vpred, vp);
        }
        let memo = EvalContext::new();
        let plan_id = plan.compiled.id();
        memo.carry_from(prev.context().eval(), |p, _| p == plan_id);
        let source = VirtualSource::with_space(snap.program(), snap.db(), &plan.binary, &fork);
        let evaluator =
            Evaluator::with_plan(&plan.binary.system, &plan.compiled, &source).with_context(&memo);
        let outcome = evaluator.repair(&vpairs, &self.budgeted_options());
        if !outcome.repaired {
            return self.refuse_repair();
        }
        Some(Patched {
            plan: plan_id,
            space: Some((slot, fork)),
            memo,
            rows: outcome.added_rows + patched_rows,
        })
    }

    /// Re-derive one swept-for-repair spec on the fresh snapshot (warm:
    /// teleports through the repaired memos, not traversals) and
    /// re-insert it with a fresh byte charge.  Internal maintenance: it
    /// bumps neither the query counter nor the cache hit/miss stats, so
    /// a repeated-variable spec takes its distinct-variable base answer
    /// from here rather than through `evaluate_spec`'s counted
    /// `query_on` — and an entry this publish already put back (as
    /// some diagonal's base) is reused, not evaluated twice.  The one
    /// exception is a non-regular all-pairs entry, whose per-source
    /// point sub-queries are served — and counted — as the real
    /// evaluations they are.
    pub(crate) fn rederive(&self, snap: &Snapshot, spec: &QuerySpec) -> Option<CachedResult> {
        let key = ResultKey {
            epoch: snap.epoch(),
            spec: spec.clone(),
        };
        if let Some(fresh) = self.results.peek(&key) {
            return Some(fresh);
        }
        let result = if spec.has_repeats() {
            let base = self.rederive(snap, &spec.with_distinct_frees())?;
            CachedResult {
                rows: Arc::new(spec.restrict_rows(&base.rows)),
                ..base
            }
        } else {
            self.evaluate_spec(snap, spec).ok()?.0
        };
        self.results.insert(key, result.clone());
        Some(result)
    }
}
