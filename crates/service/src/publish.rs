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
//! * **Drop** — dirty, and repair had nothing warm to work on or
//!   refused (counted in `rq_delta_fallback_cold_total`).
//!
//! The same pass installs each Carry / Repair plan's state into the new
//! snapshot's context through `EpochContext::install`, so a plan's
//! memo and its probe space meet one fate by construction.  The memo
//! is the service's one store of answers: a query whose plan carried
//! or was repaired is answered from it on the new epoch without a
//! traversal, and one whose plan dropped re-derives cold.
//!
//! Granularity follows what each memo key can vouch for.  The §3 chain
//! plan is one compiled unit shared by every binary predicate of the
//! program, so its fate is decided **per machine** (machine → predicate
//! → read-set): an ingest into `e` dirties `tc`'s machines
//! while `rc`-over-`f` carries.  Each §4 plan carries, is repaired or
//! drops **wholesale**, always together with its probe space.

use crate::plan::ProgramPlan;
use crate::service::QueryService;
use crate::snapshot::Snapshot;
use crate::spec::Adornment;
use rq_adorn::{NaryPlan, ProbeSpace, VirtualSource};
use rq_common::{obs, Const, Counters, FxHashMap, Pred};
use rq_datalog::Relation;
use rq_engine::{EdbSource, EvalContext, Evaluator};
use std::sync::Arc;

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
    /// Judge every cached plan against the publish `prev → snap` and
    /// install what survives into `snap`'s context.
    pub(crate) fn transition(&self, prev: &Snapshot, snap: &Snapshot) {
        let dirty = snap.dirty_preds();
        let repair = !snap.delta().is_empty();
        if let Some(plan) = self.plans.peek_program() {
            let id = plan.compiled.id();
            let stale = plan.compiled.stale_machines(&plan.system, dirty);
            let repaired = repair && !stale.is_empty() && {
                let _repair = obs::span("ingest.delta_repair");
                self.repair_chain_plan(prev, snap, plan)
                    .is_some_and(|patched| self.adopt(snap, patched))
            };
            // A repair's scratch memo held the whole plan — clean
            // machines as they were, dirty ones patched — so only an
            // unrepaired plan carries its clean machines from `prev`.
            if !repaired {
                let _carry = obs::span("ingest.carry_context");
                snap.context()
                    .install(None, id, prev.context().eval(), |m| !stale.contains(&m));
            }
        }
        for (slot, plan) in self.plans.cached_nary_plans() {
            if plan.read_set(snap.program()).is_disjoint(dirty) {
                let _carry = obs::span("ingest.carry_context");
                if let Some(space) = prev.context().peek_probe_space(slot.0, slot.1) {
                    let (id, memo) = (plan.compiled.id(), prev.context().eval());
                    snap.context()
                        .install(Some((slot, space)), id, memo, |_| true);
                }
            } else if repair {
                let _repair = obs::span("ingest.delta_repair");
                if let Some(patched) = self.repair_nary_plan(prev, snap, slot, &plan) {
                    self.adopt(snap, patched);
                }
            }
        }
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
        let source = EdbSource::new(snap.db());
        let (memo, outcome) = Evaluator::with_plan(&plan.system, &plan.compiled, &source)
            .repair_detached(prev.context().eval(), &pairs, &self.budgeted_options());
        if !outcome.repaired {
            return self.refuse_repair();
        }
        // Nothing of this plan was warm: nothing to install or count.
        if memo.entries() == 0 {
            return None;
        }
        Some(Patched {
            plan: plan.compiled.id(),
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
        self.note_counters(&counters);
        let Some(vpairs) = vpairs else {
            return self.refuse_repair();
        };
        // Patch the probe memos first: the machine repair's closures
        // read the virtual relations through them.
        let mut patched_rows = 0u64;
        for (&vpred, vp) in &vpairs {
            patched_rows += fork.patch_pairs(vpred, vp);
        }
        let source = VirtualSource::with_space(snap.program(), snap.db(), &plan.binary, &fork);
        let (memo, outcome) = Evaluator::with_plan(&plan.binary.system, &plan.compiled, &source)
            .repair_detached(prev.context().eval(), &vpairs, &self.budgeted_options());
        if !outcome.repaired {
            return self.refuse_repair();
        }
        Some(Patched {
            plan: plan.compiled.id(),
            space: Some((slot, fork)),
            memo,
            rows: outcome.added_rows + patched_rows,
        })
    }
}
