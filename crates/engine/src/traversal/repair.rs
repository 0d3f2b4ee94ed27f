//! Delta repair: the semi-naive extension of the Figures 4–5 traversal
//! that keeps an epoch's machine memo exact across a publish.
//!
//! The paper evaluates a query against one fixed database.  A serving
//! layer publishes new database versions, and each publish only adds
//! tuples, so a converged memo entry of the previous version is still a
//! subset of the new answer set.  [`Evaluator::repair`] extends it with
//! the answers the added tuples prove, instead of re-deriving it.
//!
//! Which entries a publish makes stale is one rule,
//! [`CompiledPlan::stale_machines`]: machine `m` is stale when the
//! read-set ([`EqSystem::read_set`]) of `m`'s predicate meets the dirty
//! predicates.  The repair works on exactly those machines, and the
//! serving layer's publish pass carries the others.

use super::{CompiledPlan, EvalOptions, Evaluator, MachineKey};
use crate::context::EvalContext;
use crate::source::TupleSource;
use rq_automata::Label;
use rq_common::{Const, FxHashMap, FxHashSet, Pred};
use rq_relalg::EqSystem;
use std::sync::Arc;

/// Safety valve on [`Evaluator::repair`]'s lift rounds.  Each round
/// peels one level of machine-splice nesting, so real repairs finish in
/// a handful; tripping the cap means something pathological and the
/// repair falls back to a purge.
const MAX_REPAIR_ROUNDS: u32 = 64;

/// Memoized repair-closure results: `(machine, seed state, seed term)` →
/// complete sorted answer set, or `None` when the traversal's budgets
/// truncated that closure.
type ClosureCache = FxHashMap<(u32, u32, Const), Option<Arc<Vec<Const>>>>;

impl CompiledPlan {
    /// The machines whose [`EvalContext`] entries a publish of `dirty`
    /// makes stale: both orientations of every derived predicate whose
    /// read-set ([`EqSystem::read_set`]) meets `dirty`.  `system` is
    /// the equation system this plan was compiled from.  This is the
    /// one staleness rule: [`Evaluator::repair`] repairs these machines
    /// and the serving layer carries every other machine's entries.
    pub fn stale_machines(&self, system: &EqSystem, dirty: &FxHashSet<Pred>) -> FxHashSet<u32> {
        let mut stale = FxHashSet::default();
        for &pred in &system.lhs {
            if !system.read_set(pred).is_disjoint(dirty) {
                for inverted in [false, true] {
                    stale.insert(self.machine_index[&MachineKey { pred, inverted }]);
                }
            }
        }
        stale
    }

    /// For every machine, the derived-label transitions that splice a
    /// given child machine: `child machine → [(machine, from state, to
    /// state)]`.  The repair loop uses this to lift a child machine's
    /// new `(entry, answer)` pairs into frontier edges of its parents.
    fn derived_routes(&self) -> FxHashMap<u32, Vec<(u32, u32, u32)>> {
        let mut routes: FxHashMap<u32, Vec<(u32, u32, u32)>> = FxHashMap::default();
        for (mi, m) in self.machines.iter().enumerate() {
            for (s, trans) in m.trans.iter().enumerate() {
                for &(label, to) in trans {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => continue,
                    };
                    if !self.derived.contains(&r) {
                        continue;
                    }
                    let child = self.machine_index[&MachineKey { pred: r, inverted }];
                    routes
                        .entry(child)
                        .or_default()
                        .push((mi as u32, s as u32, to as u32));
                }
            }
        }
        routes
    }
}

impl<S: TupleSource> Evaluator<'_, S> {
    /// Semi-naive delta repair: given the per-predicate tuple pairs a
    /// publish **added** and this evaluator's [`EvalContext`], extend
    /// every affected memo entry's answer set in place instead of
    /// discarding it.  The source this evaluator wraps must already
    /// read the **new** database version.
    ///
    /// New tuples only ever add derivation paths (ingests are monotone:
    /// no deletions, no rule changes), so each converged answer set is
    /// repaired by closing over the new paths:
    ///
    /// 1. every delta tuple lights up the base-label transitions that
    ///    read its predicate, giving *frontier edges* `(s, u) → (t, v)`
    ///    inside each affected machine;
    /// 2. a backward closure in the partner (inverse) machine finds the
    ///    entry terms `α` that reach the edge, and a forward closure
    ///    from its head finds the finish terms `w` it now proves — both
    ///    run the full generalized traversal over the new database, so
    ///    spliced sub-machines see the delta too;
    /// 3. each genuinely new pair `(α, w)` of a machine is lifted onto
    ///    the derived-label transitions that splice that machine,
    ///    becoming the next round's frontier — rounds peel one level of
    ///    recursion nesting and stop when nothing new appears.
    ///
    /// Memo teleports through affected machines are banned while the
    /// closures run (their entries are the stale state being patched).
    /// If any closure fails to converge within `options`' budgets, or
    /// the round cap trips, the affected entries are purged instead and
    /// `repaired: false` tells the caller to fall back cold.
    pub fn repair(
        &self,
        delta: &FxHashMap<Pred, Vec<(Const, Const)>>,
        options: &EvalOptions,
    ) -> RepairOutcome {
        let Some(ctx) = self.ctx else {
            return RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            };
        };
        let plan = self.plan.get();
        let dirty: FxHashSet<Pred> = delta.keys().copied().collect();
        let affected = plan.stale_machines(self.system, &dirty);
        let roots = ctx.roots_for(plan.id, &affected);
        if affected.is_empty() || roots.is_empty() {
            return RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            };
        }
        let span = rq_common::obs::span("engine.repair");
        // Snapshot the pre-repair entries: a pair already present was
        // propagated by the old fixpoint (parents reflect all its
        // consequences), so it neither re-frontiers nor needs patching.
        let mut old_entries: FxHashMap<(u32, Const), Vec<Const>> = FxHashMap::default();
        for &(m, c) in &roots {
            if let Some(entry) = ctx.peek(plan.id, m, c) {
                old_entries.insert((m, c), entry);
            }
        }
        let closure_options = EvalOptions {
            stop_on_answer: None,
            record_iterations: false,
            record_graph: false,
            ..options.clone()
        };
        let routes = plan.derived_routes();
        let memo = ctx.view(plan.id);

        // (machine, entry term) → new finish terms accumulated so far.
        let mut additions: FxHashMap<(u32, Const), FxHashSet<Const>> = FxHashMap::default();
        // Frontier edges (machine, tail state, head state, tail term,
        // head term).  Round 1: the delta tuples themselves, oriented
        // by the transition label that reads them.
        let mut frontier: Vec<(u32, u32, u32, Const, Const)> = Vec::new();
        for (mi, m) in plan.machines.iter().enumerate() {
            for (s, trans) in m.trans.iter().enumerate() {
                for &(label, t) in trans {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => continue,
                    };
                    if plan.derived.contains(&r) {
                        continue;
                    }
                    let Some(pairs) = delta.get(&r) else { continue };
                    for &(u, v) in pairs {
                        let (tail, head) = if inverted { (v, u) } else { (u, v) };
                        frontier.push((mi as u32, s as u32, t as u32, tail, head));
                    }
                }
            }
        }

        // One repair closure: the complete answer set of `machine`
        // seeded at `(state, term)`, shared across frontier edges with
        // the same seed.  `None` marks a closure the budgets truncated
        // (partial sets must never be patched into the memo).
        let mut closures = ClosureCache::default();
        let mut closure_nodes = 0u64;
        let mut closure = |machine: u32, state: u32, term: Const| {
            if let Some(hit) = closures.get(&(machine, state, term)) {
                return hit.clone();
            }
            let seeds = [(state, term)];
            let (outcome, _) = self.traverse_from(
                machine,
                &seeds,
                &closure_options,
                Some(memo),
                Some(&affected),
            );
            closure_nodes += outcome.counters.nodes_inserted;
            let result = outcome.converged.then(|| Arc::new(outcome.answers));
            closures.insert((machine, state, term), result.clone());
            result
        };
        let mut failed = false;
        let mut rounds = 0u32;
        'rounds: while !frontier.is_empty() {
            rounds += 1;
            if rounds > MAX_REPAIR_ROUNDS {
                failed = true;
                break;
            }
            for (mi, s, t, tail, head) in std::mem::take(&mut frontier) {
                // Entry terms that reach the edge's tail: a closure in
                // the partner machine, the exact reversal (same state
                // indices; its finals are our starts).
                let Some(entries) = closure(mi ^ 1, s, tail) else {
                    failed = true;
                    break 'rounds;
                };
                if entries.is_empty() {
                    continue;
                }
                let Some(finishes) = closure(mi, t, head) else {
                    failed = true;
                    break 'rounds;
                };
                // Lift: a new pair of machine `mi` becomes a frontier
                // edge on every derived transition that splices `mi`.
                let lifts = routes.get(&mi);
                for &alpha in entries.iter() {
                    let old = old_entries.get(&(mi, alpha));
                    // `patch` leaves a missing entry missing, so a pair
                    // matters only to a memoized root or to a parent
                    // machine — of thousands of upstream terms, a few.
                    if old.is_none() && lifts.is_none() {
                        continue;
                    }
                    for &w in finishes.iter() {
                        if old.is_some_and(|e| e.binary_search(&w).is_ok()) {
                            continue;
                        }
                        if additions.entry((mi, alpha)).or_default().insert(w) {
                            for &(parent, s, t) in lifts.into_iter().flatten() {
                                frontier.push((parent, s, t, alpha, w));
                            }
                        }
                    }
                }
            }
        }

        // What the publish paid for, whether it patched or fell back.
        if span.active() {
            span.note("roots", roots.len());
            span.note("closures", closures.len());
            span.note("closure_nodes", closure_nodes);
        }
        if failed {
            let purged = ctx.purge(plan.id, &affected) as u64;
            span.note("fallback", true);
            span.note("purged", purged);
            return RepairOutcome {
                purged_entries: purged,
                ..RepairOutcome::default()
            };
        }
        let mut out = RepairOutcome {
            repaired: true,
            ..RepairOutcome::default()
        };
        for ((machine, from), to) in additions {
            let added = ctx.patch(plan.id, machine, from, &to);
            if added > 0 {
                out.patched_entries += 1;
                out.added_rows += added;
            }
        }
        if span.active() {
            span.note("rounds", rounds);
            span.note("patched", out.patched_entries);
            span.note("rows", out.added_rows);
        }
        out
    }

    /// [`Self::repair`] on detached scratch: a fresh [`EvalContext`]
    /// receives this plan's entries of `prev` (the previous epoch's
    /// memo), is repaired against `delta`, and is returned with the
    /// outcome.  Nothing is written to `prev`, so readers of the
    /// previous epoch never observe a half-patched memo; the caller
    /// installs the returned memo once it has the whole repair.  The
    /// memo holds no entry when `prev` held none of this plan's.
    pub fn repair_detached(
        &self,
        prev: &EvalContext,
        delta: &FxHashMap<Pred, Vec<(Const, Const)>>,
        options: &EvalOptions,
    ) -> (EvalContext, RepairOutcome) {
        let memo = EvalContext::new();
        let plan = self.plan.get();
        memo.carry_from(prev, |p, _| p == plan.id);
        let outcome = Evaluator::with_plan(self.system, plan, self.source)
            .with_context(&memo)
            .repair(delta, options);
        (memo, outcome)
    }
}

/// What [`Evaluator::repair`] did to the epoch memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Memo entries whose answer sets grew.
    pub patched_entries: u64,
    /// Total answers added across patched entries.
    pub added_rows: u64,
    /// Entries purged because the repair fell back (0 on success).
    pub purged_entries: u64,
    /// Whether the memo is again complete for the new database version.
    /// `false` means the affected entries were purged instead and the
    /// caller should treat the plan as cold.
    pub repaired: bool,
}

#[cfg(test)]
mod tests {
    use super::super::tests::names;
    use super::*;
    use crate::source::EdbSource;
    use rq_datalog::{parse_program, Database};
    use rq_relalg::{lemma1, Lemma1Options};

    /// Shared fixture for the repair tests: compile one plan for `src`,
    /// warm-evaluate `queries` against `src`'s facts recording into a
    /// context, then hand back everything needed to repair against the
    /// extended database `src + delta_facts`.
    fn repair_fixture(
        src: &str,
        delta_facts: &str,
    ) -> (rq_datalog::Program, Database, Database, rq_relalg::EqSystem) {
        let program = parse_program(src).unwrap();
        let db_old = Database::from_program(&program);
        let extended = parse_program(&format!("{src}\n{delta_facts}")).unwrap();
        // Appending facts that reuse existing constants keeps pred and
        // const ids identical across the two programs.
        assert_eq!(program.preds.len(), extended.preds.len());
        assert_eq!(program.consts.len(), extended.consts.len());
        let db_new = Database::from_program(&extended);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        (program, db_old, db_new, sys)
    }

    #[test]
    fn repair_extends_a_chain_memo_to_match_cold_reevaluation() {
        let (program, db_old, db_new, sys) = repair_fixture(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c). e(d,f).",
            "e(c,d).",
        );
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (a, c, d) = (get("a"), get("c"), get("d"));
        let opts = EvalOptions::default();

        let old_source = EdbSource::new(&db_old);
        let warm = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        let before = warm.evaluate(tc, a, &opts);
        assert_eq!(names(&program, &before.answers), vec!["b", "c"]);
        assert!(warm.evaluate_inverse(tc, d, &opts).converged);

        // The publish adds e(c,d): a is now connected to d and f.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(c, d)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert!(repaired.repaired);
        assert!(repaired.patched_entries >= 2, "forward and inverse roots");
        assert!(repaired.added_rows >= 2);

        // The repaired entries answer straight from the memo and match
        // a cold evaluation over the new database exactly.
        let post = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate(tc, a, &opts);
        assert_eq!(post.memo_teleports, 1, "root memo hit");
        assert_eq!(post.counters.nodes_inserted, 0);
        let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(tc, a, &opts);
        assert_eq!(
            names(&program, &post.answers),
            names(&program, &cold.answers)
        );
        assert_eq!(names(&program, &post.answers), vec!["b", "c", "d", "f"]);
        let post_inv = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate_inverse(tc, d, &opts);
        let cold_inv =
            Evaluator::with_plan(&sys, &plan, &new_source).evaluate_inverse(tc, d, &opts);
        assert_eq!(
            names(&program, &post_inv.answers),
            names(&program, &cold_inv.answers)
        );
    }

    /// Naughton's nonregular mutual recursion: q2 = r2 ∪ a·q2·r1.  The
    /// machines splice each other, so repairing the memoized `q1(s, Y)`
    /// entry after an `a` delta needs the full pipeline: closures that
    /// cross derived transitions (splicing sub-machines against the new
    /// database) and several lift rounds to carry new `q2` pairs up
    /// into `q1`'s entry.
    const NAUGHTON_SRC: &str = "q1(X,Z) :- a(X,Y), q2(Y,Z).\n\
        q2(X,Y) :- r2(X,Y).\n\
        q2(X,Z) :- q1(X,Y), r1(Y,Z).\n\
        a(s,t). a(t,u).\n\
        r2(u,v). r1(v,w). r1(w,x0).\n\
        r2(u2,v2). r1(v2,w2). r1(w2,x2).";

    #[test]
    fn repair_lifts_delta_pairs_through_spliced_machines() {
        // The delta edge a(u,u2) connects the reachable region to the
        // dormant u2 branch: q1(s, Y) gains x2 only through derivations
        // nested several splices deep.
        let (program, db_old, db_new, sys) = repair_fixture(NAUGHTON_SRC, "a(u,u2).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let q1 = program.pred_by_name("q1").unwrap();
        let a_pred = program.pred_by_name("a").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (s, u, u2) = (get("s"), get("u"), get("u2"));
        let opts = EvalOptions::default();

        let old_source = EdbSource::new(&db_old);
        let before = Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(q1, s, &opts);
        assert!(before.converged);

        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(a_pred, vec![(u, u2)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert!(repaired.repaired);
        assert!(repaired.added_rows >= 1);

        let post = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate(q1, s, &opts);
        assert_eq!(post.memo_teleports, 1, "root memo hit");
        assert_eq!(post.counters.nodes_inserted, 0);
        let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(q1, s, &opts);
        assert_eq!(
            names(&program, &post.answers),
            names(&program, &cold.answers)
        );
        assert!(
            post.answers.len() > before.answers.len(),
            "the delta must actually extend the answer set"
        );
    }

    #[test]
    fn memo_payloads_carry_no_growth_slack() {
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..1030 {
            src.push_str(&format!("e(n{}, n{}).\n", i, i + 1));
        }
        let (program, db_old, db_new, sys) = repair_fixture(&src, "e(n1030, n0).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (n0, n1030) = (get("n0"), get("n1030"));
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let out = Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(tc, n0, &opts);
        // The walk pushed 1,030 answers one by one; the memo holds
        // exactly those 1,030 words.
        assert_eq!(out.answers.len(), 1030);
        let machine = plan.machine_index[&MachineKey {
            pred: tc,
            inverted: false,
        }];
        let recorded = ctx.peek(plan.id(), machine, n0).unwrap();
        assert_eq!(recorded, out.answers);
        assert_eq!(ctx.store.words(), 1030);
        // So does a patched entry (the delta closes the chain into a
        // ring: n0 now reaches itself, sorting first): one exact copy
        // of 1,031 words beside the superseded 1,030.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(n1030, n0)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert_eq!(repaired.added_rows, 1);
        let patched = ctx.peek(plan.id(), machine, n0).unwrap();
        assert_eq!(patched.len(), 1031);
        assert_eq!(ctx.store.words(), 1030 + 1031);
    }

    #[test]
    fn repair_patches_memoized_roots_only() {
        // A 1,000-node chain into `hub`, three memoized roots along it,
        // and a delta edge leaving `hub`: the backward closure finds
        // every chain node upstream of the new edge, but only the three
        // memoized ones have an entry to patch — what the repair
        // reports must not depend on how the other 997 are skipped.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..999 {
            src.push_str(&format!("e(n{}, n{}).\n", i, i + 1));
        }
        src.push_str("e(n999, hub). e(out, far). e(far, away).");
        let (program, db_old, db_new, sys) = repair_fixture(&src, "e(hub, out).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let warm = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        let roots = [get("n0"), get("n500"), get("n999")];
        for &root in &roots {
            assert!(warm.evaluate(tc, root, &opts).converged);
        }
        assert_eq!(ctx.stats().entries, 3);

        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(get("hub"), get("out"))]);
        let new_source = EdbSource::new(&db_new);
        let new_eval = Evaluator::with_plan(&sys, &plan, &new_source).with_context(&ctx);
        let repaired = new_eval.repair(&delta, &opts);
        // Each root gains {out, far, away}.
        assert_eq!(
            repaired,
            RepairOutcome {
                patched_entries: 3,
                added_rows: 9,
                purged_entries: 0,
                repaired: true,
            }
        );
        assert_eq!(ctx.stats().entries, 3, "no entry appears for the other 997");
        for &root in &roots {
            let post = new_eval.evaluate(tc, root, &opts);
            assert_eq!(post.memo_teleports, 1, "root memo hit");
            let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(tc, root, &opts);
            assert_eq!(post.answers, cold.answers);
        }
    }

    #[test]
    fn truncated_repair_purges_instead_of_patching() {
        let (program, db_old, db_new, sys) = repair_fixture(NAUGHTON_SRC, "a(u,u2).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let q1 = program.pred_by_name("q1").unwrap();
        let a_pred = program.pred_by_name("a").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (s, u, u2) = (get("s"), get("u"), get("u2"));

        let old_source = EdbSource::new(&db_old);
        Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(q1, s, &EvalOptions::default());
        assert_eq!(ctx.stats().entries, 1);

        // One iteration is not enough for closures that must splice a
        // sub-machine, so the repair cannot complete — the stale entry
        // must be purged, never half-patched.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(a_pred, vec![(u, u2)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(
                &delta,
                &EvalOptions {
                    max_iterations: Some(1),
                    ..EvalOptions::default()
                },
            );
        assert!(!repaired.repaired);
        assert_eq!(repaired.purged_entries, 1);
        assert_eq!(repaired.patched_entries, 0);
        assert_eq!(ctx.stats().entries, 0);
    }

    #[test]
    fn repair_without_affected_entries_is_a_no_op() {
        let (program, db_old, _db_new, sys) = repair_fixture(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). g(b,c).",
            "g(a,c).",
        );
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let g = program.pred_by_name("g").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let c = program
            .consts
            .get(&rq_common::ConstValue::Str("c".into()))
            .unwrap();
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let ev = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        ev.evaluate(tc, a, &opts);

        // g is not read by tc's machines: nothing is affected, nothing
        // is touched.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(g, vec![(a, c)]);
        let repaired = ev.repair(&delta, &opts);
        assert!(repaired.repaired);
        assert_eq!(
            repaired,
            RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            }
        );
        assert_eq!(ctx.stats().entries, 1);
    }

    /// The staleness rule [`CompiledPlan::stale_machines`] replaced,
    /// kept as its reference: machines whose traversals can consult a
    /// predicate of `dirty` directly through a base-label transition,
    /// or transitively by splicing a stale child machine, to a fixpoint
    /// over machine labels.
    fn label_fixpoint(plan: &CompiledPlan, dirty: &FxHashSet<Pred>) -> FxHashSet<u32> {
        let mut affected: FxHashSet<u32> = FxHashSet::default();
        for (idx, m) in plan.machines.iter().enumerate() {
            let direct = m.trans.iter().flatten().any(|&(label, _)| match label {
                Label::Sym(r) | Label::Inv(r) => !plan.derived.contains(&r) && dirty.contains(&r),
                Label::Id => false,
            });
            if direct {
                affected.insert(idx as u32);
            }
        }
        loop {
            let mut grew = false;
            for (idx, m) in plan.machines.iter().enumerate() {
                if affected.contains(&(idx as u32)) {
                    continue;
                }
                let routes = m.trans.iter().flatten().any(|&(label, _)| {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => return false,
                    };
                    plan.derived.contains(&r)
                        && affected.contains(&plan.machine_index[&MachineKey { pred: r, inverted }])
                });
                if routes {
                    affected.insert(idx as u32);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        affected
    }

    /// For every single dirty predicate in `candidates`, the read-set
    /// rule marks exactly the machines the label fixpoint marks.
    fn assert_stale_matches_label_fixpoint(
        system: &EqSystem,
        candidates: impl IntoIterator<Item = Pred>,
    ) -> usize {
        let plan = CompiledPlan::compile(system);
        let mut marked = 0;
        for pred in candidates {
            let dirty: FxHashSet<Pred> = [pred].into_iter().collect();
            let stale = plan.stale_machines(system, &dirty);
            assert_eq!(stale, label_fixpoint(&plan, &dirty), "dirty {pred:?}");
            marked += stale.len();
        }
        marked
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random binary-chain programs of every recursion style, each
        /// base predicate dirty on its own.
        #[test]
        fn stale_machines_match_the_label_fixpoint_on_chain_programs(
            seed in 0u64..400,
            style_pick in 0usize..3,
        ) {
            use rq_workloads::randprog::{seeded, RecursionStyle};
            let style = [RecursionStyle::Regular, RecursionStyle::MiddleLinear, RecursionStyle::Mixed]
                [style_pick];
            let program = seeded(seed, style).program;
            let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
            let derived = system.derived();
            let base = program.preds.ids().filter(|p| !derived.contains(p));
            proptest::prop_assert!(assert_stale_matches_label_fixpoint(&system, base) > 0);
        }
    }

    /// The §4 plans of the flights workload and of random n-ary linear
    /// programs: every virtual predicate, and every base predicate of
    /// the original program, dirty on its own.
    #[test]
    fn stale_machines_match_the_label_fixpoint_on_nary_plans() {
        use rq_adorn::{plan_nary_query, Adornment};
        use rq_datalog::Query;
        use rq_workloads::flights;
        use rq_workloads::randprog::{random_nary_program, NaryConfig};
        let mut cases = vec![
            (
                flights::paper_example().program,
                vec![flights::paper_example().query],
            ),
            (
                flights::network(4, 2, 7).program,
                flights::serve_queries(4, 2),
            ),
        ];
        for seed in 0..8 {
            let np = random_nary_program(&NaryConfig {
                seed,
                ..NaryConfig::default()
            });
            cases.push((np.program, np.queries));
        }
        let mut marked = 0;
        for (mut program, queries) in cases {
            for text in &queries {
                let query = Query::parse(&mut program, text).unwrap();
                let plan =
                    plan_nary_query(&program, query.pred, Adornment::of_query(&query)).unwrap();
                let candidates = plan
                    .binary
                    .virtuals
                    .keys()
                    .copied()
                    .chain(program.preds.ids());
                marked += assert_stale_matches_label_fixpoint(&plan.binary.system, candidates);
            }
        }
        assert!(marked > 0, "some virtual predicate must mark a machine");
    }
}
