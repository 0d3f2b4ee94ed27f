//! Soundness of the epoch-scoped evaluation context:
//!
//! * **memo soundness** — a warm-epoch batch (shared machine memo,
//!   shared virtual-probe memo, shared-SCC all-free routing) answers
//!   exactly like a cold reference, a fresh service per query, on
//!   random n-ary programs;
//! * **epoch isolation** — publishing a new epoch invalidates every
//!   context entry whose plan reads a dirtied shard; entries may only
//!   carry across the publish when their whole read-set was untouched,
//!   or enter through a counted repair;
//! * **repair soundness** — a warm service that lives through random
//!   small ingests answers exactly like the cold reference on the
//!   grown program, whether each dirty plan was repaired in place or
//!   fell back cold;
//! * **one fate per plan** — across a publish, a cached plan's
//!   memoized answers and its context state (machine memo / probe
//!   space) are carried, repaired or dropped *together*.

use proptest::prelude::*;
use rq_common::{Const, FxHashSet, Pred};
use rq_datalog::Program;
use rq_engine::EvalOptions;
use rq_service::{QueryService, QuerySpec, ServiceAnswer, ServiceConfig, Snapshot};
use rq_workloads::randprog::{
    random_nary_program, random_program, NaryConfig, RandProgConfig, RecursionStyle,
};

/// The cold reference: `spec` asked of a fresh service over
/// `program`, so it runs on an empty epoch context — a fresh probe
/// space and no memo entry.
fn cold_answer(program: &Program, spec: &QuerySpec) -> ServiceAnswer {
    QueryService::new(program.clone()).query(spec).unwrap()
}

/// Every `pred` tuple of `program`'s bottom-up fixpoint, sorted.
fn fixpoint_rows(program: &Program, pred: Pred) -> Vec<Vec<Const>> {
    rq_datalog::seminaive_eval(program).unwrap().tuples(pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Warm-epoch batched answers equal cold sequential answers on
    /// random graded n-ary programs, across every generated binding
    /// pattern (bff, ffb, bfb, bbb, fff), asked twice so the second
    /// round is answered from a fully warmed context.
    #[test]
    fn warm_batch_equals_cold_sequential(seed in 0u64..200) {
        let np = random_nary_program(&NaryConfig { seed, ..NaryConfig::default() });
        let warm = QueryService::new(np.program.clone());
        let specs: Vec<_> = np
            .queries
            .iter()
            .map(|t| warm.parse_query(t).unwrap())
            .collect();
        // Two rounds: the first populates the epoch context, the
        // second is served against a warm one.
        for round in 0..2 {
            let batch = warm.query_batch(&specs);
            for (spec, answer) in specs.iter().zip(batch) {
                let warm_answer = answer.unwrap();
                let cold_answer = cold_answer(&np.program, spec);
                prop_assert_eq!(
                    warm_answer.rows.as_ref(),
                    cold_answer.rows.as_ref(),
                    "round {} spec {:?}",
                    round,
                    spec
                );
                prop_assert_eq!(warm_answer.converged, cold_answer.converged);
            }
        }
        // The warmed context actually served repeats.
        let stats = warm.snapshot().context().stats();
        prop_assert!(stats.probe_hits + stats.eval_hits > 0);
    }

    /// Publishing an epoch invalidates every context entry that read a
    /// dirtied shard: answers after an ingest reflect the new facts
    /// even with result memoization off.  Entries are only allowed to
    /// enter the new snapshot's context when their plan's whole
    /// read-set was untouched by the publish, or through a counted
    /// repair — and whatever entered, post-publish answers must still
    /// match a cold re-derivation.
    #[test]
    fn publish_invalidates_dirty_read_set_context(seed in 0u64..200) {
        let np = random_nary_program(&NaryConfig { seed, ..NaryConfig::default() });
        let warm = QueryService::new(np.program.clone());
        let specs: Vec<_> = np
            .queries
            .iter()
            .map(|t| warm.parse_query(t).unwrap())
            .collect();
        // Warm the context thoroughly.
        warm.query_batch(&specs);
        let old_snapshot = warm.snapshot();
        let repairs = warm.stats_report().delta_repairs;
        // New edges through fresh constants reshape reachability.
        warm.ingest("b0(n0, n1). b0(n1, n2). b1(n0, n2).").unwrap();
        let fresh = warm.snapshot();
        prop_assert_eq!(fresh.epoch(), old_snapshot.epoch() + 1);
        // A cached plan whose read-set touches the dirtied b0/b1 may
        // put state into the fresh context only through a counted
        // repair (each §4 repair installs one probe space).
        let repaired = warm.stats_report().delta_repairs - repairs;
        let dirty = fresh.dirty_preds();
        let stats = fresh.context().stats();
        let plans = warm.plan_cache().cached_nary_plans();
        let (clean, dirty_plans): (Vec<_>, Vec<_>) = plans
            .iter()
            .partition(|(_, plan)| plan.read_set(fresh.program()).is_disjoint(dirty));
        let dirty_with_state = dirty_plans
            .iter()
            .filter(|((pred, adornment), _)| fresh.context().peek_probe_space(*pred, *adornment).is_some())
            .count();
        prop_assert!(dirty_with_state as u64 <= repaired, "{} > {}", dirty_with_state, repaired);
        if clean.is_empty() && repaired == 0 {
            prop_assert_eq!(stats.probe_entries, 0);
            prop_assert_eq!(stats.eval_carried, 0);
        }
        // Post-publish answers match the cold reference over the grown
        // program — a stale probe memo would miss the new facts.
        for spec in &specs {
            let warm_answer = warm.query(spec).unwrap();
            let cold_answer = cold_answer(fresh.program(), spec);
            prop_assert_eq!(warm_answer.rows.as_ref(), cold_answer.rows.as_ref());
        }
    }

    /// Delta-repair equivalence: a warm service that absorbs N random
    /// small ingests answers exactly like the cold reference on the
    /// grown program, so the repaired context is checked against the
    /// oracle.
    #[test]
    fn repairing_service_equals_cold_rebuild_after_random_ingests(seed in 0u64..60) {
        let np = random_nary_program(&NaryConfig { seed, ..NaryConfig::default() });
        let warm = QueryService::new(np.program.clone());
        let specs: Vec<_> = np
            .queries
            .iter()
            .map(|t| warm.parse_query(t).unwrap())
            .collect();
        // Warm the service so every publish finds state to repair.
        warm.query_batch(&specs);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..3u32 {
            let facts: String = (0..2)
                .map(|_| {
                    let pred = if next() % 2 == 0 { "b0" } else { "b1" };
                    format!("{pred}(n{}, n{}). ", next() % 6, next() % 6)
                })
                .collect();
            warm.ingest(&facts).unwrap();
            let grown = warm.snapshot();
            for spec in &specs {
                let oracle = cold_answer(grown.program(), spec);
                let repaired = warm.query(spec).unwrap();
                prop_assert_eq!(
                    repaired.rows.as_ref(),
                    oracle.rows.as_ref(),
                    "round {} context spec {:?}",
                    round,
                    spec
                );
            }
            // Re-warm so the next round's publish repairs fresh state.
            warm.query_batch(&specs);
        }
    }
}

#[test]
fn clean_read_set_machine_memo_survives_disjoint_publish() {
    // Two independent closures: tc reads only e, rc reads only f.  An
    // ingest into e must drop tc's machine memos but carry rc's into
    // the new epoch's context.  `nr` is not regular (e·nr·e), so
    // its repair closures need a second round, which a one-node
    // fallback budget refuses; the chain plan is repaired whole or not
    // at all, so tc drops with it, while both queries converge under
    // their m·n bound.
    const PROG: &str = "tc(X,Y) :- e(X,Y).\n\
                        tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                        rc(X,Y) :- f(X,Y).\n\
                        rc(X,Z) :- f(X,Y), rc(Y,Z).\n\
                        nr(X,Y) :- e(X,Y).\n\
                        nr(X,Y) :- e(X,X1), nr(X1,Y1), e(Y1,Y).\n\
                        e(a,b). e(b,c). f(m,n). f(n,o).";
    let service = QueryService::with_config(
        rq_datalog::parse_program(PROG).unwrap(),
        ServiceConfig {
            fallback_node_budget: Some(1),
            ..ServiceConfig::default()
        },
    );
    let rc_q = service.parse_query("rc(m, Y)").unwrap();
    let tc_q = service.parse_query("tc(a, Y)").unwrap();
    assert_eq!(service.query(&rc_q).unwrap().rows.len(), 2);
    assert_eq!(service.query(&tc_q).unwrap().rows.len(), 2);
    let before = service.snapshot().context().stats();
    assert!(before.eval_entries > 0, "queries warmed the machine memo");

    service.ingest("e(c,d).").unwrap();
    let report = service.stats_report();
    assert_eq!((report.delta_repairs, report.delta_fallback_cold), (0, 1));
    let snap = service.snapshot();
    let stats = snap.context().stats();
    assert!(stats.eval_carried > 0, "rc machines must carry: {stats:?}");
    assert!(
        (stats.eval_carried as usize) < before.eval_entries,
        "tc machines read the dirtied e and must be dropped: {stats:?}"
    );

    // The carried memo answers the clean-plan query at the root.
    let hits_before = snap.context().stats().eval_hits;
    let rc_after = service.query(&rc_q).unwrap();
    assert_eq!(rc_after.rows.len(), 2);
    assert!(
        snap.context().stats().eval_hits > hits_before,
        "warm answer must come from the carried machine memo"
    );
    // The dirty plan recomputes and sees the new edge.
    let tc_after = service.query(&tc_q).unwrap();
    assert_eq!(tc_after.rows.len(), 3, "tc must observe e(c,d)");
}

#[test]
fn clean_nary_probe_space_survives_disjoint_publish() {
    // A §4 plan over flight/is_deptime shares one program with a tc
    // chain over e.  Ingesting into e must carry the cnx plan's probe
    // space (and its machine memo) wholesale; the repeat query is then
    // served from warm probes on the new epoch.
    const PROG: &str = "tc(X,Y) :- e(X,Y).\n\
                        tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                        cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
                        cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
                        e(a,b). e(b,c).\n\
                        flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
                        is_deptime(540). is_deptime(720).";
    let service = QueryService::new(rq_datalog::parse_program(PROG).unwrap());
    let q = service.parse_query("cnx(hel, 540, D, AT)").unwrap();
    let cold = service.query(&q).unwrap();
    assert_eq!(cold.rows.len(), 2);
    let warmed = service.snapshot().context().stats();
    assert!(warmed.probe_entries > 0, "{warmed:?}");

    service.ingest("e(c,d).").unwrap();
    let snap = service.snapshot();
    let stats = snap.context().stats();
    assert_eq!(stats.probe_spaces_carried, 1, "{stats:?}");
    assert!(
        stats.probe_entries >= warmed.probe_entries,
        "carried probe space keeps its memo: {stats:?}"
    );
    let warm = service.query(&q).unwrap();
    assert_eq!(warm.rows.as_ref(), cold.rows.as_ref());
    assert_eq!(warm.epoch, 1);

    // An ingest into flight dirties the plan's read-set: its state may
    // enter the fresh context only through a counted repair, and the
    // answer sees the new leg either way.
    let repairs = service.stats_report().delta_repairs;
    service
        .ingest("flight(cdg,840,nce,930). is_deptime(840).")
        .unwrap();
    let repaired = service.stats_report().delta_repairs - repairs;
    let stats = service.snapshot().context().stats();
    assert_eq!(stats.probe_spaces_carried, repaired, "{stats:?}");
    if repaired == 0 {
        assert_eq!(stats.eval_carried, 0, "{stats:?}");
    }
    assert_eq!(service.query(&q).unwrap().rows.len(), 3);
}

#[test]
fn dirty_chain_memo_is_repaired_in_place() {
    // With delta repair on (the default), an ingest into `e` no longer
    // drops tc's machine memos: they are patched against the delta and
    // adopted into the new epoch's context, so the follow-up query is
    // a memo hit that already sees the new edge.
    const PROG: &str = "tc(X,Y) :- e(X,Y).\n\
                        tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                        e(a,b). e(b,c).";
    let service = QueryService::new(rq_datalog::parse_program(PROG).unwrap());
    let q = service.parse_query("tc(a, Y)").unwrap();
    assert_eq!(service.query(&q).unwrap().rows.len(), 2);
    let before = service.snapshot().context().stats();
    assert!(before.eval_entries > 0);

    service.ingest("e(c,d).").unwrap();
    let snap = service.snapshot();
    let stats = snap.context().stats();
    assert!(
        stats.eval_carried as usize >= before.eval_entries,
        "repaired tc memos must be adopted, not dropped: {stats:?}"
    );
    let hits_before = snap.context().stats().eval_hits;
    let after = service.query(&q).unwrap();
    assert_eq!(after.rows.len(), 3, "repaired memo must include e(c,d)");
    assert!(
        snap.context().stats().eval_hits > hits_before,
        "the repaired entry must answer from the memo"
    );
    let report = service.stats_report();
    assert_eq!(report.delta_repairs, 1, "{report:?}");
    assert!(report.delta_repaired_rows >= 1, "{report:?}");
    assert_eq!(report.delta_fallback_cold, 0, "{report:?}");
}

#[test]
fn dirty_nary_probe_space_is_repaired_in_place() {
    // The §4 mirror: an ingest into `flight` forks the previous
    // epoch's probe space, patches the delta's consequences into the
    // fork, repairs the machine memos over it, and adopts the fork —
    // so the dirty plan stays warm across its own ingest.
    const PROG: &str = "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
                        cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
                        flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
                        is_deptime(540). is_deptime(720).";
    let service = QueryService::new(rq_datalog::parse_program(PROG).unwrap());
    let q = service.parse_query("cnx(hel, 540, D, AT)").unwrap();
    assert_eq!(service.query(&q).unwrap().rows.len(), 2);

    service
        .ingest("flight(cdg,840,nce,930). is_deptime(840).")
        .unwrap();
    let stats = service.snapshot().context().stats();
    assert_eq!(
        stats.probe_spaces_carried, 1,
        "the repaired fork must be adopted: {stats:?}"
    );
    assert_eq!(service.query(&q).unwrap().rows.len(), 3);
    let report = service.stats_report();
    assert_eq!(report.delta_repairs, 1, "{report:?}");
    assert_eq!(report.delta_fallback_cold, 0, "{report:?}");
}

#[test]
fn all_free_regular_queries_take_the_scc_path() {
    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c). e(c,a). e(c,d).";
    let shared = QueryService::with_config(
        rq_datalog::parse_program(TC).unwrap(),
        ServiceConfig::default(),
    );
    let all = shared.parse_query("tc(X, Y)").unwrap();
    let via_scc = shared.query(&all).unwrap();
    let program = shared.snapshot().program().clone();
    assert_eq!(via_scc.rows.to_vecs(), fixpoint_rows(&program, all.pred));
    assert!(via_scc.converged);
    assert_eq!(shared.snapshot().context().stats().scc_served, 1);
    // The diagonal rides the same (cached) all-free entry.
    let diag = shared.parse_query("tc(X, X)").unwrap();
    let diag_rows = shared.query(&diag).unwrap();
    let mut expected: Vec<_> = via_scc
        .rows
        .iter()
        .filter(|r| r[0] == r[1])
        .map(|r| vec![r[0]])
        .collect();
    expected.sort();
    assert_eq!(diag_rows.rows.to_vecs(), expected);
}

#[test]
fn non_regular_all_free_falls_back_to_per_source() {
    // sg's equation keeps a derived occurrence (sg = flat ∪ up·sg·down
    // is not regular), so the all-free form must use the per-source
    // loop and still agree with the bottom-up fixpoint.
    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                      up(a,a1). up(b,a1). flat(a1,c1). down(c1,d). flat(a,z).";
    let shared = QueryService::with_config(
        rq_datalog::parse_program(SG).unwrap(),
        ServiceConfig::default(),
    );
    let all = shared.parse_query("sg(X, Y)").unwrap();
    let warm_answer = shared.query(&all).unwrap();
    let program = shared.snapshot().program().clone();
    assert_eq!(
        warm_answer.rows.to_vecs(),
        fixpoint_rows(&program, all.pred)
    );
    assert_eq!(shared.snapshot().context().stats().scc_served, 0);
    // The per-source loop records its point traversals in the machine
    // memo, so a follow-up point query is a context hit.
    assert!(shared.snapshot().context().stats().eval_entries > 0);
}

#[test]
fn batched_flights_share_probe_work_within_one_epoch() {
    let workload = rq_workloads::flights::network(8, 3, 7);
    let texts = rq_workloads::flights::serve_queries(8, 3);
    let service = QueryService::new(workload.program.clone());
    let specs: Vec<_> = texts
        .iter()
        .map(|t| service.parse_query(t).unwrap())
        .collect();
    let first = service.query_batch(&specs);
    for (spec, answer) in specs.iter().zip(&first) {
        assert_eq!(
            answer.as_ref().unwrap().rows.as_ref(),
            cold_answer(&workload.program, spec).rows.as_ref()
        );
    }
    let stats = service.snapshot().context().stats();
    assert!(
        stats.probe_hits > 0,
        "overlapping adorned queries must share probes: {stats:?}"
    );
    // Second flight of the same batch: every anchored traversal is
    // already memoized at the root.
    let again = service.query_batch(&specs);
    for (a, b) in first.iter().zip(again) {
        assert_eq!(a.as_ref().unwrap().rows, b.unwrap().rows);
    }
}

#[test]
fn shared_context_respects_eval_options_overrides() {
    // A service with an explicit node budget in its base options keeps
    // that override (the cyclic guard only fills the default), and a
    // budget the traversal stays under still converges.
    const TC: &str = "tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b). e(b,c).";
    let service = QueryService::with_config(
        rq_datalog::parse_program(TC).unwrap(),
        ServiceConfig {
            options: EvalOptions {
                node_budget: Some(1_000),
                ..EvalOptions::default()
            },
            ..ServiceConfig::default()
        },
    );
    let q = service.parse_query("tc(a, Y)").unwrap();
    let out = service.query(&q).unwrap();
    assert_eq!(out.rows.len(), 2);
    assert!(out.converged);
}

/// One cached plan as the fate property sees it.
struct PlanProbe {
    name: String,
    /// The warmed specs this plan answers.
    specs: Vec<QuerySpec>,
    /// Every base predicate the plan's answers depend on.
    read_set: FxHashSet<Pred>,
    /// Whether the plan's state is present in a snapshot's context:
    /// memo entries of the predicate's machines (§3), the probe space
    /// (§4).
    state: Box<dyn Fn(&Snapshot) -> bool>,
}

/// The plan cache of a warmed service, one probe per unit of fate: a
/// derived predicate of the §3 chain plan, or a whole §4 plan.
fn plan_probes(service: &QueryService, specs: &[QuerySpec]) -> Vec<PlanProbe> {
    let snap = service.snapshot();
    let name = |pred: Pred| snap.program().pred_name(pred).to_string();
    let mut probes = Vec::new();
    if let Some(plan) = service.plan_cache().peek_program() {
        for &pred in &plan.system.lhs {
            let machines: FxHashSet<u32> = plan
                .compiled
                .machine_preds()
                .into_iter()
                .filter(|&(_, p)| p == pred)
                .map(|(machine, _)| machine)
                .collect();
            let id = plan.compiled.id();
            probes.push(PlanProbe {
                name: format!("chain {}", name(pred)),
                specs: specs.iter().filter(|s| s.pred == pred).cloned().collect(),
                read_set: plan.read_set(pred),
                state: Box::new(move |snap| {
                    !snap.context().eval().roots_for(id, &machines).is_empty()
                }),
            });
        }
    }
    for ((pred, adornment), plan) in service.plan_cache().cached_nary_plans() {
        probes.push(PlanProbe {
            name: format!("§4 {}^{}", name(pred), adornment),
            specs: specs
                .iter()
                .filter(|s| s.pred == pred && s.adornment() == adornment)
                .cloned()
                .collect(),
            read_set: plan.read_set(snap.program()),
            state: Box::new(move |snap| snap.context().peek_probe_space(pred, adornment).is_some()),
        });
    }
    probes
}

/// How many plans met each fate, summed over a whole run — so the
/// property cannot pass vacuously.
#[derive(Debug, Default)]
struct FateTally {
    carried: u32,
    repaired: u32,
    dropped: u32,
}

/// Warm `specs` on a service over `text`, then live through three
/// publishes — one disjoint from every read-set, two dirtying base
/// relations — checking after each that every warm plan's memoized
/// answers and context state met **one** fate, and that every answer
/// still equals a cold rebuild.  A spec's answer is memoized when the
/// service answers it `from_cache`: no traversal ran.
fn check_one_fate_per_plan(
    text: &str,
    queries: &[String],
    config: ServiceConfig,
    seed: u64,
    tally: &mut FateTally,
) {
    let service = QueryService::with_config(rq_datalog::parse_program(text).unwrap(), config);
    // Constants the generator never drew make a query unparseable.
    let mut specs: Vec<QuerySpec> = queries
        .iter()
        .filter_map(|t| service.parse_query(t).ok())
        .collect();
    // One ask per spec: a duplicate's first ask would memoize it.
    let mut seen = FxHashSet::default();
    specs.retain(|s| seen.insert(s.clone()));
    service.query_batch(&specs);
    let batches = [
        "fresh_rel(n0, n1).".to_string(),
        format!("b{}(n{}, n{}).", seed % 3, seed % 4, 4 + seed % 5),
        format!("b0(n1, n{}). b2(n0, n{}).", 2 + seed % 7, 1 + seed % 8),
    ];
    for facts in &batches {
        let probes = plan_probes(&service, &specs);
        let before = service.snapshot();
        // The specs the memo answers: those that converge and do not
        // stop early (a membership that holds is not memoized).
        let memoized: Vec<Vec<&QuerySpec>> = probes
            .iter()
            .map(|p| {
                let hits = p.specs.iter();
                hits.filter(|s| service.query(s).unwrap().from_cache)
                    .collect()
            })
            .collect();
        let after = service.ingest(facts).unwrap();
        for (probe, warm) in probes.iter().zip(&memoized) {
            if warm.is_empty() || !(probe.state)(&before) {
                continue;
            }
            let context = format!("seed {seed}, `{facts}`, plan {}", probe.name);
            // Read the state before any query can rebuild it.
            let state = (probe.state)(&after);
            let alive = warm
                .iter()
                .filter(|s| service.query(s).unwrap().from_cache)
                .count();
            assert!(
                alive == 0 || alive == warm.len(),
                "{context}: {alive} of {} memoized answers survived",
                warm.len()
            );
            assert_eq!(
                alive > 0,
                state,
                "{context}: memoized answers and context state met different fates"
            );
            let clean = probe.read_set.is_disjoint(after.dirty_preds());
            match (clean, alive > 0) {
                (true, true) => tally.carried += 1,
                (true, false) => panic!("{context}: a clean plan must carry"),
                (false, true) => tally.repaired += 1,
                (false, false) => tally.dropped += 1,
            }
        }
        for spec in &specs {
            let served = service.query(spec).unwrap();
            let oracle = cold_answer(after.program(), spec);
            let context = format!("seed {seed}, `{facts}`, spec {spec:?}");
            if served.converged {
                assert_eq!(served.rows.as_ref(), oracle.rows.as_ref(), "{context}");
            } else {
                // A budget-stopped answer is partial, but never wrong.
                let complete = oracle.rows.to_vecs();
                assert!(
                    served.rows.iter().all(|r| complete.contains(&r.to_vec())),
                    "{context}"
                );
            }
        }
        // Everything is warm again for the next publish.
        service.query_batch(&specs);
    }
}

#[test]
fn plan_state_and_result_entries_share_one_fate() {
    // No single service holds both kinds of plan: the §3 chain plan
    // exists only when *every* rule is binary-chain, and then every
    // derived predicate is served by it.  So each seed runs a pure
    // chain program (per-predicate fates inside one plan) and a mixed
    // program whose binary and ternary predicates all compile to §4
    // plans, each under the default configuration.  The chain program
    // also runs with a one-node fallback budget: its queries still
    // converge under their m·n bound while any repair whose closures
    // need a second round refuses, and its dirty plan drops.  §4
    // queries have no such bound, so that budget would truncate the
    // answers themselves; their repairs refuse on their own often
    // enough to exercise the drop.
    let base = ServiceConfig::default();
    let refusing = ServiceConfig {
        fallback_node_budget: Some(1),
        ..base.clone()
    };
    let (mut chain, mut nary) = (FateTally::default(), FateTally::default());
    for seed in 0..10u64 {
        let rp = random_program(&RandProgConfig {
            seed,
            style: RecursionStyle::Mixed,
            // Several derived body literals in one rule would fail the
            // mixed program's adornment pass.
            lower_ref_prob: 0.0,
            ..RandProgConfig::default()
        });
        let np = random_nary_program(&NaryConfig {
            seed,
            ..NaryConfig::default()
        });
        let chain_queries: Vec<String> = rp
            .derived
            .iter()
            .flat_map(|d| {
                [
                    format!("{d}(n{}, Y)", seed % 5),
                    format!("{d}(n{}, Y)", 1 + seed % 3),
                    format!("{d}(X, n{})", 6 + seed % 5),
                ]
            })
            .collect();
        let mixed_text = format!("{}{}", rp.text, np.text);
        let mixed_queries = [chain_queries.clone(), np.queries.clone()].concat();
        for config in [&base, &refusing] {
            check_one_fate_per_plan(&rp.text, &chain_queries, config.clone(), seed, &mut chain);
        }
        check_one_fate_per_plan(&mixed_text, &mixed_queries, base.clone(), seed, &mut nary);
    }
    assert!(
        chain.carried > 0 && chain.repaired > 0 && chain.dropped > 0,
        "chain fates not all exercised: {chain:?}"
    );
    assert!(
        nary.carried > 0 && nary.repaired > 0 && nary.dropped > 0,
        "§4 fates not all exercised: {nary:?}"
    );
}
