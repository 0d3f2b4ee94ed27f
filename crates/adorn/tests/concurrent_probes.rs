//! Concurrent probes over one shared [`ProbeSpace`]: K threads probe
//! seeded random key lists of the flight plan's virtual relations, in
//! both directions, through one space (capped and uncapped) — first
//! in lockstep behind a barrier, all on one key, so their first misses
//! race to record it, then free-running — and every
//! probe must decode to what a single thread on a private space
//! computes.  Tuple ids must stay a bijection with their components,
//! the hit/miss counts must add up to the probes made, and the memo may
//! hold no more entries than its cap — nor more than the keys it
//! answers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rq_adorn::{plan_nary_query, Adornment, NaryPlan, ProbeSpace, VirtualSource};
use rq_common::{Const, Counters, FxHashMap, Pred};
use rq_datalog::{Database, Program, Query};
use rq_engine::TupleSource;
use std::sync::Barrier;

/// Threads sharing one space.
const THREADS: usize = 4;
/// Probes each thread makes per run in lockstep, then free-running.
const LOCKSTEP: usize = 16;
const PROBES: usize = 300;
/// Distinct probes a run draws from, so the threads' lists overlap
/// and first misses of one key race.
const POOL: usize = 40;
/// Runs per cap, each over a fresh space.
const RUNS: usize = 12;

/// One probe: relation, key components, direction.
type Probe = (Pred, Vec<Const>, bool);

/// What one probe saw: the key's tuple id, and each output's id and
/// decoded components.
struct Seen {
    key: Const,
    outputs: Vec<(Const, Vec<Const>)>,
}

fn flight_plan() -> (Program, Database, NaryPlan) {
    let mut program = rq_workloads::flights::network(30, 8, 42).program;
    let query = Query::parse(&mut program, "cnx(p0, 360, D, AT)").expect("query parses");
    let plan = plan_nary_query(&program, query.pred, Adornment::of_query(&query))
        .expect("the flight query is a chain query");
    let db = Database::from_program(&program);
    (program, db, plan)
}

/// `POOL` seeded probes of the plan's virtual relations in both
/// directions, keys cut from flight rows (a departure or an arrival)
/// so most probes have outputs.
fn probe_pool(program: &Program, db: &Database, plan: &NaryPlan, seed: u64) -> Vec<Probe> {
    let flight = program.pred_by_name("flight").expect("flight relation");
    let rows: Vec<Vec<Const>> = db.relation(flight).iter().map(<[Const]>::to_vec).collect();
    let mut virtuals: Vec<_> = plan.binary.virtuals.iter().collect();
    virtuals.sort_by_key(|(p, _)| p.0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..POOL)
        .map(|_| {
            let (&r, rel) = virtuals[rng.gen_range(0..virtuals.len())];
            let forward = rng.gen_bool(0.5);
            let width = if forward {
                rel.in_terms.len()
            } else {
                rel.out_terms.len()
            };
            assert_eq!(width, 2, "every flight-plan key is (airport, time)");
            let row = &rows[rng.gen_range(0..rows.len())];
            let half = if rng.gen_bool(0.5) { 0 } else { 2 };
            (r, row[half..half + 2].to_vec(), forward)
        })
        .collect()
}

/// Run one probe through `src`.
fn probe(src: &VirtualSource<'_>, (r, key, forward): &Probe) -> Seen {
    let key = src.intern_tuple(key.clone());
    let (mut buf, mut counters) = (Vec::new(), Counters::new());
    let out = if *forward {
        src.successors(*r, key, &mut buf, &mut counters)
    } else {
        src.predecessors(*r, key, &mut buf, &mut counters)
    };
    let outputs = out.iter().map(|&c| (c, src.decode_tuple(c))).collect();
    Seen { key, outputs }
}

fn decoded(seen: &Seen) -> Vec<&[Const]> {
    seen.outputs.iter().map(|(_, c)| c.as_slice()).collect()
}

#[test]
fn concurrent_probes_match_a_single_thread() {
    let (program, db, plan) = flight_plan();
    let pool = probe_pool(&program, &db, &plan, 7);
    let reference_src = VirtualSource::new(&program, &db, &plan.binary);
    let reference: Vec<Seen> = pool.iter().map(|p| probe(&reference_src, p)).collect();
    assert!(
        reference.iter().any(|s| !s.outputs.is_empty()),
        "the pool exercises nonempty probes"
    );

    for cap in [8, rq_adorn::DEFAULT_PROBE_ENTRIES] {
        for run in 0..RUNS {
            let space = ProbeSpace::with_capacity(&program, cap);
            let start = Barrier::new(THREADS);
            let seen: Vec<Vec<(usize, Seen)>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (space, start, pool) = (&space, &start, &pool);
                        let (program, db, plan) = (&program, &db, &plan);
                        scope.spawn(move || {
                            let src = VirtualSource::with_space(program, db, &plan.binary, space);
                            let mut shared = StdRng::seed_from_u64(1000 + run as u64);
                            let lockstep: Vec<usize> = (0..LOCKSTEP)
                                .map(|_| shared.gen_range(0..pool.len()))
                                .collect();
                            let mut rng = StdRng::seed_from_u64((run * THREADS + t) as u64);
                            let free: Vec<usize> =
                                (0..PROBES).map(|_| rng.gen_range(0..pool.len())).collect();
                            let mut seen = Vec::with_capacity(LOCKSTEP + PROBES);
                            for i in lockstep {
                                start.wait();
                                seen.push((i, probe(&src, &pool[i])));
                            }
                            seen.extend(free.into_iter().map(|i| (i, probe(&src, &pool[i]))));
                            seen
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });

            let stats = space.stats();
            assert_eq!(
                stats.hits + stats.misses,
                (THREADS * (LOCKSTEP + PROBES)) as u64,
                "cap {cap} run {run}: every probe counts once"
            );
            assert!(stats.entries <= cap, "cap {cap} run {run}: {stats:?}");

            let mut ids: FxHashMap<Vec<Const>, Const> = FxHashMap::default();
            let mut components: FxHashMap<Const, Vec<Const>> = FxHashMap::default();
            let mut bind = |c: &[Const], id: Const| {
                assert_eq!(
                    *ids.entry(c.to_vec()).or_insert(id),
                    id,
                    "{c:?} has two ids"
                );
                assert_eq!(
                    components.entry(id).or_insert_with(|| c.to_vec()),
                    c,
                    "{id:?} names two tuples"
                );
            };
            for (i, s) in seen.iter().flatten() {
                assert_eq!(
                    decoded(s),
                    decoded(&reference[*i]),
                    "cap {cap} run {run}: probe {:?}",
                    pool[*i]
                );
                bind(&pool[*i].1, s.key);
                for (id, c) in &s.outputs {
                    bind(c, *id);
                }
            }

            // Every recorded entry answers a distinct key: re-probing
            // the whole pool hits exactly `entries` keys.
            let src = VirtualSource::with_space(&program, &db, &plan.binary, &space);
            let mut distinct = pool.clone();
            distinct.sort();
            distinct.dedup();
            let before = space.stats();
            for p in &distinct {
                probe(&src, p);
            }
            assert_eq!(
                space.stats().hits - before.hits,
                before.entries as u64,
                "cap {cap} run {run}: one entry per memoized key"
            );
        }
    }
}
