//! Admission on second sight, end to end through [`QueryService`].
//!
//! Past its allowance of 8,192 entries, the result cache keeps a cold
//! answer only when it is seen a second time: it admits a spec on its
//! second miss.  The machine memo, which cannot evict, holds the first
//! 8,192 completed roots of an epoch (its cap) and records nothing
//! after.  These properties pin what that may and may not change:
//!
//! * **answers** — identical to the bottom-up fixpoint, on random
//!   streams mixing repeats and one-shots past both limits, and across
//!   ingests that repair a full memo;
//! * **when a spec is cached** — on its third request past the
//!   allowance, never before;
//! * **memory** — a stream that never repeats leaves 8,192 entries in
//!   each cache;
//! * **hit ratio** — a repeating working set twice the allowance is
//!   served from the cache once it has been seen twice.

use rq_common::{Const, FxHashMap};
use rq_datalog::{parse_program, seminaive_eval, Program};
use rq_engine::DEFAULT_CONTEXT_ENTRIES;
use rq_service::results::ADMISSION_ALLOWANCE;
use rq_service::{Arg, QueryService, QuerySpec, ServiceAnswer, ServiceConfig};

/// One-row `tc` sources: `e(s_i, t_i)` for every `i`.
const SOURCES: usize = 20_000;

fn program() -> Program {
    let mut text = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
    for i in 0..SOURCES {
        text.push_str(&format!("e(s{i}, t{i}).\n"));
    }
    parse_program(&text).unwrap()
}

/// `tc`'s bottom-up fixpoint, indexed both ways: a reference that
/// shares no code with either cache under test.
struct Reference {
    forward: FxHashMap<Const, Vec<Const>>,
    backward: FxHashMap<Const, Vec<Const>>,
}

impl Reference {
    fn new(program: &Program) -> Self {
        let tc = program.pred_by_name("tc").unwrap();
        let mut reference = Self {
            forward: FxHashMap::default(),
            backward: FxHashMap::default(),
        };
        for t in seminaive_eval(program).unwrap().tuples(tc) {
            reference.forward.entry(t[0]).or_default().push(t[1]);
            reference.backward.entry(t[1]).or_default().push(t[0]);
        }
        for column in reference
            .forward
            .values_mut()
            .chain(reference.backward.values_mut())
        {
            column.sort_unstable();
        }
        reference
    }

    /// The rows `spec`, a point or membership query on `tc`, answers.
    fn rows(&self, spec: &QuerySpec) -> Vec<Vec<Const>> {
        let column = |index: &FxHashMap<Const, Vec<Const>>, c: Const| {
            let ends = index.get(&c).map_or(&[][..], Vec::as_slice);
            ends.iter().map(|&e| vec![e]).collect()
        };
        match *spec.args() {
            [Arg::Bound(a), Arg::Free(_)] => column(&self.forward, a),
            [Arg::Free(_), Arg::Bound(b)] => column(&self.backward, b),
            [Arg::Bound(a), Arg::Bound(b)] => {
                let holds = self.forward.get(&a).is_some_and(|ends| ends.contains(&b));
                if holds {
                    vec![vec![]]
                } else {
                    Vec::new()
                }
            }
            _ => unreachable!("streams ask only point and membership queries"),
        }
    }

    /// Check `got`, `service`'s answer to `text`, against the fixpoint.
    fn check(&self, service: &QueryService, text: &str, got: &ServiceAnswer, context: &str) {
        assert_eq!(
            got.rows.to_vecs(),
            self.rows(&spec(service, text)),
            "{context}: {text}"
        );
        assert!(got.converged, "{context}: {text}");
    }
}

fn ask(service: &QueryService, text: &str) -> ServiceAnswer {
    service.query(&spec(service, text)).unwrap()
}

fn spec(service: &QueryService, text: &str) -> QuerySpec {
    service.parse_query(text).unwrap()
}

/// A xorshift stream, so every case replays exactly.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Query `i` of a stream in one of three forms, so both machines and
/// the membership route run.
fn query_text(form: u64, i: usize, j: usize) -> String {
    match form % 3 {
        0 => format!("tc(s{i}, Y)"),
        1 => format!("tc(X, t{i})"),
        _ => format!("tc(s{i}, t{j})"),
    }
}

#[test]
fn answers_match_a_cacheless_reference_on_mixed_streams() {
    let program = program();
    for seed in 0..2 {
        let served = QueryService::new(program.clone());
        let oracle = Reference::new(&program);
        let mut next = rng(seed);
        // A hot set small enough to repeat often, and one-shots that
        // carry both caches past 8,192 entries.  The memo's entries
        // split over two machines and membership queries that stop
        // early record nothing, so it needs the longer stream.
        for step in 0..2 * ADMISSION_ALLOWANCE + 6_000 {
            let i = if next().is_multiple_of(3) {
                (next() % 64) as usize
            } else {
                (next() % SOURCES as u64) as usize
            };
            let j = if next().is_multiple_of(2) {
                i
            } else {
                (next() % SOURCES as u64) as usize
            };
            let text = query_text(next(), i, j);
            let got = ask(&served, &text);
            oracle.check(&served, &text, &got, &format!("seed {seed} step {step}"));
        }
        assert!(
            served.result_cache().refused() > 0,
            "seed {seed} passed the allowance"
        );
        let memo = served.snapshot().context().stats();
        assert_eq!(memo.eval_entries, DEFAULT_CONTEXT_ENTRIES, "memo full");
    }
}

#[test]
fn past_the_allowance_a_spec_is_cached_on_its_third_request() {
    let service = QueryService::new(program());
    for i in 0..ADMISSION_ALLOWANCE {
        assert!(!ask(&service, &format!("tc(s{i}, Y)")).from_cache);
    }
    assert_eq!(service.result_cache().len(), ADMISSION_ALLOWANCE);
    // An earlier spec was admitted on first sight.
    assert!(ask(&service, "tc(s0, Y)").from_cache);
    let late = format!("tc(s{}, Y)", SOURCES - 1);
    let seen: Vec<bool> = (0..4).map(|_| ask(&service, &late).from_cache).collect();
    assert_eq!(seen, [false, false, true, true]);
    let stats = service.result_cache().stats();
    assert_eq!((service.result_cache().refused(), stats.hits), (1, 3));
}

#[test]
fn a_one_shot_stream_leaves_8192_entries_in_each_cache() {
    let service = QueryService::new(program());
    for i in 0..SOURCES {
        let answer = ask(&service, &format!("tc(s{i}, Y)"));
        assert_eq!(answer.rows.len(), 1);
    }
    let context = service.snapshot().context().stats();
    assert_eq!(service.result_cache().len(), ADMISSION_ALLOWANCE);
    assert_eq!(context.eval_entries, DEFAULT_CONTEXT_ENTRIES);
    let refused = (SOURCES - ADMISSION_ALLOWANCE) as u64;
    assert_eq!(service.result_cache().refused(), refused);
}

#[test]
fn a_working_set_twice_the_allowance_hits_by_its_fourth_pass() {
    let service = QueryService::new(program());
    let keys: Vec<QuerySpec> = (0..2 * ADMISSION_ALLOWANCE)
        .map(|i| spec(&service, &format!("tc(s{i}, Y)")))
        .collect();
    let mut ratio = 0.0;
    for _ in 0..4 {
        let before = service.result_cache().stats();
        for key in &keys {
            service.query(key).unwrap();
        }
        let after = service.result_cache().stats();
        let hits = (after.hits - before.hits) as f64;
        ratio = hits / (hits + (after.misses - before.misses) as f64);
    }
    assert!(ratio >= 0.99, "fourth-pass hit ratio {ratio}");
    assert_eq!(service.result_cache().len(), keys.len());
}

/// The repair property past the allowance: full memos, beside a result
/// cache holding admitted answers, absorb ingests that chain sources
/// together, and answer like a service rebuilt cold on the grown
/// program.
#[test]
fn repairing_past_the_allowance_equals_cold_rebuild() {
    let program = program();
    for seed in 0..2 {
        let memoizing = QueryService::new(program.clone());
        let uncached = QueryService::with_config(
            program.clone(),
            ServiceConfig {
                result_cache_capacity: Some(0),
                ..ServiceConfig::default()
            },
        );
        let mut next = rng(seed + 100);
        // Past the allowance and the memo's cap, with some late keys
        // asked twice so the result cache admits them.
        let mut asked: Vec<String> = (0..ADMISSION_ALLOWANCE + 2_000)
            .map(|i| query_text(next(), i, (next() % SOURCES as u64) as usize))
            .collect();
        asked.extend(asked[ADMISSION_ALLOWANCE..ADMISSION_ALLOWANCE + 500].to_vec());
        let warm = |asked: &[String]| {
            for text in asked {
                ask(&memoizing, text);
                ask(&uncached, text);
            }
        };
        warm(&asked);
        assert!(memoizing.result_cache().refused() > 0);
        let memo = uncached.snapshot().context().stats();
        assert_eq!(memo.eval_entries, DEFAULT_CONTEXT_ENTRIES);
        for round in 0..3 {
            let facts: String = (0..4)
                .map(|_| {
                    let from = next() % (ADMISSION_ALLOWANCE as u64 + 2_000);
                    let to = next() % (ADMISSION_ALLOWANCE as u64 + 2_000);
                    format!("e(t{from}, s{to}). ")
                })
                .collect();
            memoizing.ingest(&facts).unwrap();
            uncached.ingest(&facts).unwrap();
            let oracle = Reference::new(memoizing.snapshot().program());
            // Every refused and admitted key near the allowance, plus a
            // sample.
            let sample = (ADMISSION_ALLOWANCE - 50..ADMISSION_ALLOWANCE + 550)
                .chain((0..300).map(|_| (next() % asked.len() as u64) as usize));
            for at in sample {
                let text = &asked[at];
                for (name, service) in [("memoizing", &memoizing), ("uncached", &uncached)] {
                    let got = ask(service, text);
                    oracle.check(
                        service,
                        text,
                        &got,
                        &format!("seed {seed} round {round} {name}"),
                    );
                }
            }
            warm(&asked[ADMISSION_ALLOWANCE..]);
        }
        assert_eq!(memoizing.stats_report().delta_fallback_cold, 0);
    }
}
