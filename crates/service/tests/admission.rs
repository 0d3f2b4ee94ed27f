//! The machine memo's cap, end to end through [`QueryService`].
//!
//! The memo is the service's one store of answers.  It cannot evict:
//! it holds the first 8,192 completed roots of an epoch (its cap) and
//! records nothing after.  These properties pin what that may and may
//! not change:
//!
//! * **answers** — identical to the bottom-up fixpoint, on random
//!   streams mixing repeats and one-shots past the cap, and across
//!   ingests that repair a full memo;
//! * **which repeats run no traversal** — in a working set twice the
//!   cap, the first 8,192 roots, and only those; the rest answer
//!   correctly by traversal;
//! * **memory** — a stream that never repeats leaves 8,192 entries.
//!
//! "The allowance" in the test names is the memo's cap; "each cache"
//! is the memo alone.

use rq_common::{Const, Counters, FxHashMap};
use rq_datalog::{parse_program, seminaive_eval, Program};
use rq_engine::DEFAULT_CONTEXT_ENTRIES;
use rq_service::{Arg, QueryService, QuerySpec, ServiceAnswer};

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
/// shares no code with the memo under test.
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
        // carry the memo past its cap.  Its entries split over two
        // machines and membership queries that stop early record
        // nothing, so it needs a stream well past 8,192 queries.
        for step in 0..2 * DEFAULT_CONTEXT_ENTRIES + 6_000 {
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
        let memo = served.snapshot().context().stats();
        assert_eq!(memo.eval_entries, DEFAULT_CONTEXT_ENTRIES, "memo full");
    }
}

/// A stream that never repeats: every request traverses, and the memo
/// is left holding its cap of 8,192 roots, the only answer store.
#[test]
fn a_one_shot_stream_leaves_8192_entries_in_each_cache() {
    let service = QueryService::new(program());
    for i in 0..SOURCES {
        let answer = ask(&service, &format!("tc(s{i}, Y)"));
        assert!(!answer.from_cache, "tc(s{i}, Y)");
        assert_eq!(answer.rows.len(), 1);
    }
    let context = service.snapshot().context().stats();
    assert_eq!(context.eval_entries, DEFAULT_CONTEXT_ENTRIES);
}

/// A repeating working set twice the memo's cap: from the second pass
/// on, the first 8,192 roots are memo root hits and run no traversal;
/// the rest traverse again, to the same answers as the fixpoint.
#[test]
fn a_working_set_twice_the_allowance_hits_by_its_fourth_pass() {
    let service = QueryService::new(program());
    let keys: Vec<String> = (0..2 * DEFAULT_CONTEXT_ENTRIES)
        .map(|i| format!("tc(s{i}, Y)"))
        .collect();
    let oracle = Reference::new(service.snapshot().program());
    let mut hits = Vec::new();
    for pass in 0..4 {
        let mut pass_hits = 0;
        for (i, text) in keys.iter().enumerate() {
            let answer = ask(&service, text);
            let memoized = pass > 0 && i < DEFAULT_CONTEXT_ENTRIES;
            assert_eq!(answer.from_cache, memoized, "pass {pass}: {text}");
            assert_eq!(answer.counters == Counters::default(), memoized);
            oracle.check(&service, text, &answer, &format!("pass {pass}"));
            pass_hits += usize::from(answer.from_cache);
        }
        hits.push(pass_hits);
    }
    let cap = DEFAULT_CONTEXT_ENTRIES;
    assert_eq!(hits, [0, cap, cap, cap], "root hits per pass");
    let context = service.snapshot().context().stats();
    assert_eq!(context.eval_entries, DEFAULT_CONTEXT_ENTRIES);
}

/// The repair property past the cap: a full memo absorbs ingests that
/// chain sources together, and answers like the bottom-up fixpoint of
/// the grown program.
#[test]
fn repairing_past_the_allowance_equals_cold_rebuild() {
    let program = program();
    const CAP: usize = DEFAULT_CONTEXT_ENTRIES;
    for seed in 0..2 {
        let service = QueryService::new(program.clone());
        let mut next = rng(seed + 100);
        // Past the memo's cap, with some late keys asked twice.
        let mut asked: Vec<String> = (0..CAP + 2_000)
            .map(|i| query_text(next(), i, (next() % SOURCES as u64) as usize))
            .collect();
        asked.extend(asked[CAP..CAP + 500].to_vec());
        let warm = |asked: &[String]| {
            for text in asked {
                ask(&service, text);
            }
        };
        warm(&asked);
        let memo = service.snapshot().context().stats();
        assert_eq!(memo.eval_entries, DEFAULT_CONTEXT_ENTRIES);
        for round in 0..3 {
            let facts: String = (0..4)
                .map(|_| {
                    let from = next() % (CAP as u64 + 2_000);
                    let to = next() % (CAP as u64 + 2_000);
                    format!("e(t{from}, s{to}). ")
                })
                .collect();
            service.ingest(&facts).unwrap();
            let oracle = Reference::new(service.snapshot().program());
            // Every key near the cap, plus a sample.
            let sample = (CAP - 50..CAP + 550)
                .chain((0..300).map(|_| (next() % asked.len() as u64) as usize));
            for at in sample {
                let text = &asked[at];
                let got = ask(&service, text);
                oracle.check(&service, text, &got, &format!("seed {seed} round {round}"));
            }
            warm(&asked[CAP..]);
        }
        assert_eq!(service.stats_report().delta_fallback_cold, 0);
    }
}
