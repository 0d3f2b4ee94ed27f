//! The paper's strategy comparison (§3's table) in miniature: run the
//! same-generation query on the three Figure 7 samples with all five
//! strategies and print the unit-cost work of each.
//!
//! Run with `cargo run --release --example same_generation [n]`.

use rq_baselines::{counting, henschen_naqvi, magic_sets, reverse_counting};
use rq_common::{Const, ConstValue};
use rq_datalog::{Database, Query};
use rq_engine::{EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_workloads::fig7;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    println!("same-generation strategies on Figure 7 samples, n = {n}");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "sample", "HN", "magic", "counting", "rev-count", "ours"
    );
    for (label, w) in [
        ("(a)", fig7::sample_a(n)),
        ("(b)", fig7::sample_b(n)),
        ("(c)", fig7::sample_c(n)),
    ] {
        let mut program = w.program.clone();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let source_name = w
            .query
            .split('(')
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let a: Const = program
            .consts
            .get(&ConstValue::Str(source_name.into()))
            .unwrap();

        let hn = henschen_naqvi(&system, &db, sg, a, None);
        let query = Query::parse(&mut program, &w.query).unwrap();
        let magic = magic_sets(&program, &query).unwrap();
        let cnt = counting(&system, &db, sg, a, None);
        let rev = reverse_counting(&system, &db, sg, a, None);
        let source = EdbSource::new(&db);
        let ours = Evaluator::new(&system, &source).evaluate(sg, a, &EvalOptions::default());

        // All strategies must agree on the answers.
        let ours_set = ours.answers.iter().copied().collect();
        assert_eq!(hn.answers, ours_set);
        assert_eq!(cnt.answers, ours_set);
        assert_eq!(rev.answers, ours_set);
        assert_eq!(magic.rows.len(), ours.answers.len());

        println!(
            "{label:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            hn.counters.total_work(),
            magic.counters.total_work(),
            cnt.counters.total_work(),
            rev.counters.total_work(),
            ours.counters.total_work(),
        );
    }
    println!("\n(unit-cost work: tuples retrieved + nodes/facts inserted + firings + probes)");
    println!("expected shapes per the paper: ours/counting are O(n) on (a) and (c),");
    println!("O(n^2) on (b); Henschen-Naqvi is O(n^2) on (c).");
}
