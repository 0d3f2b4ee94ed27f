//! Figure 8: cyclic same-generation data.  With an up-cycle of length m
//! and a down-cycle of length n (coprime), the natural termination
//! condition never fires and m·n iterations are needed; the
//! Marchetti-Spaccamela bound makes evaluation terminate with the
//! complete answer.
//!
//! Run with `cargo run --example cyclic [m] [n]`.

use rq_common::ConstValue;
use rq_datalog::Database;
use rq_engine::{cyclic_iteration_bound, evaluate_with_cyclic_guard, EvalOptions};
use rq_relalg::{lemma1, Lemma1Options};
use rq_workloads::fig8;

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let w = fig8::cyclic(m, n);
    println!("{}: up-cycle {m}, down-cycle {n}", w.name);
    let program = &w.program;
    let db = Database::from_program(program);
    let system = lemma1(program, &Lemma1Options::default()).unwrap().system;
    let sg = program.pred_by_name("sg").unwrap();
    let a0 = program.consts.get(&ConstValue::Str("a0".into())).unwrap();

    let bound = cyclic_iteration_bound(&system, &db, sg, a0, false).unwrap();
    println!("m·n iteration bound: {bound}");

    let out = evaluate_with_cyclic_guard(
        &system,
        &db,
        sg,
        a0,
        &EvalOptions {
            record_iterations: true,
            ..EvalOptions::default()
        },
    );
    // On cyclic data the natural condition never fires: the run stops
    // at the m·n bound, which is complete by the Marchetti-Spaccamela
    // argument, so `converged` reads true.  The bound counts recursion
    // depths, and iteration i explores depth i - 1.
    let iterations = out.counters.iterations;
    println!(
        "complete under the m·n guard: {} ({iterations} iterations run = recursion depths 0..={}, bound {bound})",
        out.converged,
        iterations.saturating_sub(1)
    );
    let mut names: Vec<String> = out
        .answers
        .iter()
        .map(|&c| program.consts.display(c))
        .collect();
    names.sort();
    println!("answers ({}): {:?}", names.len(), names);
    if let Some(expected) = w.expected_answers {
        assert_eq!(
            names.len(),
            expected,
            "answer count must match gcd analysis"
        );
    }

    // Show the per-iteration progress: answers arrive only at levels
    // k ≡ 0 (mod m), and the last new answer can take up to m·n levels.
    let mut last_growth = 0usize;
    for (i, stat) in out.iteration_stats.iter().enumerate() {
        if i == 0 || stat.answers_so_far > out.iteration_stats[i - 1].answers_so_far {
            last_growth = i + 1;
        }
    }
    println!("last iteration that added an answer: {last_growth} (bound {bound})");
}
