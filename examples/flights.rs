//! §4's airline-connection query: an n-ary (4-ary) linearly recursive
//! program evaluated through the adornment + binary-chain transformation,
//! demonstrating how the query bindings restrict the facts consulted.
//!
//! Run with `cargo run --release --example flights [airports]`.

use recursive_queries::{solve, Strategy};
use rq_adorn::{adorn, display_adorned, plan_nary_query, Adornment};
use rq_datalog::Query;
use rq_workloads::flights;

fn main() {
    let airports: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    // The paper's exact example first: the compile-time half of §4 …
    let w = flights::paper_example();
    let mut scratch = w.program.clone();
    let q = Query::parse(&mut scratch, &w.query).unwrap();
    let adorned = adorn(&w.program, &q).unwrap();
    println!(
        "adorned program:\n{}",
        display_adorned(&w.program, &adorned)
    );
    let plan = plan_nary_query(&w.program, q.pred, Adornment::of_query(&q)).unwrap();
    println!(
        "transformed binary-chain system:\n{}",
        plan.binary.display_system(&w.program)
    );
    // … and the answer, through the pipeline `rqc serve` runs.
    let solution = solve(&w.program, &w.query).unwrap();
    assert_eq!(solution.strategy, Some(Strategy::Section4));
    println!("cnx(hel, 540, D, AT):");
    for row in solution.rows(&w.program) {
        println!("  {row}");
    }

    // A larger random network: compare facts consulted with and without
    // binding propagation.
    let w = flights::network(airports, 4, 7);
    let solution = solve(&w.program, &w.query).unwrap();
    let bottom_up = rq_adorn::bottom_up_counters(&w.program);
    println!("\nnetwork with {airports} airports, 4 flights each:");
    println!("  connections from p0@06:00: {}", solution.answers.len());
    println!(
        "  facts consulted   (ours, demand-driven): {:>8}",
        solution.counters.tuples_retrieved
    );
    println!(
        "  facts consulted (seminaive, bottom-up) : {:>8}",
        bottom_up.tuples_retrieved
    );
}
