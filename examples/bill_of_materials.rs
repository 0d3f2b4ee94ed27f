//! A bill-of-materials ("part explosion") scenario: which base parts
//! does an assembly transitively contain, and through which supplier
//! tier does each arrive?
//!
//! This is the classic n-ary linear recursion the paper's §4 targets:
//! the 3-ary `needs(Assembly, Part, Tier)` program is not a binary-chain
//! program, but its adorned version (first argument bound) is a chain
//! program, so it transforms to a binary-chain query whose evaluation
//! consults only the parts reachable from the queried assembly.
//!
//! Run with `cargo run --release --example bill_of_materials [width]`.

use recursive_queries::solve;
use rq_adorn::{adorn, display_adorned};
use rq_datalog::{parse_program, Query};
use std::fmt::Write as _;

const RULES: &str = "\
needs(A, P, T) :- contains(A, P), tier0(T).
needs(A, P, T) :- contains(A, S), needs(S, P, T1), next_tier(T1, T).
";

/// A synthetic product hierarchy: `depth` tiers, each assembly made of
/// `width` sub-parts; a second, unrelated product family of the same
/// size demonstrates that the query never touches it.
fn catalogue(depth: usize, width: usize) -> String {
    let mut facts = String::new();
    for family in ["car", "plane"] {
        let mut frontier = vec![family.to_string()];
        let mut counter = 0usize;
        for _ in 0..depth {
            let mut next = Vec::new();
            for asm in &frontier {
                for _ in 0..width {
                    let part = format!("{family}_p{counter}");
                    counter += 1;
                    writeln!(facts, "contains({asm}, {part}).").unwrap();
                    next.push(part);
                }
            }
            frontier = next;
        }
    }
    writeln!(facts, "tier0(t0).").unwrap();
    for t in 0..depth {
        writeln!(facts, "next_tier(t{t}, t{}).", t + 1).unwrap();
    }
    facts
}

fn main() {
    let width: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let depth = 4;

    let src = format!("{RULES}{}", catalogue(depth, width));
    let mut program = parse_program(&src).unwrap();
    let query = Query::parse(&mut program, "needs(car, P, T)").unwrap();

    let adorned = adorn(&program, &query).unwrap();
    println!("adorned program (query needs^bff):");
    println!("{}", display_adorned(&program, &adorned));

    let answer = solve(&program, "needs(car, P, T)").unwrap();
    println!(
        "parts the car contains, by supplier tier ({} rows):",
        answer.answers.len()
    );
    for row in answer.rows(&program).iter().take(8) {
        println!("  {row}");
    }
    if answer.answers.len() > 8 {
        println!("  …");
    }

    // Binding propagation: the plane family is never touched.
    let bottom_up = rq_adorn::bottom_up_counters(&program);
    println!(
        "\nfacts consulted (ours, car only): {:>7}",
        answer.counters.tuples_retrieved
    );
    println!(
        "facts consulted (bottom-up, all) : {:>7}",
        bottom_up.tuples_retrieved
    );

    // Cross-check against the bottom-up oracle.
    let expected = rq_adorn::oracle_rows(&program, &query);
    assert_eq!(answer.answers, expected, "§4 must agree with the oracle");
    println!("verified against the seminaive oracle ✓");
}
