//! Quickstart: parse a recursive Datalog program, ask a query, inspect
//! the pipeline stages.
//!
//! Run with `cargo run --example quickstart`.

use recursive_queries::{solve, Strategy};
use rq_datalog::{parse_program, Analysis};
use rq_relalg::{lemma1, Lemma1Options};

fn main() {
    // The paper's running example: the same-generation program.
    let src = "\
% same generation: x and y are cousins at the same level
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).

% a small family tree
up(john, mary).   up(mary, ann).
up(erik, lisa).   up(lisa, ann).
flat(ann, ann).   flat(mary, lisa). flat(lisa, mary).
down(ann, lisa).  down(lisa, erik).
down(ann, mary).  down(mary, john).
";
    let program = parse_program(src).expect("program parses");

    // 1. Classification (§2): sg is linearly recursive, binary-chain.
    let analysis = Analysis::of(&program);
    println!(
        "linear program:      {}",
        analysis.program_is_linear(&program)
    );
    println!(
        "binary-chain:        {}",
        rq_datalog::binary_chain_violations(&program).is_empty()
    );

    // 2. Lemma 1 (§3): the equation system.
    let system = lemma1(&program, &Lemma1Options::default())
        .expect("binary-chain program")
        .system;
    println!("\nequation system:\n{}", system.display(&program));

    // 3. Evaluate sg(john, Y) with the graph-traversal engine — `solve`
    //    asks a one-shot query service, the pipeline `rqc serve` runs.
    let solution = solve(&program, "sg(john, Y)").expect("query evaluates");
    assert_eq!(solution.strategy, Some(Strategy::BinaryChain));
    println!("sg(john, Y) = {:?}", solution.rows(&program));
    println!("cost: {}", solution.counters);

    // 4. Other query forms run through the same machinery.
    let backwards = solve(&program, "sg(X, erik)").expect("inverse query");
    println!("sg(X, erik) = {:?}", backwards.rows(&program));

    let check = solve(&program, "sg(john, erik)").expect("bb query");
    println!("sg(john, erik)? {}", !check.answers.is_empty());
}
