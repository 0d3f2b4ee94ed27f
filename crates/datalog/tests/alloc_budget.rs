//! Allocation budget of loading a program.
//!
//! Loading is parse + `Database::from_program`, and its cost at scale
//! is dominated by per-fact and per-token heap allocations.  A counting
//! global allocator pins the budget, so a change that brings back a
//! per-key copy (a boxed dedup key, an owned lexer token, a throwaway
//! lookup string) fails here deterministically.  This file is its own
//! test binary, and only the thread running a measurement is counted.

use rq_common::ConstValue;
use rq_datalog::{parse_program, Database};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// A `side` × `side` grid: an edge to the right and one downwards
/// from every node that has that neighbour, plus transitive closure.
fn grid_program(side: usize) -> (String, usize) {
    let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n");
    let mut edges = 0;
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                writeln!(src, "e(g{r}_{c}, g{r}_{}).", c + 1).unwrap();
                edges += 1;
            }
            if r + 1 < side {
                writeln!(src, "e(g{r}_{c}, g{}_{c}).", r + 1).unwrap();
                edges += 1;
            }
        }
    }
    (src, edges)
}

#[test]
fn loading_stays_within_its_allocation_budget() {
    let (src, edges) = grid_program(101);
    assert_eq!(edges, 20_200);

    let (program, parse) = allocations(|| parse_program(&src).unwrap());
    assert_eq!(program.facts.len(), edges);
    let (db, build) = allocations(|| Database::from_program(&program));
    assert_eq!(db.total_tuples(), edges);

    let per_fact = |n: u64| n as f64 / edges as f64;
    eprintln!(
        "allocations: parse_program {parse} ({:.2} per fact), Database::from_program {build}",
        per_fact(parse)
    );
    // Parsing allocates per distinct constant (its value, and the
    // lookup trie's nodes) and per storage chunk, not per fact: 25,359
    // allocations here, for 10,201 constants and 20,200 facts.
    assert!(
        per_fact(parse) <= 1.55,
        "parse_program: {:.2} allocations per fact",
        per_fact(parse)
    );
    // Distinct facts: each shard shares its predicate's fact chunks, so
    // the build allocates per predicate only (5 here).
    assert!(
        build <= 6,
        "Database::from_program: {build} allocations for {edges} facts"
    );

    let mut consts = program.consts.clone();
    let before = consts.len();
    let (id, hit) = allocations(|| consts.intern_str("g50_50"));
    assert_eq!(hit, 0, "interning a known name allocates nothing");
    assert_eq!(consts.len(), before);
    assert_eq!(consts.value(id), &ConstValue::Str("g50_50".into()));
    let (found, lookup) = allocations(|| consts.get(&ConstValue::Int(5)));
    assert_eq!((found, lookup), (None, 0));
}
