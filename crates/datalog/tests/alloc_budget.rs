//! Allocation budgets of loading a program and of building an index.
//!
//! Loading is parse + `Database::from_program`, and its cost at scale
//! is dominated by per-fact and per-token heap allocations; an index
//! build's by per-key ones.  A counting global allocator pins the
//! budgets, so a change that brings back a per-key copy (a boxed dedup
//! key, an owned lexer token, a throwaway lookup string, a posting
//! list per key) fails here deterministically.  The allocator counts
//! live bytes too, so an index that grows per tuple fails as well.
//! This file is its own test binary, and only the thread running a
//! measurement is counted.

use rq_common::{Const, ConstValue};
use rq_datalog::{mask_of, parse_program, Database, Relation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated minus bytes freed by counted threads.
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation (unless `bytes` is a pure release) that
/// changes the live bytes by `bytes`.
fn note(allocation: bool, bytes: i64) {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(u64::from(allocation), Ordering::Relaxed);
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are relaxed atomic adds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocs, _) = measured(f);
    (out, allocs)
}

/// Allocations `f` makes on this thread, and the bytes it leaves live.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    (out, allocs, LIVE.load(Ordering::Relaxed) - live)
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

#[test]
fn an_index_build_allocates_per_table_not_per_key() {
    // 240,000 4-ary rows, each with its own {0, 1} key: the shape of
    // the flight relation's (origin, departure) index.
    const ROWS: u32 = 240_000;
    let row = |i: u32| [i % 600, 600 + i / 600, i % 7, i % 13].map(Const);
    let rows: Vec<[Const; 4]> = (0..ROWS).map(row).collect();
    let rel = Relation::from_rows(4, rows.iter().map(|r| &r[..]));
    assert_eq!(rel.len(), ROWS as usize);
    let mask = mask_of([0, 1]);

    let ((), allocs, live) = measured(|| rel.build_index(mask));
    let per_tuple = live as f64 / f64::from(ROWS);
    eprintln!("build_index: {allocs} allocations, {per_tuple:.1} live bytes per tuple");
    // One slot array per doubling, the link vector and the cache entry
    // (20 here); one posting list per key would be 240,000.
    assert!(allocs <= 32, "build_index: {allocs} allocations");
    // 4 bytes of link per tuple plus a 4-byte slot array at most twice
    // the keys' count, rounded up to a power of two: 12.7 here.
    assert!(
        per_tuple <= 24.0,
        "build_index: {per_tuple:.1} live bytes per tuple"
    );
    // The census counts the same bytes, less the cache entry's few.
    let census = rel.index_bytes() as i64;
    assert!(
        (0..1024).contains(&(live - census)),
        "{live} live, {census} counted"
    );

    let mut out = Vec::new();
    rel.lookup(mask, &rows[123_456][..2], &mut out);
    assert_eq!(out, [123_456]);
}
