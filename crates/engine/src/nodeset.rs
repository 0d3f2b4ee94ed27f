//! The visit-once node set `G(p, a, i)` of one traversal.
//!
//! The paper charges one unit for "if (q', v) is not yet in G"; this
//! module makes that test one word read.  Every `(instance, state)` pair
//! of the spliced automaton owns a *bit row* indexed by
//! [`Const::index`], so membership of `(instance, state, term)` is a
//! mask test instead of a hash probe.
//!
//! * **Rows** are as wide as the largest constant id any traversal of
//!   this process has inserted (learned on the first miss, capped at
//!   [`INDEX_CAP`]) and come from a process-wide **pool**, already zero.
//!   The pool's mutex is held only to pop or push rows — never while a
//!   traversal runs, so a repair closure that walks for milliseconds
//!   never makes a reader wait.
//! * **Clearing rule**: every row word that turns non-zero is logged
//!   once; dropping the set zeroes exactly the logged words and hands
//!   the rows back.  Nothing ever costs O(|constants|) per traversal.
//! * **Remainder**: instances spliced after the traversal's byte budget
//!   ([`TRAVERSAL_BYTES`]) is spent, and constants past the row width
//!   (the §4 tuple ids live at 2³¹ and up), fall back to a hash set of
//!   whole nodes.  Which side a node lives on never changes during a
//!   traversal, so visit-once holds across the two.
//! * **One insert path**: the traversal loop owns the set and writes
//!   plain words ([`NodeSet::insert`]).

use rq_common::{Const, FxHashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A node of `G(p, a, i)`: `(instance, state, term)`.
pub(crate) type Node = (u32, u32, Const);

type Row = Vec<u64>;

/// Constants at or past this id are never given a bit: 4 Mi ids keep a
/// row at 512 KiB, and the tuple constants of §4 sit far above.
const INDEX_CAP: usize = 1 << 22;

/// Row bytes one traversal may hold; instances spliced past it go to
/// the remainder (deep recursions touch a handful of terms per copy, so
/// a hash set serves them better than a row each anyway).
const TRAVERSAL_BYTES: usize = 4 << 20;

/// Row bytes the pool keeps between traversals; rows returned past it
/// are freed.
const POOL_BYTES: usize = 16 << 20;

/// Rows grow in steps of this many words (4096 constants).
const WIDTH_STEP: usize = 64;

/// One past the largest constant id (below [`INDEX_CAP`]) that missed
/// its row — the width the next traversal's rows get.  A statistic: it
/// sizes rows and publishes no data, hence `Relaxed` throughout.
static WIDEST_SEEN: AtomicUsize = AtomicUsize::new(0);

/// Zeroed rows waiting for the next traversal.
struct Pool {
    rows: Vec<Row>,
    words: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    rows: Vec::new(),
    words: 0,
});

/// Lock the pool, recovering from poison: it only ever holds complete,
/// zeroed rows, and a push or pop cannot tear that.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
thread_local! {
    /// Test switch: sets built on this thread take no rows, so every
    /// node lives in the remainder hash set — the pre-`NodeSet`
    /// visitor, kept as the reference the dense path is checked against.
    pub(crate) static HASH_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The node set of one traversal; see the module docs.
pub(crate) struct NodeSet {
    /// Words per row, fixed for this traversal.
    words: usize,
    /// Row words this traversal may still take.
    budget: usize,
    /// First slot of each instance (`slot = base + state`), or
    /// `u32::MAX` for an instance on the remainder.
    base: Vec<u32>,
    /// One row per slot.
    rows: Vec<Row>,
    /// The insertion log, `(slot, word)` of every row word that went
    /// from zero to non-zero: what [`Drop`] must zero.
    touched: Vec<(u32, u32)>,
    /// Whole nodes with no bit to live in.
    remainder: FxHashSet<Node>,
}

impl NodeSet {
    /// An empty set whose root instance (instance 0) has `states`
    /// states.
    pub(crate) fn new(states: usize) -> Self {
        let widest = WIDEST_SEEN.load(Ordering::Relaxed);
        #[cfg(test)]
        let widest = if HASH_ONLY.get() { 0 } else { widest };
        let mut set = Self {
            words: widest.div_ceil(64).next_multiple_of(WIDTH_STEP),
            budget: TRAVERSAL_BYTES / 8,
            base: Vec::new(),
            rows: Vec::new(),
            touched: Vec::new(),
            remainder: FxHashSet::default(),
        };
        set.add_instance(states);
        set
    }

    /// Register the next instance, with `states` states.  It gets rows
    /// while the traversal's budget lasts, and lives on the remainder
    /// otherwise.
    pub(crate) fn add_instance(&mut self, states: usize) {
        let need = states * self.words;
        if need == 0 || need > self.budget {
            self.base.push(u32::MAX);
            return;
        }
        self.budget -= need;
        let first = self.rows.len();
        self.base.push(first as u32);
        {
            let mut pool = pool();
            for _ in 0..states {
                let Some(row) = pool.rows.pop() else { break };
                pool.words -= row.len();
                self.rows.push(row);
            }
        }
        self.rows.resize_with(first + states, Vec::new);
        // A pooled row may be narrower (the width grew since) or wider;
        // any fixed length at or past `words` keeps the set consistent.
        for row in &mut self.rows[first..] {
            if row.len() < self.words {
                row.resize(self.words, 0);
            }
        }
    }

    /// Where `node`'s bit would live: `(slot, word, mask)`.  A slot or a
    /// word that does not exist (an instance on the remainder, a
    /// constant past the row) means the node lives on the remainder.
    #[inline]
    fn locate(&self, (inst, state, term): Node) -> (usize, usize, u64) {
        let slot = self.base[inst as usize] as usize + state as usize;
        (slot, term.index() >> 6, 1 << (term.index() & 63))
    }

    /// Insert `node`; `true` when it is new (the caller owns its
    /// expansion).
    #[inline]
    pub(crate) fn insert(&mut self, node: Node) -> bool {
        let (slot, word, mask) = self.locate(node);
        let Some(bits) = self.rows.get_mut(slot).and_then(|row| row.get_mut(word)) else {
            note_miss(node.2);
            return self.remainder.insert(node);
        };
        if *bits & mask != 0 {
            return false;
        }
        if *bits == 0 {
            self.touched.push((slot as u32, word as u32));
        }
        *bits |= mask;
        true
    }
}

/// A node missed its row: widen the next traversal's rows if the width
/// (not the budget, not the cap) was why.
#[inline]
fn note_miss(term: Const) {
    let id = term.index();
    if id < INDEX_CAP && id >= WIDEST_SEEN.load(Ordering::Relaxed) {
        WIDEST_SEEN.fetch_max(id + 1, Ordering::Relaxed);
    }
}

impl Drop for NodeSet {
    fn drop(&mut self) {
        for &(slot, word) in &self.touched {
            self.rows[slot as usize][word as usize] = 0;
        }
        let mut rows = std::mem::take(&mut self.rows);
        let mut pool = pool();
        while let Some(row) = rows.pop() {
            if pool.words + row.len() > POOL_BYTES / 8 {
                break;
            }
            pool.words += row.len();
            pool.rows.push(row);
        }
    }
}

/// Test hook: make sure rows cover constant ids below `ids`, so a test
/// exercises the bit rows from its first traversal on.
#[cfg(test)]
pub(crate) fn learn_width(ids: usize) {
    WIDEST_SEEN.fetch_max(ids.min(INDEX_CAP), Ordering::Relaxed);
}

/// Test hook: every pooled row is all zero — the invariant the clearing
/// rule keeps.  The pool only ever holds such rows, so this may be
/// asserted at any time, whatever other test threads are doing.
#[cfg(test)]
pub(crate) fn pool_is_clean() -> bool {
    let pool = pool();
    pool.words == pool.rows.iter().map(Vec::len).sum::<usize>()
        && pool.words <= POOL_BYTES / 8
        && pool.rows.iter().flatten().all(|&w| w == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> Const {
        Const::from_index(i)
    }

    #[test]
    fn visit_once_holds_on_rows_on_the_remainder_and_past_the_budget() {
        learn_width(5000);
        let mut set = NodeSet::new(3);
        assert_eq!(set.rows.len(), 3, "the root instance got its rows");
        assert!(set.words * 64 >= 5000);
        // Spend the budget: later instances live on the remainder.
        while set.budget >= 3 * set.words {
            set.add_instance(3);
        }
        set.add_instance(3);
        let last = set.base.len() as u32 - 1;
        assert_eq!(set.base[last as usize], u32::MAX);
        let nodes = [
            (0, 1, c(7)),
            (0, 1, c(4999)),
            (0, 2, c(7)),
            (1, 0, c(64)),
            // Past the width and past the cap: remainder.
            (0, 1, c(set.words * 64)),
            (0, 1, c(INDEX_CAP + 3)),
            (0, 1, c(1 << 31)),
            (last, 2, c(7)),
        ];
        for &node in &nodes {
            assert!(set.insert(node), "{node:?} is new");
            assert!(!set.insert(node), "{node:?} is visited once");
        }
        let on_rows = |&n: &Node| {
            let (slot, word, _) = set.locate(n);
            set.rows.get(slot).is_some_and(|row| word < row.len())
        };
        assert_eq!(nodes.iter().filter(|n| on_rows(n)).count(), 4);
        // c(7) and c(64) share no word with c(4999); (0,1) holds two.
        assert_eq!(set.touched.len(), 4);
        drop(set);
        assert!(pool_is_clean());
    }
}
