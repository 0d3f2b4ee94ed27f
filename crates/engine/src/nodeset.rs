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
//! * **Two insert paths**: the sequential loop owns the set and writes
//!   plain words ([`NodeSet::insert`]); the workers of a parallel phase
//!   share it and use `fetch_or` ([`NodeSet::insert_shared`]).

use rq_common::{Const, FxHashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A node of `G(p, a, i)`: `(instance, state, term)`.
pub(crate) type Node = (u32, u32, Const);

/// `(slot, word)` of a row word that went from zero to non-zero.
pub(crate) type Touched = (u32, u32);

type Row = Vec<AtomicU64>;

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
    /// The insertion log: what [`Drop`] must zero.
    touched: Vec<Touched>,
    /// Whole nodes with no bit to live in.  The mutex is for the shared
    /// path only; the owning path goes through `get_mut`.
    remainder: Mutex<FxHashSet<Node>>,
    /// A shared phase is open: its workers' logs are not absorbed yet.
    shared: bool,
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
            remainder: Mutex::new(FxHashSet::default()),
            shared: false,
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
                row.resize_with(self.words, AtomicU64::default);
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

    /// Insert through the owning path: plain word writes.  `true` when
    /// the node is new (the caller owns its expansion).
    #[inline]
    pub(crate) fn insert(&mut self, node: Node) -> bool {
        let (slot, word, mask) = self.locate(node);
        let Some(bits) = self.rows.get_mut(slot).and_then(|row| row.get_mut(word)) else {
            note_miss(node.2);
            let remainder = self.remainder.get_mut();
            return remainder
                .unwrap_or_else(PoisonError::into_inner)
                .insert(node);
        };
        let bits = bits.get_mut();
        if *bits & mask != 0 {
            return false;
        }
        if *bits == 0 {
            self.touched.push((slot as u32, word as u32));
        }
        *bits |= mask;
        true
    }

    /// Open a shared phase: the workers of one parallel traversal phase
    /// insert through the returned reference and
    /// [`Self::insert_shared`], each keeping its own log, and the
    /// caller hands those logs to [`Self::absorb`] once the workers are
    /// joined.  If it never does — a worker panicked and took its log
    /// with it — the rows are freed instead of pooled.
    pub(crate) fn share(&mut self) -> &Self {
        self.shared = true;
        self
    }

    /// Insert through the shared path; `touched` is the calling
    /// worker's log.  Exactly one of any number of racing workers gets
    /// `true` for a node.
    #[inline]
    pub(crate) fn insert_shared(&self, node: Node, touched: &mut Vec<Touched>) -> bool {
        let (slot, word, mask) = self.locate(node);
        let Some(bits) = self.rows.get(slot).and_then(|row| row.get(word)) else {
            note_miss(node.2);
            let remainder = self.remainder.lock();
            return remainder
                .unwrap_or_else(PoisonError::into_inner)
                .insert(node);
        };
        // Relaxed: the bit only decides which worker expands the node;
        // nothing is published through it (nodes travel between workers
        // through the deque mutexes, and the owning path resumes after
        // the scope joined them).  The read-modify-write is atomic, so
        // one worker sees the bit clear, and one sees the word zero.
        let before = bits.fetch_or(mask, Ordering::Relaxed);
        if before == 0 {
            touched.push((slot as u32, word as u32));
        }
        before & mask == 0
    }

    /// Close the shared phase with every worker's log.
    pub(crate) fn absorb(&mut self, logs: impl IntoIterator<Item = Vec<Touched>>) {
        for log in logs {
            self.touched.extend(log);
        }
        self.shared = false;
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
        if self.shared {
            return;
        }
        for &(slot, word) in &self.touched {
            *self.rows[slot as usize][word as usize].get_mut() = 0;
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
        && pool
            .rows
            .iter()
            .flatten()
            .all(|w| w.load(Ordering::Relaxed) == 0)
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

    #[test]
    fn racing_shared_inserts_elect_one_winner_per_node() {
        learn_width(20_000);
        let mut set = NodeSet::new(2);
        assert!(set.insert((0, 0, c(6))));
        let start = std::sync::Barrier::new(4);
        let shared = set.share();
        let (wins, logs): (Vec<usize>, Vec<Vec<Touched>>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut log = Vec::new();
                        start.wait();
                        let wins = (0..20_000)
                            .chain((1 << 31)..(1 << 31) + 500)
                            .filter(|&i| shared.insert_shared((0, i as u32 % 2, c(i)), &mut log))
                            .count();
                        (wins, log)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).unzip()
        });
        // Every node was won exactly once — (0, 0, c(6)) by nobody.
        assert_eq!(wins.iter().sum::<usize>(), 20_500 - 1);
        set.absorb(logs);
        assert!(!set.insert((0, 1, c(19_999))));
        drop(set);
        assert!(pool_is_clean());
    }

    #[test]
    fn an_unabsorbed_shared_phase_frees_its_rows() {
        learn_width(1000);
        let mut set = NodeSet::new(2);
        // A worker that panicked takes its log with it: these two bits
        // are in no log the set will ever see.
        let shared = set.share();
        assert!(shared.insert_shared((0, 0, c(9)), &mut Vec::new()));
        assert!(shared.insert_shared((0, 1, c(900)), &mut Vec::new()));
        drop(set);
        assert!(pool_is_clean(), "dirty rows must not reach the pool");
    }
}
