//! Append-only chunked arenas, and the answer store both epoch memos
//! keep their answers in (`rq_engine::EvalContext`, `rq_adorn::ProbeSpace`).
//!
//! An [`Arena`] allocates a chunk on first use, behind a `OnceLock`, so
//! an element never moves and a reader that learned its index through a
//! synchronizing load reads it with no lock.  Chunks double from 32
//! elements up to [`BIG_CHUNK`], then stay that size: a chunk is
//! zero-filled, hence resident, as a whole, so `n` words pin at most
//! `n + BIG_CHUNK`.  An [`AnswerStore`] is columns of slot words,
//! indexed by a dense key, pointing into an arena of answers that its
//! forks and successors share: a hit is one `Acquire` slot load plus a
//! copy, with no lock and no shared store.  Writers take the store's
//! one mutex, never across a computation.

use crate::intern::Const;
use crate::obs::Counter;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Elements in chunk 0.
const FIRST_CHUNK: usize = 32;

/// Chunks `0..DOUBLINGS` double: chunk `k` holds `FIRST_CHUNK << k`.
const DOUBLINGS: usize = 15;

/// Elements in every chunk from `DOUBLINGS` on (2¹⁹): the most
/// zero-filled slack one arena can pin.
pub const BIG_CHUNK: usize = FIRST_CHUNK << (DOUBLINGS - 1);

/// Elements in the doubling chunks.
const SMALL: usize = FIRST_CHUNK * ((1 << DOUBLINGS) - 1);

/// Big chunks past the doubling ones: together they reach index
/// `u32::MAX`, so every `u32` index has an element.
const BIG_CHUNKS: usize = ((1u64 << 32) - SMALL as u64).div_ceil(BIG_CHUNK as u64) as usize;

/// The chunk holding index `i`, and `i`'s offset in it.
fn locate(i: usize) -> (usize, usize) {
    if i < SMALL {
        let j = i + FIRST_CHUNK;
        let k = (j.ilog2() - FIRST_CHUNK.ilog2()) as usize;
        (k, j - (FIRST_CHUNK << k))
    } else {
        let j = i - SMALL;
        (DOUBLINGS + j / BIG_CHUNK, j % BIG_CHUNK)
    }
}

/// Elements in chunk `k`.
fn chunk_len(k: usize) -> usize {
    FIRST_CHUNK << k.min(DOUBLINGS - 1)
}

/// Index of chunk `k`'s first element.
fn chunk_start(k: usize) -> usize {
    match k.checked_sub(DOUBLINGS) {
        None => FIRST_CHUNK * ((1 << k) - 1),
        Some(big) => SMALL + big * BIG_CHUNK,
    }
}

type Chunk<T> = OnceLock<Box<[T]>>;

/// An append-only array indexed from 0.  Elements of a chunk that
/// exists but were never written hold `T::default()`.
pub struct Arena<T> {
    small: [Chunk<T>; DOUBLINGS],
    /// The big chunks' table, allocated when the first one is.
    big: OnceLock<Box<[Chunk<T>]>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self {
            small: std::array::from_fn(|_| OnceLock::new()),
            big: OnceLock::new(),
        }
    }
}

impl<T: Default> Arena<T> {
    fn chunk(&self, k: usize) -> Option<&[T]> {
        let cell = match k.checked_sub(DOUBLINGS) {
            None => &self.small[k],
            Some(big) => self.big.get()?.get(big)?,
        };
        cell.get().map(|chunk| &**chunk)
    }

    /// Element `i`, or `None` when its chunk was never allocated.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, at) = locate(i);
        Some(&self.chunk(k)?[at])
    }

    /// Element `i`, allocating its chunk on first use.
    pub fn slot(&self, i: usize) -> &T {
        let (k, at) = locate(i);
        let cell = match k.checked_sub(DOUBLINGS) {
            None => &self.small[k],
            Some(big) => &self
                .big
                .get_or_init(|| (0..BIG_CHUNKS).map(|_| OnceLock::new()).collect())[big],
        };
        &cell.get_or_init(|| (0..chunk_len(k)).map(|_| T::default()).collect())[at]
    }

    /// The elements of `range`, as one slice per chunk it spans.  Every
    /// chunk the range touches must exist.
    pub fn segments(&self, range: Range<usize>) -> impl Iterator<Item = &[T]> {
        let mut at = range.start;
        std::iter::from_fn(move || {
            if at >= range.end {
                return None;
            }
            let (k, offset) = locate(at);
            let chunk = self.chunk(k).expect("arena range was written");
            let n = (chunk.len() - offset).min(range.end - at);
            at += n;
            Some(&chunk[offset..offset + n])
        })
    }

    /// Every element of every allocated chunk, with its index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let big = self.big.get().map_or(&[][..], |table| &table[..]);
        (self.small.iter().chain(big).enumerate())
            .filter_map(|(k, cell)| Some((chunk_start(k), cell.get()?)))
            .flat_map(|(start, chunk)| (start..).zip(&**chunk))
    }

    /// Heap bytes of the allocated chunks and the big chunks' table.
    pub fn bytes(&self) -> usize {
        let big = self.big.get().map_or(&[][..], |table| &table[..]);
        let chunks = self.small.iter().chain(big).filter_map(OnceLock::get);
        chunks
            .map(|chunk| std::mem::size_of_val(&**chunk))
            .sum::<usize>()
            + std::mem::size_of_val(big)
    }

    /// An independent copy of every allocated chunk, element by element
    /// through `copy`.  The caller must exclude writers for the copy to
    /// be a consistent snapshot.
    pub fn copy_with(&self, copy: impl Fn(&T) -> T + Copy) -> Self {
        let chunk = |cell: &Chunk<T>| {
            let out = OnceLock::new();
            if let Some(chunk) = cell.get() {
                let _ = out.set(chunk.iter().map(copy).collect());
            }
            out
        };
        let big = OnceLock::new();
        if let Some(table) = self.big.get() {
            let _ = big.set(table.iter().map(chunk).collect());
        }
        Self {
            small: std::array::from_fn(|k| chunk(&self.small[k])),
            big,
        }
    }
}

/// A slot word: `(start + 1) << 32 | len` for the `len` answers at
/// `outputs[start..]`; 0 is a key with no entry.
fn pack(range: Range<usize>) -> u64 {
    (range.start as u64 + 1) << 32 | range.len() as u64
}

/// The answer range of a slot word, `None` when vacant.
fn unpack(slot: u64) -> Option<Range<usize>> {
    let start = (slot >> 32).checked_sub(1)? as usize;
    Some(start..start + (slot as u32) as usize)
}

/// An arena of answers shared by a lineage of stores — a store, its
/// forks and the stores that carried from it: answers never move or
/// change once written, so one copy serves every slot pointing at it.
#[derive(Default)]
struct Answers {
    words: Arena<AtomicU32>,
    /// Filled length, below `u32::MAX` so a slot's `start + 1` fits its
    /// half of the word; every sharing store appends under this lock.
    len: Mutex<usize>,
}

impl Answers {
    fn filled(&self) -> usize {
        *self.len.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A store's entries and the answer words they point at.  Writers store
/// answers, then the counts, then the slot, so a panic leaves the store
/// merely smaller, never torn.
#[derive(Clone, Debug, Default)]
struct Fill {
    entries: usize,
    live: usize,
}

/// Hit/miss/entry counts of one [`AnswerStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnswerStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Recorded answer sets.
    pub entries: usize,
}

impl AnswerStats {
    /// Fold `other` into `self`, saturating.
    pub fn merge(&mut self, other: &AnswerStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.entries = self.entries.saturating_add(other.entries);
    }
}

/// Complete answer sets keyed by `(column, key)`, with per-thread
/// hit/miss counter shards (see the module docs).  A full store refuses
/// new keys rather than evicting: always sound for a memo.
pub struct AnswerStore {
    /// Slot words ([`pack`]) per column, indexed by key.
    columns: Arena<Arena<AtomicU64>>,
    /// Set by the first write: a fresh arena, or a lineage's.
    answers: OnceLock<Arc<Answers>>,
    /// The writers' mutex.
    fill: Mutex<Fill>,
    max_entries: usize,
    hits: Counter,
    misses: Counter,
}

impl AnswerStore {
    /// Empty store holding at most `max_entries` entries.  It allocates
    /// no chunk until its first record.
    pub fn new(max_entries: usize) -> Self {
        Self {
            columns: Arena::default(),
            answers: OnceLock::new(),
            fill: Mutex::default(),
            max_entries,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Lock the writers' mutex; a panic never tears the store ([`Fill`]).
    fn lock(&self) -> MutexGuard<'_, Fill> {
        self.fill.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer range of `(column, key)`, if recorded: one `Acquire`
    /// load, which orders the answers before the caller reads them.
    #[inline]
    pub fn get(&self, column: usize, key: usize) -> Option<Range<usize>> {
        unpack(self.columns.get(column)?.get(key)?.load(Ordering::Acquire))
    }

    /// Append the answers of `at`, a `(column, key)`, to `out`, counting
    /// a hit or a miss (`None` misses).  Returns whether there were any.
    #[inline]
    pub fn lookup(&self, at: Option<(usize, usize)>, out: &mut Vec<Const>) -> bool {
        let Some(range) = at.and_then(|(column, key)| self.get(column, key)) else {
            self.misses.inc();
            return false;
        };
        self.copy(range, out);
        self.hits.inc();
        true
    }

    /// Append the answers at `range` (from [`Self::get`]) to `out`.
    pub fn copy(&self, range: Range<usize>, out: &mut Vec<Const>) {
        out.reserve(range.len());
        let words = self.answers.get().map(|a| a.words.segments(range));
        for segment in words.into_iter().flatten() {
            out.extend(segment.iter().map(|w| Const(w.load(Ordering::Relaxed))));
        }
    }

    /// Every recorded `(key, answer range)` of `column`, by key.
    pub fn keys(&self, column: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.columns
            .get(column)
            .into_iter()
            .flat_map(Arena::iter)
            .filter_map(|(key, slot)| Some((key, unpack(slot.load(Ordering::Acquire))?)))
    }

    /// Point `(column, key)` at `range`, which holds its answers.
    fn point(&self, fill: &mut Fill, column: usize, key: usize, range: Range<usize>) {
        fill.live += range.len();
        let slot = self.columns.slot(column).slot(key);
        slot.store(pack(range), Ordering::Release);
    }

    /// Append `answers` to the arena; their range, or `None` when the
    /// arena's `u32` offsets cannot hold them.
    fn append(&self, answers: &[Const]) -> Option<Range<usize>> {
        let arena = self.answers.get_or_init(Arc::default);
        let mut len = arena.len.lock().unwrap_or_else(PoisonError::into_inner);
        let start = *len;
        if start + answers.len() >= u32::MAX as usize {
            return None;
        }
        for (at, c) in (start..).zip(answers) {
            arena.words.slot(at).store(c.0, Ordering::Relaxed);
        }
        *len += answers.len();
        Some(start..*len)
    }

    /// Record `answers` as the entry of `(column, key)`.  Returns whether
    /// the key now holds an entry: `false` when the entry cap or the
    /// arena's `u32` offsets refused it.  A key that already has one
    /// keeps it (racing writers record identical answers).
    pub fn record(&self, column: usize, key: usize, answers: &[Const]) -> bool {
        let mut fill = self.lock();
        if self.get(column, key).is_some() {
            return true;
        }
        let Some(range) = (fill.entries < self.max_entries)
            .then(|| self.append(answers))
            .flatten()
        else {
            return false;
        };
        fill.entries += 1;
        self.point(&mut fill, column, key, range);
        true
    }

    /// Record the entry at `range` of `from` as the entry of `(column,
    /// key)`, like [`Self::record`].  A store whose first write this is
    /// joins `from`'s arena, unless more than half of it is garbage
    /// (answers no entry of `from` points at); a store in the same arena
    /// takes only the slot, not a copy of the answers.
    pub fn carry(
        &self,
        from: &AnswerStore,
        range: Range<usize>,
        column: usize,
        key: usize,
    ) -> bool {
        let arena = self.answers.get_or_init(|| from.lineage());
        if !from.answers.get().is_some_and(|a| Arc::ptr_eq(a, arena)) {
            let mut answers = Vec::new();
            from.copy(range, &mut answers);
            return self.record(column, key, &answers);
        }
        let mut fill = self.lock();
        if self.get(column, key).is_none() && fill.entries < self.max_entries {
            fill.entries += 1;
            self.point(&mut fill, column, key, range);
        }
        self.get(column, key).is_some()
    }

    /// The arena a store carrying from this one joins: this one's, or a
    /// fresh one when more than half of this one is garbage.
    fn lineage(&self) -> Arc<Answers> {
        let live = self.lock().live;
        let arena = self.answers.get().filter(|a| a.filled() <= 2 * live);
        arena.map_or_else(Arc::default, Arc::clone)
    }

    /// Grow the entry of `(column, key)`, if it exists, by what `edit`
    /// adds to a copy of its answers (`edit` may only add).  The grown
    /// answers are appended, then the slot is re-pointed, so a reader of
    /// the old slot still reads the old answers.  An entry the arena can
    /// no longer hold is dropped, so its key re-derives.  Returns how
    /// many answers were added.
    pub fn patch(&self, column: usize, key: usize, edit: impl FnOnce(&mut Vec<Const>)) -> u64 {
        let mut fill = self.lock();
        let Some(old) = self.get(column, key) else {
            return 0;
        };
        let mut answers = Vec::with_capacity(old.len() + 1);
        self.copy(old.clone(), &mut answers);
        edit(&mut answers);
        let added = answers.len() - old.len();
        if added == 0 {
            return 0;
        }
        fill.live -= old.len();
        match self.append(&answers) {
            Some(range) => self.point(&mut fill, column, key, range),
            None => {
                fill.entries -= 1;
                self.columns
                    .slot(column)
                    .slot(key)
                    .store(0, Ordering::Release);
            }
        }
        added as u64
    }

    /// Drop the entry of `(column, key)`; returns whether there was one.
    /// Its answers stay in the arena until no store shares it.
    pub fn remove(&self, column: usize, key: usize) -> bool {
        let mut fill = self.lock();
        let Some(old) = self.get(column, key) else {
            return false;
        };
        self.columns
            .slot(column)
            .slot(key)
            .store(0, Ordering::Release);
        fill.entries -= 1;
        fill.live -= old.len();
        true
    }

    /// An independent store with the same entries and cap and fresh
    /// hit/miss counters: a copy of the slot columns sharing this
    /// store's answers, or, when most of those are garbage, a carry of
    /// every entry into a fresh arena ([`Self::carry`]).  Readers never
    /// block on the copy; writers wait for it.
    pub fn fork(&self) -> Self {
        let fork = Self::new(self.max_entries);
        let arena = fork.answers.get_or_init(|| self.lineage());
        let fill = self.lock();
        if self.answers.get().is_some_and(|a| Arc::ptr_eq(a, arena)) {
            let word = |w: &AtomicU64| AtomicU64::new(w.load(Ordering::Relaxed));
            return Self {
                columns: self.columns.copy_with(|column| column.copy_with(word)),
                fill: Mutex::new(fill.clone()),
                ..fork
            };
        }
        for (column, key, range) in self.entries() {
            fork.carry(self, range, column, key);
        }
        fork
    }

    /// Every entry, as `(column, key, answer range)`.
    fn entries(&self) -> impl Iterator<Item = (usize, usize, Range<usize>)> + '_ {
        let columns = self.columns.iter().map(|(column, _)| column);
        columns.flat_map(|c| self.keys(c).map(move |(key, range)| (c, key, range)))
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> AnswerStats {
        AnswerStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            entries: self.lock().entries,
        }
    }

    /// Heap bytes of the slot columns and of the answer arena's
    /// chunks, which forks and carrying stores may share.
    pub fn bytes(&self) -> usize {
        let columns = self.columns.iter().map(|(_, column)| column.bytes());
        let answers = self.answers.get().map_or(0, |a| a.words.bytes());
        self.columns.bytes() + columns.sum::<usize>() + answers
    }

    /// Words in this store's answer arena, live or garbage: with no
    /// patch and no sharing, exactly the entries' answers.
    pub fn words(&self) -> usize {
        self.answers.get().map_or(0, |a| a.filled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts(ids: &[u32]) -> Vec<Const> {
        ids.iter().map(|&i| Const(i)).collect()
    }

    fn answers(store: &AnswerStore, column: usize, key: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        store.copy(store.get(column, key)?, &mut out);
        Some(out.iter().map(|c| c.0).collect())
    }

    #[test]
    fn chunks_double_and_cover_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        assert_eq!(locate(SMALL - 1), (DOUBLINGS - 1, BIG_CHUNK - 1));
        assert_eq!(locate(SMALL), (DOUBLINGS, 0));
        assert_eq!(locate(SMALL + BIG_CHUNK), (DOUBLINGS + 1, 0));
        // Consecutive indices walk the chunks without gaps or overlap,
        // and no chunk is larger than the slack bound.
        for k in 0..DOUBLINGS + BIG_CHUNKS {
            assert!(chunk_len(k) <= BIG_CHUNK);
            assert_eq!(locate(chunk_start(k)), (k, 0));
            let last = chunk_start(k) + chunk_len(k) - 1;
            assert_eq!(locate(last), (k, chunk_len(k) - 1));
        }
        let (k, at) = locate(u32::MAX as usize);
        assert!(k < DOUBLINGS + BIG_CHUNKS && at < chunk_len(k));
        assert_eq!(
            k,
            DOUBLINGS + BIG_CHUNKS - 1,
            "the last chunk reaches u32::MAX"
        );
    }

    #[test]
    fn stores_load_back_and_segments_span_chunks() {
        let arena: Arena<AtomicU32> = Arena::default();
        assert!(arena.get(5).is_none());
        for i in 0..100 {
            arena.slot(i).store(i as u32 * 3, Ordering::Relaxed);
        }
        assert_eq!(arena.get(99).unwrap().load(Ordering::Relaxed), 297);
        assert_eq!(
            arena.get(150).unwrap().load(Ordering::Relaxed),
            0,
            "chunk 2 exists"
        );
        let lens: Vec<usize> = arena.segments(20..99).map(<[_]>::len).collect();
        assert_eq!(lens, vec![12, 64, 3]);
        assert_eq!(
            arena.iter().count(),
            32 + 64 + 128,
            "three chunks allocated"
        );
        let copy = arena.copy_with(|w| AtomicU32::new(w.load(Ordering::Relaxed)));
        arena.slot(7).store(0, Ordering::Relaxed);
        let read: Vec<u32> = copy
            .segments(0..100)
            .flatten()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        assert_eq!(read, (0..100).map(|i| i * 3).collect::<Vec<u32>>());
    }

    #[test]
    fn a_far_index_allocates_one_bounded_chunk() {
        let arena: Arena<AtomicU32> = Arena::default();
        arena.slot(u32::MAX as usize).store(9, Ordering::Relaxed);
        arena.slot(SMALL + 5).store(4, Ordering::Relaxed);
        assert_eq!(
            arena
                .get(u32::MAX as usize)
                .unwrap()
                .load(Ordering::Relaxed),
            9
        );
        assert_eq!(
            arena.iter().count(),
            2 * BIG_CHUNK,
            "two big chunks, no small one"
        );
        assert!(arena.get(0).is_none());
    }

    #[test]
    fn bytes_count_the_allocated_chunks() {
        let arena: Arena<AtomicU32> = Arena::default();
        assert_eq!(arena.bytes(), 0);
        arena.slot(40).store(1, Ordering::Relaxed);
        assert_eq!(arena.bytes(), 64 * 4, "chunk 1 only");
        arena.slot(SMALL).store(1, Ordering::Relaxed);
        let table = BIG_CHUNKS * std::mem::size_of::<Chunk<AtomicU32>>();
        assert_eq!(arena.bytes(), (64 + BIG_CHUNK) * 4 + table);
        let store = AnswerStore::new(4);
        assert_eq!(store.bytes(), 0);
        store.record(1, 40, &consts(&[1, 2, 3]));
        let slots = std::mem::size_of::<Arena<AtomicU64>>();
        assert_eq!(store.bytes(), 32 * slots + 64 * 8 + 32 * 4);
    }

    #[test]
    fn record_refuses_past_the_cap_and_keeps_the_first_entry() {
        let store = AnswerStore::new(2);
        assert!(store.get(0, 3).is_none());
        assert!(store.record(0, 3, &consts(&[1, 2])));
        assert!(store.record(0, 3, &consts(&[9])), "already held");
        assert_eq!(answers(&store, 0, 3), Some(vec![1, 2]));
        assert!(store.record(5, 1_000_000, &[]));
        assert!(!store.record(0, 4, &consts(&[7])), "cap refuses");
        assert_eq!(answers(&store, 5, 1_000_000), Some(vec![]));
        assert_eq!(answers(&store, 0, 4), None);
        assert_eq!(
            (store.stats().entries, store.words()),
            (2, 2),
            "no payload slack"
        );
        let keys: Vec<usize> = store.keys(0).map(|(key, _)| key).collect();
        assert_eq!(keys, vec![3]);
        // Removing frees capacity: a new key records again.
        assert!(store.remove(0, 3));
        assert!(!store.remove(0, 3));
        assert!(store.record(0, 4, &consts(&[7])));
        let mut out = Vec::new();
        assert!(store.lookup(Some((0, 4)), &mut out) && !store.lookup(None, &mut out));
        assert_eq!(out, consts(&[7]));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 2));
    }

    #[test]
    fn patch_repoints_and_forks_share_answers_but_not_entries() {
        let store = AnswerStore::new(8);
        store.record(0, 1, &consts(&[1, 5]));
        store.record(0, 2, &consts(&[3]));
        let old = store.get(0, 1).unwrap();
        let fork = store.fork();
        assert_eq!(store.words(), 3, "the fork took slots, not answers");
        let sorted = |a: &mut Vec<Const>| {
            a.push(Const(0));
            a.sort_unstable();
        };
        assert_eq!(store.patch(0, 1, sorted), 1);
        assert_eq!(answers(&store, 0, 1), Some(vec![0, 1, 5]));
        assert_eq!(store.words(), 3 + 3, "one exact copy, appended");
        assert_eq!(store.patch(0, 1, |_| {}), 0, "nothing new");
        assert_eq!(
            store.patch(0, 7, |a| a.push(Const(1))),
            0,
            "absent stays absent"
        );
        // The old range still reads the old answers; the fork never saw
        // a patch, and its own patch does not leak back.
        let mut before = Vec::new();
        store.copy(old, &mut before);
        assert_eq!(before, consts(&[1, 5]));
        assert_eq!(answers(&fork, 0, 1), Some(vec![1, 5]));
        assert_eq!(fork.patch(0, 2, |a| a.push(Const(4))), 1);
        assert_eq!(answers(&fork, 0, 2), Some(vec![3, 4]));
        assert_eq!(answers(&store, 0, 2), Some(vec![3]));
        assert_eq!((store.stats().entries, fork.stats().entries), (2, 2));
        // A store carrying from a mostly-garbage arena starts a fresh one.
        store.patch(0, 1, |a| a.extend(consts(&[6, 7, 8, 9])));
        for more in [6, 7, 8] {
            store.patch(0, 2, |a| a.push(Const(more)));
        }
        assert!(store.words() > 2 * (7 + 4), "more than half is garbage");
        let next = AnswerStore::new(8);
        assert!(next.carry(&store, store.get(0, 1).unwrap(), 0, 1));
        assert_eq!(next.words(), 7, "compacted: only the carried entry");
        let compacted = store.fork();
        assert_eq!(compacted.words(), 7 + 4, "a fork compacts too");
        assert_eq!(answers(&compacted, 0, 2), Some(vec![3, 6, 7, 8]));
        assert_eq!(answers(&next, 0, 1), Some(vec![0, 1, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn store_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnswerStore>();
        assert_send_sync::<Arena<AtomicU64>>();
    }
}
