//! Append-only chunked arenas of atomic words: the storage under
//! [`crate::ProbeSpace`].
//!
//! Chunk `k` holds `32 << k` words and is allocated on its first
//! store, behind a `OnceLock`, so a word never moves once it exists.
//! A reader that learned an index through a synchronizing load (or
//! from its own thread) therefore reads the word with no lock.  An
//! arena has no length of its own: its owner serializes the writers
//! and tracks how far each arena is filled.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Words in chunk 0; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 32;

/// Chunks `0..28` hold `32 · (2^28 − 1) > 2^32` words: every `u32`
/// index has one.
const CHUNKS: usize = 28;

/// An atomic word an [`Arena`] stores.
pub(crate) trait Word {
    /// The plain value the word holds.
    type Value: Copy;
    /// A word holding `value`.
    fn new(value: Self::Value) -> Self;
    /// Load the value.
    fn load(&self, order: Ordering) -> Self::Value;
    /// Store `value`.
    fn store(&self, value: Self::Value, order: Ordering);
}

impl Word for AtomicU32 {
    type Value = u32;
    fn new(value: u32) -> Self {
        AtomicU32::new(value)
    }
    fn load(&self, order: Ordering) -> u32 {
        AtomicU32::load(self, order)
    }
    fn store(&self, value: u32, order: Ordering) {
        AtomicU32::store(self, value, order);
    }
}

impl Word for AtomicU64 {
    type Value = u64;
    fn new(value: u64) -> Self {
        AtomicU64::new(value)
    }
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }
    fn store(&self, value: u64, order: Ordering) {
        AtomicU64::store(self, value, order);
    }
}

/// The chunk holding index `i`, and `i`'s offset in it.
fn locate(i: usize) -> (usize, usize) {
    let j = i + FIRST_CHUNK;
    let k = (j.ilog2() - FIRST_CHUNK.ilog2()) as usize;
    (k, j - (FIRST_CHUNK << k))
}

/// An append-only array of atomic words, indexed from 0.  Words of a
/// chunk that exists but were never stored read as zero.
pub(crate) struct Arena<W> {
    chunks: [OnceLock<Box<[W]>>; CHUNKS],
}

impl<W> Default for Arena<W> {
    fn default() -> Self {
        Self {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl<W: Word> Arena<W>
where
    W::Value: Default,
{
    /// Word `i`, or `None` when its chunk was never allocated (no word
    /// of that chunk was ever stored).
    pub(crate) fn load(&self, i: usize, order: Ordering) -> Option<W::Value> {
        let (k, at) = locate(i);
        Some(self.chunks.get(k)?.get()?[at].load(order))
    }

    /// Store word `i`, allocating its chunk on first use.
    pub(crate) fn store(&self, i: usize, value: W::Value, order: Ordering) {
        let (k, at) = locate(i);
        self.chunks[k].get_or_init(|| {
            (0..FIRST_CHUNK << k)
                .map(|_| W::new(W::Value::default()))
                .collect()
        })[at]
            .store(value, order);
    }

    /// The words of `range`, as one slice per chunk it spans.  Every
    /// chunk the range touches must exist.
    pub(crate) fn segments(&self, range: Range<usize>) -> impl Iterator<Item = &[W]> {
        let mut at = range.start;
        std::iter::from_fn(move || {
            if at >= range.end {
                return None;
            }
            let (k, offset) = locate(at);
            let chunk = self.chunks[k].get().expect("arena range was written");
            let n = (chunk.len() - offset).min(range.end - at);
            at += n;
            Some(&chunk[offset..offset + n])
        })
    }

    /// An independent copy of every allocated chunk.  The caller must
    /// exclude writers for the copy to be a consistent snapshot.
    pub(crate) fn copy(&self) -> Self {
        Self {
            chunks: std::array::from_fn(|k| {
                let copy = OnceLock::new();
                if let Some(chunk) = self.chunks[k].get() {
                    let words: Box<[W]> = chunk
                        .iter()
                        .map(|w| W::new(w.load(Ordering::Relaxed)))
                        .collect();
                    let _ = copy.set(words);
                }
                copy
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_double_and_cover_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        let (k, at) = locate(u32::MAX as usize);
        assert!(k < CHUNKS && at < FIRST_CHUNK << k);
    }

    #[test]
    fn stores_load_back_and_segments_span_chunks() {
        let arena: Arena<AtomicU32> = Arena::default();
        assert_eq!(arena.load(5, Ordering::Relaxed), None);
        for i in 0..100 {
            arena.store(i, i as u32 * 3, Ordering::Relaxed);
        }
        assert_eq!(arena.load(99, Ordering::Relaxed), Some(297));
        assert_eq!(
            arena.load(150, Ordering::Relaxed),
            Some(0),
            "chunk 2 exists"
        );
        let lens: Vec<usize> = arena.segments(20..99).map(<[_]>::len).collect();
        assert_eq!(lens, vec![12, 64, 3]);
        let copy = arena.copy();
        arena.store(7, 0, Ordering::Relaxed);
        let read: Vec<u32> = copy
            .segments(0..100)
            .flatten()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        assert_eq!(read, (0..100).map(|i| i * 3).collect::<Vec<u32>>());
    }
}
