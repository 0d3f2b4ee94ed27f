//! A flat hash table of bare `u32` ids over the caller's storage.
//!
//! An [`IdTable`] stores no keys and no hashes: each slot holds one id
//! (or is vacant), a probe compares a candidate by reading its key back
//! from wherever the caller keeps it, and growing rehashes every id
//! through that storage too.  It is the layout of the persistent dedup
//! tables (`pshare::PMap` filing bare ordinals), but flat: one
//! power-of-two array of 4-byte slots, linear probing, load at most
//! one half, so a key costs 8 bytes at worst and a probe reads one
//! cache line in the common case.
//!
//! The table never deletes, so a probe run ends at the first vacant
//! slot.  Callers hash keys with any 64-bit hash whose low bits are
//! well mixed (`pshare::hash_of` and `FxHasher` qualify), as long as one
//! table sees one hashing scheme.

/// A slot holding no id.  `u32::MAX` is never an id: every user hands
/// out ids below it (tuple ordinals, interned tuple indexes).
const VACANT: u32 = u32::MAX;

/// Slots of the first allocation.
const MIN_SLOTS: usize = 8;

/// A linear-probing table of `u32` ids (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// `VACANT` or an id; empty until the first insert, else a power of
    /// two at least twice `len`.
    slots: Box<[u32]>,
    /// Ids held.
    len: usize,
}

impl IdTable {
    /// Ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes of the slot array.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// First slot of `hash`'s probe run.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    /// Probe for the id whose key `eq` accepts, starting at `hash`'s
    /// home slot: `Ok(slot)` holding it, or `Err(slot)`, the vacant
    /// slot to pass to [`Self::insert`] when the key is new.
    #[inline]
    pub fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            match self.slots[at] {
                VACANT => return Err(at),
                id if eq(id) => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The id whose key `eq` accepts, if held.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash, eq).ok().map(|at| self.slots[at])
    }

    /// The id in `slot`, a slot [`Self::probe`] found.
    #[inline]
    pub fn id(&self, slot: usize) -> u32 {
        self.slots[slot]
    }

    /// Put `id` in place of the one in `slot`, a slot [`Self::probe`]
    /// found: the new id must have the same key.
    #[inline]
    pub fn replace(&mut self, slot: usize, id: u32) {
        debug_assert_ne!(self.slots[slot], VACANT);
        debug_assert_ne!(id, VACANT);
        self.slots[slot] = id;
    }

    /// Add `id`, whose key is absent, at `vacant` — the `Err` of the
    /// [`Self::probe`] that missed it, with no insert in between.
    /// `hash_of` gives the hash of any held id, `id` included: when the
    /// load would pass one half the table doubles first and refiles
    /// every id through it.
    pub fn insert(&mut self, vacant: usize, id: u32, mut hash_of: impl FnMut(u32) -> u64) {
        debug_assert_ne!(id, VACANT);
        let mut at = vacant;
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(&mut hash_of);
            at = self.vacant(hash_of(id));
        }
        debug_assert_eq!(self.slots[at], VACANT);
        self.slots[at] = id;
        self.len += 1;
    }

    /// The first vacant slot of `hash`'s probe run.
    fn vacant(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        while self.slots[at] != VACANT {
            at = (at + 1) & mask;
        }
        at
    }

    /// Double the slot array (allocate it, if empty) and refile every
    /// id under `hash_of`.
    fn grow(&mut self, hash_of: &mut impl FnMut(u32) -> u64) {
        let slots = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; slots].into_boxed_slice());
        for id in old.iter().copied().filter(|&id| id != VACANT) {
            let at = self.vacant(hash_of(id));
            self.slots[at] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pshare::hash_of;
    use std::collections::HashMap;

    /// A table over `keys` (id `i` has key `keys[i]`) and its model.
    struct Fixture {
        table: IdTable,
        keys: Vec<u64>,
        model: HashMap<u64, u32>,
        hash: fn(u64) -> u64,
    }

    impl Fixture {
        fn new(hash: fn(u64) -> u64) -> Self {
            Self {
                table: IdTable::default(),
                keys: Vec::new(),
                model: HashMap::new(),
                hash,
            }
        }

        /// The id of `key`, added on first sight, in first-sight order.
        fn intern(&mut self, key: u64) -> u32 {
            let (keys, hash) = (&self.keys, self.hash);
            match self.table.probe(hash(key), |id| keys[id as usize] == key) {
                Ok(at) => self.table.id(at),
                Err(at) => {
                    let id = self.keys.len() as u32;
                    self.keys.push(key);
                    let keys = &self.keys;
                    self.table.insert(at, id, |id| hash(keys[id as usize]));
                    id
                }
            }
        }

        fn find(&self, key: u64) -> Option<u32> {
            let keys = &self.keys;
            self.table
                .find((self.hash)(key), |id| keys[id as usize] == key)
        }

        /// Every held key is found under its id, `absent` keys are
        /// missed, and the load stays at most one half.
        fn check(&self, absent: impl IntoIterator<Item = u64>) {
            assert_eq!(self.table.len(), self.model.len());
            for (&key, &id) in &self.model {
                assert_eq!(self.find(key), Some(id), "key {key}");
            }
            for key in absent {
                assert!(!self.model.contains_key(&key));
                assert_eq!(self.find(key), None, "absent key {key}");
            }
            assert!(2 * self.table.len() <= self.table.slots.len().max(1));
        }
    }

    fn below(seed: &mut u64, n: u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed % n
    }

    #[test]
    fn matches_a_hash_map_model_through_growth() {
        let hashes: [fn(u64) -> u64; 3] = [
            |k| hash_of(&k),
            // Every key in one probe run: the home slot is the same for
            // all of them, so every probe walks the run.
            |_| 0x5eed,
            // Few distinct hashes: runs of many keys that interleave.
            |k| hash_of(&(k % 3)),
        ];
        for (which, &hash) in hashes.iter().enumerate() {
            let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ which as u64;
            let mut fx = Fixture::new(hash);
            fx.check([1, 2, 3]);
            let pool = if which == 0 { 20_000 } else { 600 };
            let steps = if which == 0 { 30_000 } else { 1_500 };
            let mut capacity = 0;
            for step in 0..steps {
                let key = below(&mut seed, pool);
                let fresh = fx.model.len() as u32;
                let id = *fx.model.entry(key).or_insert(fresh);
                assert_eq!(fx.intern(key), id, "step {step}, key {key}");
                if fx.table.slots.len() != capacity || step % 997 == 0 {
                    // Just grown (or a periodic check): ids survive the
                    // refiling, and keys outside the pool are missed.
                    capacity = fx.table.slots.len();
                    fx.check((0..8).map(|k| pool + k));
                }
            }
            fx.check((0..64).map(|k| pool + k * 31));
            // Every id the model handed out is there, in first-sight order.
            let mut ids: Vec<u32> = fx.model.values().copied().collect();
            ids.sort_unstable();
            assert!(ids.iter().copied().eq(0..fx.keys.len() as u32));
        }
    }

    #[test]
    fn replace_keeps_the_key_and_bytes_count_slots() {
        let keys = [7u64, 9, 7];
        let mut table = IdTable::default();
        assert_eq!((table.bytes(), table.find(1, |_| true)), (0, None));
        let hash = |k: u64| hash_of(&k);
        for id in 0..2u32 {
            let key = keys[id as usize];
            let at = table
                .probe(hash(key), |i| keys[i as usize] == key)
                .unwrap_err();
            table.insert(at, id, |i| hash(keys[i as usize]));
        }
        // Id 2 carries the same key as id 0: it takes over its slot.
        let at = table.probe(hash(7), |i| keys[i as usize] == 7).unwrap();
        table.replace(at, 2);
        assert_eq!(table.find(hash(7), |i| keys[i as usize] == 7), Some(2));
        assert_eq!(table.len(), 2);
        assert_eq!(table.bytes(), MIN_SLOTS * 4);
    }
}
