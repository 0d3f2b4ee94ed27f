//! String and value interning.
//!
//! Every constant, predicate name, and variable name in a Datalog program is
//! interned to a dense `u32` id once, at parse time.  All evaluation
//! strategies then work purely on integers, which keeps hash probes cheap and
//! tuple storage compact (the perf guide's "smaller integers" advice).

use crate::hash::FxHashMap;
use crate::json::{escape_str_into, write_i64};
use crate::pshare::{hash_of, PMap, PVec};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Declares a `u32` newtype id with the plumbing an interner needs.
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build from a raw index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// An interned constant (a domain element of the database).
    Const,
    "c"
);
define_id!(
    /// An interned predicate (relation) name.
    Pred,
    "p"
);
define_id!(
    /// An interned variable name (scoped to a single rule).
    Var,
    "v"
);

/// The value a [`Const`] stands for.
///
/// The paper's flight example (§4) compares departure/arrival times with the
/// built-in `<`, so constants carry either an integer or a string value and
/// integers order numerically.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstValue {
    /// An integer constant such as `1430`.
    Int(i64),
    /// A symbolic constant such as `john`.
    Str(String),
}

impl ConstValue {
    /// Orders two values the way the built-in comparison predicates do:
    /// integers numerically, strings lexicographically.  Mixed kinds
    /// order by kind (Int < Str) so that comparisons are total.
    pub fn builtin_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp(other)
    }
}

/// Interner for constants, mapping [`ConstValue`]s to dense [`Const`] ids.
///
/// Backed by persistent storage ([`PVec`] / [`PMap`]) so the serving
/// layer's snapshot publication can clone a whole program in O(pointer
/// bumps): an ingest that interns three new constants shares all prior
/// interner structure with the parent epoch.
///
/// Each value is stored once, in `values`.  The lookup table files the
/// bare id under the value's hash and compares candidates by reading
/// `values` — the ids-into-existing-storage layout `ProbeSpace`'s tuple
/// interner uses too — so a lookup of an already-interned name
/// allocates nothing.  A program's constants are interned at parse time
/// by [`SourceInterner`], which builds this table in one pass when the
/// parse ends; later interns (ingest, recovery) file one value at a
/// time into the same trie.
///
/// Beside `values` sits the text store: every constant's JSON
/// encoding ([`Self::json_text`]), rendered once when the constant is
/// interned — an integer's digits, a string's quoted and escaped form
/// — so answer rows go to the wire
/// as one slice copy per cell.  The store is a list of `Arc`-shared
/// chunks of 256 constants each: one byte buffer holding the texts back
/// to back plus 257 `u32` offsets, found by shift and mask.  A clone
/// shares every chunk; a publish that interns k constants appends k
/// texts and copies at most the tail chunk; a full chunk is trimmed to
/// its length.  A constant costs its text plus 4 bytes: on the
/// benchmark's `cold_reach` program (208,895 constants, seed 42) that
/// is 8.5 B of text and 12.8 B in all, 2.7 MB.
#[derive(Default, Clone)]
pub struct ConstInterner {
    values: PVec<ConstValue>,
    lookup: PMap<Const, ()>,
    texts: TextStore,
}

/// log₂ of the constants per [`TextChunk`].
const TEXT_SHIFT: usize = 8;
/// Constants per [`TextChunk`].
const TEXT_CHUNK: usize = 1 << TEXT_SHIFT;

/// The JSON texts of up to [`TEXT_CHUNK`] consecutive constants, back
/// to back: text `k` is `bytes[bounds[k]..bounds[k + 1]]`.
#[derive(Clone)]
struct TextChunk {
    /// `bounds[0] == 0`; one more entry per text.
    bounds: Vec<u32>,
    bytes: Vec<u8>,
}

/// The append-only, chunk-shared store behind [`ConstInterner::json_text`].
#[derive(Default, Clone)]
struct TextStore {
    chunks: Vec<Arc<TextChunk>>,
}

impl TextStore {
    /// Text `i`: two offset loads and a slice, no division.
    #[inline]
    fn get(&self, i: usize) -> &[u8] {
        let chunk = &self.chunks[i >> TEXT_SHIFT];
        let k = i & (TEXT_CHUNK - 1);
        &chunk.bytes[chunk.bounds[k] as usize..chunk.bounds[k + 1] as usize]
    }

    /// Append the next text, written by `render`.  A tail chunk shared
    /// with another clone is copied first; a chunk that fills is
    /// trimmed to its length.
    fn push(&mut self, render: impl FnOnce(&mut Vec<u8>)) {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.bounds.len() > TEXT_CHUNK)
        {
            let mut bounds = Vec::with_capacity(TEXT_CHUNK + 1);
            bounds.push(0);
            self.chunks.push(Arc::new(TextChunk {
                bounds,
                bytes: Vec::new(),
            }));
        }
        let tail = Arc::make_mut(self.chunks.last_mut().expect("a tail chunk"));
        render(&mut tail.bytes);
        let end = u32::try_from(tail.bytes.len()).expect("a text chunk stays under 4 GiB");
        tail.bounds.push(end);
        if tail.bounds.len() > TEXT_CHUNK {
            tail.bounds.shrink_to_fit();
            tail.bytes.shrink_to_fit();
        }
    }
}

/// The hash a value is filed under: a kind tag, then the payload, so
/// [`ConstInterner::get_str`] and [`ConstInterner::get_int`] hash a
/// borrowed `&str` or a bare `i64` exactly like the owned value.
fn value_hash(value: &ConstValue) -> u64 {
    match value {
        ConstValue::Int(i) => int_hash(*i),
        ConstValue::Str(s) => str_hash(s),
    }
}

fn int_hash(i: i64) -> u64 {
    hash_of(&(0u8, i))
}

fn str_hash(s: &str) -> u64 {
    hash_of(&(1u8, s))
}

impl ConstInterner {
    /// New, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of the value filed under `hash` that satisfies `eq`.  A
    /// read-only walk: a hit neither allocates nor path-copies a map
    /// shared with another version.
    fn find(&self, hash: u64, eq: impl Fn(&ConstValue) -> bool) -> Option<Const> {
        let mut id = None;
        self.lookup.get_hashed(hash, |&c| {
            let hit = eq(&self.values[c.index()]);
            if hit {
                id = Some(c);
            }
            hit
        });
        id
    }

    /// Append a value [`Self::find`] just missed under the next dense id,
    /// filing it in the lookup trie.
    fn push(&mut self, hash: u64, value: ConstValue) -> Const {
        let id = self.append(value);
        self.lookup.entry_hashed(hash, |_| false, || (id, ()));
        id
    }

    /// Store a value and render its JSON text under the next dense id.
    /// Every constant is born here; the caller files it for lookup.
    fn append(&mut self, value: ConstValue) -> Const {
        let id = Const::from_index(self.values.len());
        self.values.push(value);
        match &self.values[id.index()] {
            ConstValue::Int(i) => self.texts.push(|out| write_i64(*i, out)),
            ConstValue::Str(s) => self.texts.push(|out| escape_str_into(s, out)),
        }
        id
    }

    /// Intern a value, returning its id (stable across repeat calls).
    pub fn intern(&mut self, value: ConstValue) -> Const {
        let hash = value_hash(&value);
        match self.find(hash, |v| *v == value) {
            Some(id) => id,
            None => self.push(hash, value),
        }
    }

    /// Intern a symbolic constant.  Allocates only when `s` is new.
    pub fn intern_str(&mut self, s: &str) -> Const {
        match self.get_str(s) {
            Some(id) => id,
            None => self.push(str_hash(s), ConstValue::Str(s.to_owned())),
        }
    }

    /// Intern an integer constant.
    pub fn intern_int(&mut self, i: i64) -> Const {
        match self.get_int(i) {
            Some(id) => id,
            None => self.push(int_hash(i), ConstValue::Int(i)),
        }
    }

    /// The value behind an id.
    pub fn value(&self, id: Const) -> &ConstValue {
        self.values.get(id.index()).expect("unknown constant id")
    }

    /// The constant's JSON encoding, exactly as [`crate::json`] writes
    /// the value, rendered when it was interned.
    #[inline]
    pub fn json_text(&self, id: Const) -> &[u8] {
        self.texts.get(id.index())
    }

    /// Look up an already-interned value without inserting.
    pub fn get(&self, value: &ConstValue) -> Option<Const> {
        self.find(value_hash(value), |v| v == value)
    }

    /// [`Self::get`] of a symbolic constant, from a borrowed name.
    pub fn get_str(&self, s: &str) -> Option<Const> {
        self.find(str_hash(s), |v| matches!(v, ConstValue::Str(t) if t == s))
    }

    /// [`Self::get`] of an integer constant.
    pub fn get_int(&self, i: i64) -> Option<Const> {
        self.find(int_hash(i), |v| *v == ConstValue::Int(i))
    }

    /// Number of interned constants.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render a constant for display.
    pub fn display(&self, id: Const) -> String {
        let mut out = String::new();
        self.display_into(id, &mut out);
        out
    }

    /// Append [`ConstInterner::display`] of `id` to `out` — row
    /// renderers print a whole answer into one buffer through this.
    pub fn display_into(&self, id: Const, out: &mut String) {
        match self.value(id) {
            ConstValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            ConstValue::Str(s) => out.push_str(s),
        }
    }
}

/// The constants of one source text, interned while it is parsed.
///
/// A plain [`FxHashMap`] keyed by the borrowed source slice (or the
/// integer) finds repeats, so an occurrence costs one hash probe and
/// no trie walk; ids are dense in first-occurrence order, exactly as
/// [`ConstInterner::intern`] would hand them out.  [`Self::finish`]
/// then builds the persistent [`ConstInterner`], its lookup trie in one
/// pass ([`PMap::from_hashed`]).
#[derive(Default)]
pub struct SourceInterner<'src> {
    strs: FxHashMap<&'src str, Const>,
    ints: FxHashMap<i64, Const>,
    /// Values and texts so far; `lookup` stays empty until `finish`.
    consts: ConstInterner,
}

impl<'src> SourceInterner<'src> {
    /// New, empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a symbolic constant borrowed from the source.
    pub fn intern_str(&mut self, s: &'src str) -> Const {
        let consts = &mut self.consts;
        *self
            .strs
            .entry(s)
            .or_insert_with(|| consts.append(ConstValue::Str(s.to_owned())))
    }

    /// Intern an integer constant.
    pub fn intern_int(&mut self, i: i64) -> Const {
        let consts = &mut self.consts;
        *self
            .ints
            .entry(i)
            .or_insert_with(|| consts.append(ConstValue::Int(i)))
    }

    /// The persistent interner holding every constant seen, under the
    /// same ids.
    pub fn finish(self) -> ConstInterner {
        let mut consts = self.consts;
        let entries = consts
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| (value_hash(v), Const::from_index(i), ()))
            .collect();
        consts.lookup = PMap::from_hashed(entries);
        consts
    }
}

/// Interner for plain names (predicates, variables).
#[derive(Default, Clone)]
pub struct NameInterner {
    names: Vec<String>,
    lookup: FxHashMap<String, u32>,
}

impl NameInterner {
    /// New, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, returning its dense index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), id);
        id
    }

    /// The name behind an index.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.lookup.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interners_are_shareable_across_threads() {
        // The serving layer shares `Arc<Program>` snapshots (which embed
        // these interners) across query worker threads; keep them free of
        // `Rc`/`Cell` state.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Const>();
        assert_send_sync::<Pred>();
        assert_send_sync::<ConstValue>();
        assert_send_sync::<ConstInterner>();
        assert_send_sync::<NameInterner>();
    }

    #[test]
    fn const_interning_is_stable() {
        let mut i = ConstInterner::new();
        let a = i.intern_str("john");
        let b = i.intern_str("mary");
        let a2 = i.intern_str("john");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.display(a), "john");
    }

    #[test]
    fn int_and_str_do_not_collide() {
        let mut i = ConstInterner::new();
        let n = i.intern_int(42);
        let s = i.intern_str("42");
        assert_ne!(n, s);
        assert_eq!(i.value(n), &ConstValue::Int(42));
    }

    #[test]
    fn intern_str_agrees_with_intern_and_get() {
        let mut i = ConstInterner::new();
        let names: Vec<String> = (0..500).map(|k| format!("n{}", k % 300)).collect();
        let mut first_seen: Vec<&str> = Vec::new();
        for (k, name) in names.iter().enumerate() {
            // Alternate the two entry points: they must share ids.
            let id = if k % 2 == 0 {
                i.intern_str(name)
            } else {
                i.intern(ConstValue::Str(name.clone()))
            };
            if !first_seen.contains(&name.as_str()) {
                first_seen.push(name);
            }
            // Dense ids, in first-appearance order.
            let pos = first_seen.iter().position(|s| s == name).unwrap();
            assert_eq!(id, Const::from_index(pos));
            assert_eq!(i.get(&ConstValue::Str(name.clone())), Some(id));
            assert_eq!(i.get_str(name), Some(id));
        }
        assert_eq!(i.len(), 300);
        assert_eq!(i.intern_int(7), Const::from_index(300));
        assert_eq!(i.get(&ConstValue::Int(7)), Some(Const::from_index(300)));
        assert_eq!(i.get_int(7), Some(Const::from_index(300)));
        assert_eq!(i.intern(ConstValue::Int(-7)), i.intern_int(-7));
        assert_eq!(i.get_int(-7), Some(Const::from_index(301)));
        assert_eq!(i.get(&ConstValue::Str("7".into())), None);
        assert_eq!(i.get_str("7"), None);
        assert_eq!(i.get_int(8), None);
        assert_eq!(i.get(&ConstValue::Str("n300".into())), None);
        assert_eq!(i.get_str("n300"), None);
    }

    #[test]
    fn interner_clones_are_isolated() {
        let mut base = ConstInterner::new();
        let a = base.intern_str("a");
        let mut left = base.clone();
        let mut right = base.clone();
        // The same next id goes to different values in each clone.
        let l = left.intern_str("left");
        let r = right.intern_int(9);
        assert_eq!(l, r);
        assert_eq!(left.value(l), &ConstValue::Str("left".into()));
        assert_eq!(right.value(r), &ConstValue::Int(9));
        assert_eq!(left.get(&ConstValue::Int(9)), None);
        assert_eq!(right.get(&ConstValue::Str("left".into())), None);
        assert_eq!(base.len(), 1);
        assert_eq!(base.get(&ConstValue::Str("left".into())), None);
        assert_eq!(left.intern_str("a"), a);
        assert_eq!(right.intern_str("a"), a);
    }

    /// The encoding `json_text` must reproduce: the [`Json`] encoder's
    /// bytes for the value.
    ///
    /// [`Json`]: crate::json::Json
    fn reference_text(consts: &ConstInterner, c: Const) -> String {
        use crate::json::Json;
        match consts.value(c) {
            ConstValue::Int(i) => Json::Int(*i).encode(),
            ConstValue::Str(s) => Json::Str(s.clone()).encode(),
        }
    }

    fn assert_texts_match(consts: &ConstInterner) {
        for i in 0..consts.len() {
            let c = Const::from_index(i);
            assert_eq!(
                std::str::from_utf8(consts.json_text(c)).unwrap(),
                reference_text(consts, c),
                "text of {c:?}"
            );
        }
    }

    #[test]
    fn json_texts_match_the_encoder_across_chunks() {
        let mut i = ConstInterner::new();
        let names = [
            "a",
            "q\"x",
            "back\\slash",
            "tab\t",
            "\u{1}",
            "é€😀",
            "",
            "x'",
        ];
        for k in 0..3 * TEXT_CHUNK + 5 {
            match k % 4 {
                0 => i.intern_str(&format!("{}{k}", names[k % names.len()])),
                1 => i.intern_int(
                    [i64::MIN, -1, 0, 1430, i64::MAX][k % 5].wrapping_sub(k as i64 % 7),
                ),
                _ => i.intern_str(names[k % names.len()]),
            };
        }
        assert_texts_match(&i);
        let quoted = i.intern_str("q\"x0");
        assert_eq!(i.json_text(quoted), br#""q\"x0""#);
        let minus = i.intern_int(-5);
        assert_eq!(i.json_text(minus), b"-5");
        // Full chunks hold no slack.
        for chunk in &i.texts.chunks[..i.texts.chunks.len() - 1] {
            assert_eq!(chunk.bounds.len(), TEXT_CHUNK + 1);
            assert_eq!(chunk.bytes.capacity(), chunk.bytes.len());
            assert_eq!(chunk.bounds.capacity(), chunk.bounds.len());
        }
    }

    #[test]
    fn text_store_clones_render_their_own_constant_at_a_shared_id() {
        // Two forks of one epoch (say a publish and a failed ingest)
        // intern different values at the same next id: each must read
        // its own text, and the parent must read neither.
        let mut base = ConstInterner::new();
        for k in 0..TEXT_CHUNK + 3 {
            base.intern_str(&format!("n{k}"));
        }
        let before: Vec<Vec<u8>> = (0..base.len())
            .map(|k| base.json_text(Const::from_index(k)).to_vec())
            .collect();
        let mut left = base.clone();
        let mut right = base.clone();
        let l = left.intern_str("say \"hi\"");
        let r = right.intern_int(-42);
        assert_eq!(l, r);
        assert_eq!(left.json_text(l), br#""say \"hi\"""#);
        assert_eq!(right.json_text(r), b"-42");
        assert_texts_match(&left);
        assert_texts_match(&right);
        assert_eq!(base.len(), TEXT_CHUNK + 3);
        for (k, text) in before.iter().enumerate() {
            assert_eq!(base.json_text(Const::from_index(k)), &text[..]);
        }
        // The clones share the full chunk and copied only the tail.
        for fork in [&left, &right] {
            assert!(Arc::ptr_eq(&fork.texts.chunks[0], &base.texts.chunks[0]));
            assert!(!Arc::ptr_eq(&fork.texts.chunks[1], &base.texts.chunks[1]));
        }
        // Filling the tail and starting a new chunk leaves base alone.
        for k in 0..TEXT_CHUNK {
            left.intern_int(k as i64);
        }
        assert_texts_match(&left);
        assert_eq!(base.texts.chunks.len(), 2);
        assert_eq!(base.texts.chunks[1].bounds.len(), 4);
    }

    #[test]
    fn builtin_cmp_orders_ints_numerically() {
        use std::cmp::Ordering;
        assert_eq!(
            ConstValue::Int(9).builtin_cmp(&ConstValue::Int(10)),
            Ordering::Less
        );
        // String "9" > "10" lexicographically; ints must not go that path.
        assert_eq!(
            ConstValue::Str("9".into()).builtin_cmp(&ConstValue::Str("10".into())),
            Ordering::Greater
        );
    }

    #[test]
    fn name_interner_roundtrip() {
        let mut n = NameInterner::new();
        let p = n.intern("sg");
        let q = n.intern("up");
        assert_eq!(n.intern("sg"), p);
        assert_eq!(n.name(p), "sg");
        assert_eq!(n.name(q), "up");
        assert_eq!(n.get("down"), None);
    }
}
