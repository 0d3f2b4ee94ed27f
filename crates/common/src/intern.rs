//! String and value interning.
//!
//! Every constant, predicate name, and variable name in a Datalog program is
//! interned to a dense `u32` id once, at parse time.  All evaluation
//! strategies then work purely on integers, which keeps hash probes cheap and
//! tuple storage compact (the perf guide's "smaller integers" advice).

use crate::hash::FxHashMap;
use crate::pshare::{PMap, PVec};
use std::fmt::{self, Write as _};

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
    /// A tuple of other constants.  Produced by the §4 transformation, whose
    /// binary relations range over tuples `t(X^b)` / `t(X^f)` of original
    /// constants.  Never produced by the parser.
    Tuple(Vec<Const>),
}

impl ConstValue {
    /// Orders two values the way the built-in comparison predicates do:
    /// integers numerically, strings lexicographically, tuples
    /// lexicographically by component id.  Mixed kinds order by kind
    /// (Int < Str < Tuple) so that comparisons are total.
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
#[derive(Default, Clone)]
pub struct ConstInterner {
    values: PVec<ConstValue>,
    lookup: PMap<ConstValue, Const>,
}

impl ConstInterner {
    /// New, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a value, returning its id (stable across repeat calls).
    pub fn intern(&mut self, value: ConstValue) -> Const {
        if let Some(&id) = self.lookup.get(&value) {
            return id;
        }
        let id = Const::from_index(self.values.len());
        self.values.push(value.clone());
        self.lookup.insert(value, id);
        id
    }

    /// Intern a symbolic constant.
    pub fn intern_str(&mut self, s: &str) -> Const {
        if let Some(&id) = self.lookup.get(&ConstValue::Str(s.to_owned())) {
            return id;
        }
        self.intern(ConstValue::Str(s.to_owned()))
    }

    /// Intern an integer constant.
    pub fn intern_int(&mut self, i: i64) -> Const {
        self.intern(ConstValue::Int(i))
    }

    /// Intern a tuple constant (used by the §4 transformation).
    pub fn intern_tuple(&mut self, components: Vec<Const>) -> Const {
        self.intern(ConstValue::Tuple(components))
    }

    /// The value behind an id.
    pub fn value(&self, id: Const) -> &ConstValue {
        self.values.get(id.index()).expect("unknown constant id")
    }

    /// Look up an already-interned value without inserting.
    pub fn get(&self, value: &ConstValue) -> Option<Const> {
        self.lookup.get(value).copied()
    }

    /// Number of interned constants.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render a constant for display, recursing into tuples.
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
            ConstValue::Tuple(parts) => {
                out.push_str("t(");
                for (i, &part) in parts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.display_into(part, out);
                }
                out.push(')');
            }
        }
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
    fn tuple_interning() {
        let mut i = ConstInterner::new();
        let a = i.intern_str("a");
        let b = i.intern_str("b");
        let t1 = i.intern_tuple(vec![a, b]);
        let t2 = i.intern_tuple(vec![a, b]);
        let t3 = i.intern_tuple(vec![b, a]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(i.display(t1), "t(a,b)");
    }

    #[test]
    fn nested_tuple_display() {
        let mut i = ConstInterner::new();
        let a = i.intern_str("a");
        let inner = i.intern_tuple(vec![a]);
        let outer = i.intern_tuple(vec![inner, a]);
        assert_eq!(i.display(outer), "t(t(a),a)");
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
