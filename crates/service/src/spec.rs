//! The generalized query representation: one n-ary predicate with each
//! argument bound to a constant or free, repeated free variables
//! expressing equality constraints (`p(X, X)` is the diagonal).
//!
//! A [`QuerySpec`] is *canonical*: free-variable slots are renumbered
//! by first occurrence, so `tc(a, Y)` and `tc(a, Z)` are the same spec
//! (and the same cache key), while `p(X, X)` and `p(X, Y)` stay
//! distinct.  The spec's [`Adornment`] — the `{b,f}` string of §4 —
//! is derived from it and is the planning key: plans depend only on
//! which positions are bound, never on the bound values.

use rq_common::{Const, Pred, Rows};

pub use rq_adorn::Adornment;

/// One argument position of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arg {
    /// Bound to a constant.
    Bound(Const),
    /// Free, carrying a canonical variable slot; equal slots at
    /// different positions constrain those positions to be equal.
    Free(u8),
}

/// A canonicalized query: predicate plus per-position arguments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// The queried predicate.
    pub pred: Pred,
    args: Vec<Arg>,
}

impl QuerySpec {
    /// Build a spec, renumbering free slots by first occurrence so
    /// equal binding patterns compare (and hash) equal.
    pub fn new(pred: Pred, args: impl IntoIterator<Item = Arg>) -> Self {
        let mut mapping: Vec<u8> = Vec::new();
        let args = args
            .into_iter()
            .map(|a| match a {
                Arg::Bound(c) => Arg::Bound(c),
                Arg::Free(slot) => {
                    let canon = match mapping.iter().position(|&s| s == slot) {
                        Some(i) => i,
                        None => {
                            mapping.push(slot);
                            mapping.len() - 1
                        }
                    };
                    Arg::Free(canon as u8)
                }
            })
            .collect();
        Self { pred, args }
    }

    /// `p(a, Y)` — first argument bound.
    pub fn bound_free(pred: Pred, a: Const) -> Self {
        Self::new(pred, [Arg::Bound(a), Arg::Free(0)])
    }

    /// `p(X, a)` — second argument bound.
    pub fn free_bound(pred: Pred, a: Const) -> Self {
        Self::new(pred, [Arg::Free(0), Arg::Bound(a)])
    }

    /// `p(a, b)` — the binary membership form.
    pub fn bound_bound(pred: Pred, a: Const, b: Const) -> Self {
        Self::new(pred, [Arg::Bound(a), Arg::Bound(b)])
    }

    /// `p(X1, …, Xn)` — nothing bound, all variables distinct.
    pub fn all_free(pred: Pred, arity: usize) -> Self {
        Self::new(pred, (0..arity).map(|i| Arg::Free(i as u8)))
    }

    /// `p(X, X)` — the binary diagonal.
    pub fn diagonal(pred: Pred) -> Self {
        Self::new(pred, [Arg::Free(0), Arg::Free(0)])
    }

    /// The argument vector (canonical form).
    pub fn args(&self) -> &[Arg] {
        &self.args
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The `{b,f}` binding pattern — the plan-cache key component.
    pub fn adornment(&self) -> Adornment {
        Adornment::from_bound(
            self.args.len(),
            self.args
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a, Arg::Bound(_)))
                .map(|(i, _)| i),
        )
    }

    /// The bound constants, in ascending position order — the §4
    /// anchor tuple.
    pub fn bound_values(&self) -> Vec<Const> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Arg::Bound(c) => Some(*c),
                Arg::Free(_) => None,
            })
            .collect()
    }

    /// The free argument positions, ascending.
    pub fn free_positions(&self) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Arg::Free(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether any free slot occurs at more than one position.
    pub fn has_repeats(&self) -> bool {
        let slots: Vec<u8> = self
            .args
            .iter()
            .filter_map(|a| match a {
                Arg::Free(s) => Some(*s),
                Arg::Bound(_) => None,
            })
            .collect();
        slots
            .iter()
            .enumerate()
            .any(|(i, s)| slots[..i].contains(s))
    }

    /// The spec with every free position given a distinct variable —
    /// the "all answers, no equality constraints" base query a
    /// repeated-variable spec filters.
    pub fn with_distinct_frees(&self) -> QuerySpec {
        QuerySpec::new(
            self.pred,
            self.args.iter().enumerate().map(|(i, a)| match a {
                Arg::Bound(c) => Arg::Bound(*c),
                Arg::Free(_) => Arg::Free(i as u8),
            }),
        )
    }

    /// Filter rows *over the free positions in order* (as every
    /// evaluation path produces them) down to those satisfying the
    /// repeated-slot constraints, projecting onto the first occurrence
    /// of each slot.  The identity without repeats.
    pub fn restrict_rows(&self, rows: &Rows) -> Rows {
        let slots: Vec<u8> = self
            .args
            .iter()
            .filter_map(|a| match a {
                Arg::Free(s) => Some(*s),
                Arg::Bound(_) => None,
            })
            .collect();
        let mut keep: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (i, s) in slots.iter().enumerate() {
            match slots[..i].iter().position(|t| t == s) {
                Some(first) => repeats.push((first, i)),
                None => keep.push(i),
            }
        }
        let mut out = Rows::builder(keep.len());
        let mut projected: Vec<Const> = Vec::with_capacity(keep.len());
        for row in rows.iter() {
            if repeats.iter().all(|&(a, b)| row[a] == row[b]) {
                projected.clear();
                projected.extend(keep.iter().map(|&i| row[i]));
                out.push(&projected);
            }
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_renumbers_by_first_occurrence() {
        let p = Pred(3);
        let a = QuerySpec::new(p, [Arg::Free(7), Arg::Free(2), Arg::Free(7)]);
        let b = QuerySpec::new(p, [Arg::Free(0), Arg::Free(5), Arg::Free(0)]);
        assert_eq!(a, b);
        assert_eq!(a.args(), &[Arg::Free(0), Arg::Free(1), Arg::Free(0)]);
        // Distinct structure stays distinct.
        assert_ne!(QuerySpec::all_free(p, 2), QuerySpec::diagonal(p));
    }

    #[test]
    fn adornment_and_bound_values() {
        let spec = QuerySpec::new(
            Pred(1),
            [
                Arg::Bound(Const(9)),
                Arg::Free(0),
                Arg::Bound(Const(4)),
                Arg::Free(0),
            ],
        );
        assert_eq!(spec.adornment().to_string(), "bfbf");
        assert_eq!(spec.bound_values(), vec![Const(9), Const(4)]);
        assert_eq!(spec.free_positions(), vec![1, 3]);
        assert!(spec.has_repeats());
        assert!(!spec.with_distinct_frees().has_repeats());
        assert_eq!(spec.with_distinct_frees().adornment(), spec.adornment());
    }

    fn rows_of(width: usize, nested: &[Vec<Const>]) -> Rows {
        let mut b = Rows::builder(width);
        for row in nested {
            b.push(row);
        }
        b.finish()
    }

    #[test]
    fn restrict_rows_filters_repeats_and_projects() {
        // p(a, X, b, X): rows over frees are [x, y]; keep x == y,
        // project to one column.
        let spec = QuerySpec::new(
            Pred(0),
            [
                Arg::Bound(Const(1)),
                Arg::Free(0),
                Arg::Bound(Const(2)),
                Arg::Free(0),
            ],
        );
        let rows = vec![
            vec![Const(5), Const(5)],
            vec![Const(5), Const(6)],
            vec![Const(7), Const(7)],
        ];
        assert_eq!(
            spec.restrict_rows(&rows_of(2, &rows)).to_vecs(),
            vec![vec![Const(5)], vec![Const(7)]]
        );
    }

    /// The nested-vector implementation `restrict_rows` replaced, kept
    /// as the reference it must agree with.
    fn restrict_rows_nested(spec: &QuerySpec, rows: Vec<Vec<Const>>) -> Vec<Vec<Const>> {
        let slots: Vec<u8> = spec
            .args
            .iter()
            .filter_map(|a| match a {
                Arg::Free(s) => Some(*s),
                Arg::Bound(_) => None,
            })
            .collect();
        let mut keep: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (i, s) in slots.iter().enumerate() {
            match slots[..i].iter().position(|t| t == s) {
                Some(first) => repeats.push((first, i)),
                None => keep.push(i),
            }
        }
        let mut out: Vec<Vec<Const>> = rows
            .into_iter()
            .filter(|row| repeats.iter().all(|&(a, b)| row[a] == row[b]))
            .map(|row| keep.iter().map(|&i| row[i]).collect())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Flat `restrict_rows` == the nested reference, over random
        /// binding patterns (bound / free / repeated slots, including
        /// all-repeated and fully bound) and random row sets drawn
        /// from a domain small enough to make repeats hit.
        #[test]
        fn restrict_rows_agrees_with_the_nested_reference(
            pattern in proptest::collection::vec(0..4u8, 0..6),
            cells in proptest::collection::vec(0..3u32, 0..120),
        ) {
            // 0 = bound, 1..=3 = free slot of that name.
            let spec = QuerySpec::new(
                Pred(0),
                pattern.iter().map(|&k| match k {
                    0 => Arg::Bound(Const(9)),
                    slot => Arg::Free(slot),
                }),
            );
            let width = spec.free_positions().len();
            let mut nested: Vec<Vec<Const>> = match width {
                0 => vec![Vec::new(); cells.len() % 2],
                _ => cells.chunks_exact(width).map(|r| r.iter().map(|&c| Const(c)).collect()).collect(),
            };
            nested.sort();
            nested.dedup();
            let flat = spec.restrict_rows(&rows_of(width, &nested));
            proptest::prop_assert_eq!(flat.to_vecs(), restrict_rows_nested(&spec, nested));
        }
    }
}
