//! Flat answer rows: the one representation an answer keeps from the
//! engine to the socket.
//!
//! The paper answers `p(a, Y)` with a *set of constants*; the serving
//! stack carries that set as one row-major `Vec<Const>` instead of a
//! heap vector per row.  A [`Rows`] is sorted (rows compare
//! lexicographically by constant id) and deduplicated, so equal answer
//! sets are equal values.
//!
//! The row count is explicit because membership answers have width 0:
//! `[[]]` (the query holds) is `len == 1`, `[]` is `len == 0`, and
//! neither owns any constant.

use crate::intern::Const;

/// A sorted, deduplicated set of equal-width rows in one buffer.
#[derive(Clone, Debug)]
pub struct Rows {
    width: usize,
    len: usize,
    /// Row-major cells; `data.len() == width * len`.
    data: Vec<Const>,
}

/// Equal as answer sets: the width of an empty set is not part of its
/// value, and with a row to divide by it follows from the other two.
impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.data == other.data
    }
}

impl Eq for Rows {}

impl Rows {
    /// No rows (of any width — an empty set has no cells to disagree).
    pub fn empty() -> Self {
        Self {
            width: 0,
            len: 0,
            data: Vec::new(),
        }
    }

    /// The width-0 answer of a fully bound query: the single empty row
    /// when it `holds`, no row otherwise.
    pub fn membership(holds: bool) -> Self {
        Self {
            len: usize::from(holds),
            ..Self::empty()
        }
    }

    /// One-column rows over `column`, which must already be strictly
    /// ascending (what a sorted traversal answer is).  Takes the buffer
    /// as is — no per-row allocation — minus its growth slack: rows
    /// outlive the query in the result cache, and a pushed-to vector
    /// can hold up to twice what it uses.
    pub fn from_sorted_column(mut column: Vec<Const>) -> Self {
        debug_assert!(column.windows(2).all(|w| w[0] < w[1]));
        column.shrink_to_fit();
        Self {
            width: 1,
            len: column.len(),
            data: column,
        }
    }

    /// Start collecting rows of `width` cells in any order;
    /// [`RowsBuilder::finish`] sorts and deduplicates them.
    pub fn builder(width: usize) -> RowsBuilder {
        RowsBuilder {
            width,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`.  Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> &[Const] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.data[i * self.width..][..self.width]
    }

    /// The rows in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Const]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// The rows as one vector each — for callers outside the serving
    /// path that keep the nested shape.
    pub fn to_vecs(&self) -> Vec<Vec<Const>> {
        self.iter().map(<[Const]>::to_vec).collect()
    }
}

/// Collects rows in any order; see [`Rows::builder`].
#[derive(Clone, Debug)]
pub struct RowsBuilder {
    width: usize,
    len: usize,
    data: Vec<Const>,
}

impl RowsBuilder {
    /// Add one row.  Panics unless it has the builder's width.
    pub fn push(&mut self, row: &[Const]) {
        assert_eq!(row.len(), self.width, "row width");
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Sort and deduplicate what was pushed.
    pub fn finish(self) -> Rows {
        let Self { width, len, data } = self;
        match width {
            // Every empty row is the same row.
            0 => Rows::membership(len > 0),
            1 => {
                let mut data = data;
                data.sort_unstable();
                data.dedup();
                Rows::from_sorted_column(data)
            }
            _ => {
                // Sort a permutation, then gather: two buffers however
                // many rows there are.
                let row = |i: usize| &data[i * width..][..width];
                let mut order: Vec<usize> = (0..len).collect();
                order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
                let mut sorted: Vec<Const> = Vec::with_capacity(data.len());
                for i in order {
                    if sorted.is_empty() || sorted[sorted.len() - width..] != *row(i) {
                        sorted.extend_from_slice(row(i));
                    }
                }
                Rows {
                    width,
                    len: sorted.len() / width,
                    data: sorted,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(ids: &[u32]) -> Vec<Const> {
        ids.iter().map(|&i| Const(i)).collect()
    }

    #[test]
    fn width_zero_distinguishes_yes_from_no() {
        let yes = Rows::membership(true);
        assert_eq!((yes.len(), yes.width(), yes.is_empty()), (1, 0, false));
        assert_eq!(yes.row(0), &[] as &[Const]);
        assert_eq!(yes.to_vecs(), vec![Vec::<Const>::new()]);
        let no = Rows::membership(false);
        assert_eq!((no.len(), no.is_empty()), (0, true));
        assert_eq!(no.iter().count(), 0);
        assert_eq!(no, Rows::empty());
        assert_eq!(Rows::builder(2).finish(), no, "empty sets have no width");
        assert_ne!(yes, no);
        // A builder of empty rows collapses duplicates to the one row.
        let mut b = Rows::builder(0);
        assert_eq!(b.clone().finish(), no);
        b.push(&[]);
        b.push(&[]);
        assert_eq!(b.finish(), yes);
    }

    #[test]
    #[should_panic(expected = "row 1 of 1")]
    fn row_index_is_checked_at_width_zero() {
        Rows::membership(true).row(1);
    }

    #[test]
    fn sorted_column_is_taken_as_is() {
        let rows = Rows::from_sorted_column(c(&[2, 5, 9]));
        assert_eq!((rows.len(), rows.width()), (3, 1));
        assert_eq!(rows.row(1), &c(&[5])[..]);
        assert_eq!(rows.to_vecs(), vec![c(&[2]), c(&[5]), c(&[9])]);
    }

    #[test]
    fn a_pushed_to_column_sheds_its_growth_slack() {
        let mut column = Vec::new();
        for id in 0..1025 {
            column.push(Const(id));
        }
        assert!(column.capacity() > column.len());
        let rows = Rows::from_sorted_column(column);
        assert_eq!(rows.data.capacity(), rows.len());
    }

    #[test]
    fn builder_sorts_and_dedups_like_nested_vectors() {
        let input: Vec<Vec<u32>> = vec![
            vec![3, 1],
            vec![1, 9],
            vec![3, 1],
            vec![1, 2],
            vec![0, 7],
            vec![1, 9],
        ];
        let mut b = Rows::builder(2);
        for row in &input {
            b.push(&c(row));
        }
        let mut nested: Vec<Vec<Const>> = input.iter().map(|r| c(r)).collect();
        nested.sort();
        nested.dedup();
        let rows = b.finish();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.to_vecs(), nested);
        let mut one = Rows::builder(1);
        for id in [4, 1, 4, 0] {
            one.push(&c(&[id]));
        }
        assert_eq!(one.finish(), Rows::from_sorted_column(c(&[0, 1, 4])));
    }
}
