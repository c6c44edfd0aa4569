//! The engine's inter-operator currency: sets of row ids.
//!
//! An operator hands its output to the next as [`Rows`]: the relations the
//! rows come from (borrowed base relations, or intermediates a consumer
//! materialised), per source the ids of the rows, and a compile-time map
//! from each output position to a (source, column) pair. A filter or a
//! semijoin keeps a subset of the ids, a join appends each partner's ids,
//! a parallel morsel is a sub-range of them: no row is built. Values are
//! read in place, column-wise by [`Rows::column_in`] ([`Column::gather`]
//! over the sources' cached columns) or one at a time through [`RowView`].
//! Tuples are built by [`Rows::into_tuples`] alone, where a consumer needs
//! whole rows.

use crate::data::column::Column;
use crate::data::intern::StrPool;
use crate::data::{Relation, Tuple, Value};
use std::borrow::Cow;
use std::ops::Range;

/// Where an output column of a set lives: (source, column of that source).
/// A join's sources are its left input's, then its right input's.
pub(crate) type Slot = (usize, usize);

/// A set of rows, as ids into the relations they come from.
pub(crate) struct Rows<'a> {
    /// The relations the rows come from, in slot order: the first inline, so
    /// a one-relation set allocates nothing for it. An empty set may have
    /// none, and then nothing reads a column of it.
    first: Option<Cow<'a, Relation>>,
    more: Vec<Cow<'a, Relation>>,
    /// Per source, the ids of the set's rows, in order; `None`: every row of
    /// the one source, in order.
    ids: Option<Vec<Vec<u32>>>,
    /// The join's layout the positions follow; `None`: the one source's
    /// columns, in order.
    slots: Option<&'a [Slot]>,
    len: usize,
}

impl<'a> Rows<'a> {
    /// Every row of `rel`, in order.
    pub(crate) fn whole(rel: Cow<'a, Relation>) -> Rows<'a> {
        let len = rel.len();
        Rows { first: Some(rel), more: Vec::new(), ids: None, slots: None, len }
    }

    /// The empty set, without sources.
    pub(crate) fn empty() -> Rows<'a> {
        Rows { first: None, more: Vec::new(), ids: None, slots: None, len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        match (self.slots, &self.first) {
            (Some(slots), _) => slots.len(),
            (None, first) => first.as_ref().map_or(0, |rel| rel.arity()),
        }
    }

    /// Whether the set is one relation's rows, every column in order: a
    /// consumer of whole rows takes them by pointer.
    pub(crate) fn is_one_relation(&self) -> bool {
        self.slots.is_none()
    }

    fn sources(&self) -> usize {
        usize::from(self.first.is_some()) + self.more.len()
    }

    fn source(&self, s: usize) -> &Relation {
        match s {
            0 => self.first.as_deref().expect("a non-empty set has its sources"),
            s => &self.more[s - 1],
        }
    }

    /// Whether the columns at `pos` are all cached typed by their sources
    /// for `pool`: reading them extracts nothing. An empty set without
    /// sources has none.
    pub(crate) fn cached(&self, pos: &[usize], pool: &StrPool) -> bool {
        self.first.is_some()
            && pos.iter().all(|&p| {
                let (s, c) = self.slot(p);
                self.source(s).cached_column(c, pool).is_some()
            })
    }

    #[inline]
    fn slot(&self, pos: usize) -> Slot {
        self.slots.map_or((0, pos), |slots| slots[pos])
    }

    /// Source `s`'s id of row `i`.
    #[inline]
    fn id(&self, s: usize, i: usize) -> u32 {
        self.ids.as_ref().map_or(i as u32, |ids| ids[s][i])
    }

    /// The value at position `pos` of row `i`.
    #[inline]
    pub(crate) fn value(&self, i: usize, pos: usize) -> &Value {
        let (s, c) = self.slot(pos);
        &self.source(s).tuples()[self.id(s, i) as usize][c]
    }

    /// The column at `pos` over the rows `range`: the source's cached column
    /// itself for a whole relation, a gather of it otherwise.
    pub(crate) fn column_in(
        &self,
        pos: usize,
        range: Range<usize>,
        pool: &StrPool,
    ) -> Cow<'_, Column> {
        let (s, c) = self.slot(pos);
        let col = self.source(s).column(c, pool);
        match &self.ids {
            None if range.len() == self.len => col,
            None => {
                Cow::Owned(col.gather(&(range.start as u32..range.end as u32).collect::<Vec<_>>()))
            }
            Some(ids) => Cow::Owned(col.gather(&ids[s][range])),
        }
    }

    /// The column at `pos` as its source's cached column, and the source
    /// ids of the set's rows unless the set is every row of that source:
    /// read through the ids, nothing is copied.
    pub(crate) fn column_ids(
        &self,
        pos: usize,
        pool: &StrPool,
    ) -> (Cow<'_, Column>, Option<&[u32]>) {
        let (s, c) = self.slot(pos);
        (self.source(s).column(c, pool), self.ids.as_ref().map(|ids| ids[s].as_slice()))
    }

    /// The rows at the ascending positions `keep`, in order.
    pub(crate) fn select(self, keep: Vec<u32>) -> Rows<'a> {
        let len = keep.len();
        if len == self.len {
            return self;
        }
        let ids = match &self.ids {
            None => vec![keep],
            Some(ids) => {
                ids.iter().map(|col| keep.iter().map(|&k| col[k as usize]).collect()).collect()
            }
        };
        Rows { ids: Some(ids), len, ..self }
    }

    /// The joining pairs of `l` and `r` — per output row a left and a right
    /// position — laid out as `slots` say.
    pub(crate) fn join(
        l: Rows<'a>,
        r: Rows<'a>,
        pairs: &[(u32, u32)],
        slots: &'a [Slot],
    ) -> Rows<'a> {
        if pairs.is_empty() {
            return Rows::empty();
        }
        let mut ids = Vec::with_capacity(l.sources() + r.sources());
        for s in 0..l.sources() {
            ids.push(pairs.iter().map(|&(i, _)| l.id(s, i as usize)).collect());
        }
        for s in 0..r.sources() {
            ids.push(pairs.iter().map(|&(_, j)| r.id(s, j as usize)).collect());
        }
        let mut more = l.more;
        more.extend(r.first);
        more.extend(r.more);
        Rows { first: l.first, more, ids: Some(ids), slots: Some(slots), len: pairs.len() }
    }

    /// The set as tuples of the columns `cols` (every column, in order, for
    /// `None`), and how many values were built for them. One relation's rows
    /// read whole are passed on by pointer: nothing is built.
    pub(crate) fn into_tuples(self, cols: Option<&[usize]>) -> (Vec<Tuple>, usize) {
        let whole = self.is_one_relation()
            && cols.is_none_or(|cols| cols.iter().copied().eq(0..self.width()));
        match (whole, self.first, self.ids) {
            (true, Some(Cow::Owned(rel)), None) => (rel.into_tuples(), 0),
            (true, Some(rel), None) => (rel.tuples().to_vec(), 0),
            (true, Some(rel), Some(ids)) => {
                (ids[0].iter().map(|&i| rel.tuples()[i as usize].clone()).collect(), 0)
            }
            (_, first, ids) => {
                let rows = Rows { first, ids, ..self };
                let cols: Cow<'_, [usize]> =
                    cols.map_or_else(|| (0..rows.width()).collect(), Cow::Borrowed);
                let tuples = (0..rows.len)
                    .map(|i| cols.iter().map(|&p| rows.value(i, p).clone()).collect())
                    .collect();
                (tuples, rows.len * cols.len())
            }
        }
    }
}

/// One row of a set, or a (left, right) pair of rows of two sets read as
/// their concatenation: how predicates and row-valued keys read values
/// without building the row.
#[derive(Clone, Copy)]
pub(crate) struct RowView<'a> {
    left: &'a Rows<'a>,
    i: usize,
    /// A pair's right set and row, and the left set's width.
    right: Option<(&'a Rows<'a>, usize, usize)>,
}

impl<'a> RowView<'a> {
    /// Row `i` of `rows`.
    pub(crate) fn one(rows: &'a Rows<'a>, i: usize) -> Self {
        RowView { left: rows, i, right: None }
    }

    /// Row `i` of `l` followed by row `j` of `r`.
    pub(crate) fn pair(l: &'a Rows<'a>, i: usize, r: &'a Rows<'a>, j: usize) -> Self {
        RowView { left: l, i, right: Some((r, j, l.width())) }
    }

    #[inline]
    pub(crate) fn get(&self, pos: usize) -> &'a Value {
        match self.right {
            Some((r, j, split)) if pos >= split => r.value(j, pos - split),
            _ => self.left.value(self.i, pos),
        }
    }
}
