//! Columnar batches: typed column vectors with per-column null bitmaps.
//!
//! The row representation ([`Tuple`], an `Arc<[Value]>` shared by pointer)
//! is what the operator semantics are defined over and what answers are made
//! of; *evaluating* a predicate or hashing a key one `Value` at a
//! time, behind an enum dispatch per value, is the dominant cost once plans
//! are compiled. This module provides the batch-at-a-time alternative:
//!
//! * `ColumnData` — a typed vector per column (`i64` / `f64` / fixed-point
//!   decimal / date / bool / interned `StrId`s), with a `Values`
//!   fallback for columns that mix variants (or are entirely null), so
//!   *every* relation has a columnar form;
//! * [`NullMask`] — a bitmap marking which rows are null **plus the marked
//!   null ids** for those rows. The paper's data model is built on marked
//!   nulls `⊥ᵢ` (two occurrences of the same id denote the same unknown),
//!   so a bare validity bitmap would lose information that naive evaluation
//!   and syntactic set operations depend on; the mask preserves it exactly;
//! * [`Batch`] — a schema plus one [`Column`] per attribute, convertible to
//!   and from rows without loss ([`Batch::from_rows`] / [`Batch::to_rows`]);
//! * `TruthMask` — a three-valued bitmask (true/unknown bit planes) with
//!   Kleene connectives as word-wise bit operations, the result type of
//!   vectorized predicate evaluation.
//!
//! String columns store dense ids from the database's [`StrPool`]; two
//! interned column elements are equal iff their ids are equal, which is what
//! makes hashing and comparing string join keys cheap.
//!
//! A [`Relation`] keeps the columns it was asked for
//! ([`Relation::column`]): a base relation is extracted once per snapshot,
//! not once per operator per execution. A subset of its rows is read by
//! [`Column::gather`] over the cached column, not extracted again.

use crate::data::intern::{StrId, StrPool};
use crate::data::null::NullId;
use crate::data::relation::Relation;
use crate::data::schema::Schema;
use crate::data::truth::Truth;
use crate::data::tuple::Tuple;
use crate::data::value::Value;
use std::sync::Arc;

/// A bitmap of null rows plus their marked null ids.
///
/// `is_null(i)` is a bit test; for rows where it holds, `null_id(i)` returns
/// the marked null id, so converting back to rows reproduces the exact
/// original values. Rows that are not null have no id.
#[derive(Debug, Clone, PartialEq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
    /// One raw id slot per row, allocated lazily on the first null.
    ids: Vec<u64>,
}

impl NullMask {
    /// An all-valid (no nulls) mask over `len` rows.
    pub fn new(len: usize) -> Self {
        NullMask { bits: vec![0; len.div_ceil(64)], len, ids: Vec::new() }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark row `i` as the null `⊥ᵢ` with the given id.
    pub(crate) fn set_null(&mut self, i: usize, id: NullId) {
        self.bits[i / 64] |= 1 << (i % 64);
        if self.ids.is_empty() {
            self.ids = vec![0; self.len];
        }
        self.ids[i] = id.0;
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// The marked null id of row `i`, if that row is null.
    pub fn null_id(&self, i: usize) -> Option<NullId> {
        self.is_null(i).then(|| NullId(self.ids[i]))
    }

    /// Raw id slot of row `i` (only meaningful when [`NullMask::is_null`]).
    #[inline]
    pub(crate) fn raw_id(&self, i: usize) -> u64 {
        if self.ids.is_empty() {
            0
        } else {
            self.ids[i]
        }
    }

    /// Whether any row is null.
    pub fn any_null(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }
}

/// The typed vector behind one column of a [`Batch`].
///
/// Typed variants hold a placeholder at null positions (the [`NullMask`]
/// disambiguates); [`ColumnData::Values`] is the loss-free fallback for
/// columns that mix value variants or contain only nulls.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats (raw, un-normalised — hashing/equality normalise).
    Float(Vec<f64>),
    /// Fixed-point decimals in hundredths.
    Decimal(Vec<i64>),
    /// Dates as days since 1970-01-01.
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Interned string ids (resolved through the issuing [`StrPool`]).
    Str(Vec<StrId>),
    /// Loss-free fallback: the values themselves.
    Values(Vec<Value>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) | ColumnData::Decimal(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Values(v) => v.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two columns use the same typed representation (the
    /// precondition for representation-specific hashing and equality).
    pub(crate) fn same_repr(&self, other: &ColumnData) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// Whether this is the [`ColumnData::Values`] fallback.
    pub(crate) fn is_fallback(&self) -> bool {
        matches!(self, ColumnData::Values(_))
    }
}

/// One column of a batch: typed data plus the null mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
}

impl Column {
    /// Extract the column at `pos` from a slice of rows (counted as
    /// `data.column_extractions`). A whole relation's columns are better
    /// read through [`Relation::column`], which extracts each once.
    pub(crate) fn extract(rows: &[Tuple], pos: usize, pool: &StrPool) -> Column {
        crate::obs::profile::record_column_extraction();
        Self::build(rows.len(), |i| &rows[i][pos], pool)
    }

    fn build<'a>(len: usize, get: impl Fn(usize) -> &'a Value, pool: &StrPool) -> Column {
        // Pass 1: pick the representation — the variant shared by every
        // non-null value, or the fallback when variants mix (or every row is
        // null, in which case there is nothing to type the column by).
        let mut repr: Option<&Value> = None;
        let mut uniform = true;
        for i in 0..len {
            let v = get(i);
            if v.is_null() {
                continue;
            }
            match repr {
                None => repr = Some(v),
                Some(first) => {
                    if std::mem::discriminant(first) != std::mem::discriminant(v) {
                        uniform = false;
                        break;
                    }
                }
            }
        }
        let mut nulls = NullMask::new(len);
        let fill_nulls = |nulls: &mut NullMask| {
            for i in 0..len {
                if let Value::Null(id) = get(i) {
                    nulls.set_null(i, *id);
                }
            }
        };
        let data = match (uniform, repr) {
            (true, Some(Value::Int(_))) => {
                fill_nulls(&mut nulls);
                ColumnData::Int(
                    (0..len).map(|i| if let Value::Int(x) = get(i) { *x } else { 0 }).collect(),
                )
            }
            (true, Some(Value::Float(_))) => {
                fill_nulls(&mut nulls);
                ColumnData::Float(
                    (0..len).map(|i| if let Value::Float(x) = get(i) { *x } else { 0.0 }).collect(),
                )
            }
            (true, Some(Value::Decimal(_))) => {
                fill_nulls(&mut nulls);
                ColumnData::Decimal(
                    (0..len).map(|i| if let Value::Decimal(x) = get(i) { *x } else { 0 }).collect(),
                )
            }
            (true, Some(Value::Date(_))) => {
                fill_nulls(&mut nulls);
                ColumnData::Date(
                    (0..len).map(|i| if let Value::Date(x) = get(i) { *x } else { 0 }).collect(),
                )
            }
            (true, Some(Value::Bool(_))) => {
                fill_nulls(&mut nulls);
                ColumnData::Bool(
                    (0..len)
                        .map(|i| if let Value::Bool(x) = get(i) { *x } else { false })
                        .collect(),
                )
            }
            (true, Some(Value::Str(_))) => {
                fill_nulls(&mut nulls);
                // One lock acquisition for the whole column.
                let ids = pool.intern_all((0..len).map(|i| {
                    if let Value::Str(s) = get(i) {
                        Some(s)
                    } else {
                        None
                    }
                }));
                ColumnData::Str(ids)
            }
            // Mixed variants, all-null, or empty: keep the values as-is.
            _ => {
                fill_nulls(&mut nulls);
                ColumnData::Values((0..len).map(|i| get(i).clone()).collect())
            }
        };
        Column { data, nulls }
    }

    /// The rows `ids` of this column, in that order, in this column's
    /// representation (a subset of a typed column stays typed even when every
    /// row it keeps is null). Not an extraction: no `Value` is read.
    pub fn gather(&self, ids: &[u32]) -> Column {
        fn pick<T: Clone>(v: &[T], ids: &[u32]) -> Vec<T> {
            ids.iter().map(|&i| v[i as usize].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, ids)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, ids)),
            ColumnData::Decimal(v) => ColumnData::Decimal(pick(v, ids)),
            ColumnData::Date(v) => ColumnData::Date(pick(v, ids)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, ids)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, ids)),
            ColumnData::Values(v) => ColumnData::Values(pick(v, ids)),
        };
        let mut nulls = NullMask::new(ids.len());
        if self.nulls.any_null() {
            for (k, &i) in ids.iter().enumerate() {
                if let Some(id) = self.nulls.null_id(i as usize) {
                    nulls.set_null(k, id);
                }
            }
        }
        Column { data, nulls }
    }

    /// The typed data.
    pub(crate) fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask.
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Reconstruct the value at row `i` (exactly the value the column was
    /// built from; string ids resolve through the pool).
    pub(crate) fn value_at(&self, i: usize, pool: &StrPool) -> Value {
        if let Some(id) = self.nulls.null_id(i) {
            // The fallback stores nulls in place; typed columns store a
            // placeholder — either way the mask is authoritative.
            return Value::Null(id);
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Decimal(v) => Value::Decimal(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(pool.resolve(v[i])),
            ColumnData::Values(v) => v[i].clone(),
        }
    }
}

/// A horizontal slice of a relation in columnar form.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Arc<Schema>,
    len: usize,
    columns: Vec<Column>,
}

impl Batch {
    /// Convert a slice of rows (all matching `schema`) into a batch.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Tuple], pool: &StrPool) -> Batch {
        let columns =
            (0..schema.arity()).map(|pos| Column::extract(rows, pos, pool)).collect::<Vec<_>>();
        Batch { schema, len: rows.len(), columns }
    }

    /// The schema of the batch.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at a position.
    pub fn column(&self, pos: usize) -> &Column {
        &self.columns[pos]
    }

    /// Reconstruct row `i`.
    pub(crate) fn row(&self, i: usize, pool: &StrPool) -> Tuple {
        self.columns.iter().map(|c| c.value_at(i, pool)).collect()
    }

    /// Convert the batch back to rows (the exact rows it was built from).
    pub fn to_rows(&self, pool: &StrPool) -> Vec<Tuple> {
        (0..self.len).map(|i| self.row(i, pool)).collect()
    }
}

impl Relation {
    /// Split the relation into columnar batches of at most `morsel_size`
    /// rows (one batch of zero rows for an empty relation, so the schema is
    /// always carried).
    pub fn to_batches(&self, morsel_size: usize, pool: &StrPool) -> Vec<Batch> {
        let size = morsel_size.max(1);
        if self.is_empty() {
            return vec![Batch::from_rows(self.schema().clone(), &[], pool)];
        }
        self.tuples()
            .chunks(size)
            .map(|chunk| Batch::from_rows(self.schema().clone(), chunk, pool))
            .collect()
    }

    /// Reassemble a relation from batches (inverse of
    /// [`Relation::to_batches`]; the schema comes from the first batch).
    pub fn from_batches(batches: &[Batch], pool: &StrPool) -> Option<Relation> {
        let first = batches.first()?;
        let mut tuples = Vec::with_capacity(batches.iter().map(Batch::len).sum());
        for b in batches {
            tuples.extend(b.to_rows(pool));
        }
        Some(Relation::from_parts(first.schema().clone(), tuples))
    }
}

/// A vector of three-valued truth values as two bit planes (`true` and
/// `unknown`; `false` is the absence of both). Kleene connectives are
/// word-wise bit operations. Bits past `len` are kept zero.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TruthMask {
    t: Vec<u64>,
    u: Vec<u64>,
    len: usize,
}

impl TruthMask {
    /// A mask of `len` copies of the given truth value.
    pub fn fill(len: usize, truth: Truth) -> TruthMask {
        let words = len.div_ceil(64);
        let mut m = match truth {
            Truth::True => TruthMask { t: vec![u64::MAX; words], u: vec![0; words], len },
            Truth::Unknown => TruthMask { t: vec![0; words], u: vec![u64::MAX; words], len },
            Truth::False => TruthMask { t: vec![0; words], u: vec![0; words], len },
        };
        m.trim();
        m
    }

    /// An all-false mask.
    pub(crate) fn falses(len: usize) -> TruthMask {
        TruthMask::fill(len, Truth::False)
    }

    /// Zero the bits past `len` (the connective loops operate on whole
    /// words).
    fn trim(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(w) = self.t.last_mut() {
                *w &= (1u64 << rem) - 1;
            }
            if let Some(w) = self.u.last_mut() {
                *w &= (1u64 << rem) - 1;
            }
        }
    }

    /// Set row `i`.
    pub fn set(&mut self, i: usize, truth: Truth) {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        match truth {
            Truth::True => {
                self.t[w] |= b;
                self.u[w] &= !b;
            }
            Truth::Unknown => {
                self.u[w] |= b;
                self.t[w] &= !b;
            }
            Truth::False => {
                self.t[w] &= !b;
                self.u[w] &= !b;
            }
        }
    }

    /// Kleene conjunction, in place.
    pub(crate) fn and_with(&mut self, other: &TruthMask) {
        debug_assert_eq!(self.len, other.len);
        for i in 0..self.t.len() {
            let t = self.t[i] & other.t[i];
            let u = (self.t[i] | self.u[i]) & (other.t[i] | other.u[i]) & !t;
            self.t[i] = t;
            self.u[i] = u;
        }
    }

    /// Kleene disjunction, in place.
    pub(crate) fn or_with(&mut self, other: &TruthMask) {
        debug_assert_eq!(self.len, other.len);
        for i in 0..self.t.len() {
            let t = self.t[i] | other.t[i];
            self.u[i] = (self.u[i] | other.u[i]) & !t;
            self.t[i] = t;
        }
    }

    /// Kleene negation, in place (swaps true and false, keeps unknown).
    pub(crate) fn negate(&mut self) {
        for i in 0..self.t.len() {
            self.t[i] = !self.t[i] & !self.u[i];
        }
        self.trim();
    }

    /// Number of rows that are [`Truth::True`].
    pub(crate) fn count_true(&self) -> usize {
        self.t.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Visit every row index whose value is [`Truth::True`], in order.
    pub(crate) fn for_each_true(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.t.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
impl TruthMask {
    /// The truth value of row `i`.
    pub(crate) fn get(&self, i: usize) -> Truth {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.t[w] & b != 0 {
            Truth::True
        } else if self.u[w] & b != 0 {
            Truth::Unknown
        } else {
            Truth::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;

    fn pool() -> StrPool {
        StrPool::new()
    }

    /// The column of a one-column relation holding `values`.
    fn column(values: &[Value], pool: &StrPool) -> Column {
        let rows: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        Column::extract(&rows, 0, pool)
    }

    #[test]
    fn typed_columns_roundtrip() {
        let p = pool();
        let vals = vec![Value::Int(3), Value::Null(NullId(7)), Value::Int(-5)];
        let c = column(&vals, &p);
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert!(c.is_null(1));
        assert_eq!((0..c.len()).filter(|&i| c.is_null(i)).count(), 1);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value_at(i, &p), v);
        }
    }

    #[test]
    fn string_columns_intern_ids() {
        let p = pool();
        let vals = vec![Value::str("FURNITURE"), Value::str("BUILDING"), Value::str("FURNITURE")];
        let c = column(&vals, &p);
        match c.data() {
            ColumnData::Str(ids) => {
                assert_eq!(ids[0], ids[2]);
                assert_ne!(ids[0], ids[1]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
        assert_eq!(c.value_at(2, &p), Value::str("FURNITURE"));
    }

    #[test]
    fn mixed_and_all_null_columns_fall_back_to_values() {
        let p = pool();
        let mixed = vec![Value::Int(1), Value::str("x")];
        assert!(column(&mixed, &p).data().is_fallback());
        let all_null = vec![Value::Null(NullId(1)), Value::Null(NullId(2))];
        let c = column(&all_null, &p);
        assert!(c.data().is_fallback());
        assert_eq!(c.value_at(0, &p), Value::Null(NullId(1)));
        assert_eq!(c.value_at(1, &p), Value::Null(NullId(2)));
        // Empty columns are the fallback too, and roundtrip trivially.
        let empty = column(&[], &p);
        assert!(empty.is_empty());
        assert!(!empty.nulls().any_null());
    }

    #[test]
    fn gather_picks_rows_in_order_and_keeps_the_representation() {
        let p = pool();
        let vals =
            vec![Value::Int(3), Value::Null(NullId(7)), Value::Int(-5), Value::Null(NullId(2))];
        let c = column(&vals, &p);
        let g = c.gather(&[3, 0, 3, 1]);
        assert!(matches!(g.data(), ColumnData::Int(_)));
        for (k, i) in [3, 0, 3, 1].into_iter().enumerate() {
            assert_eq!(g.value_at(k, &p), vals[i]);
        }
        // Only nulls kept: still an int column, the marked ids intact.
        let nulls = c.gather(&[1, 3]);
        assert!(matches!(nulls.data(), ColumnData::Int(_)));
        assert_eq!(nulls.nulls().null_id(1), Some(NullId(2)));
        // The fallback gathers values; nothing kept is an empty column.
        let mixed = column(&[Value::Int(1), Value::str("x")], &p);
        assert_eq!(mixed.gather(&[1]).value_at(0, &p), Value::str("x"));
        assert!(c.gather(&[]).is_empty());
    }

    #[test]
    fn batch_roundtrips_rows() {
        let p = pool();
        let r = rel(
            &["a", "b", "c"],
            vec![
                vec![Value::Int(1), Value::str("x"), Value::Null(NullId(4))],
                vec![Value::Null(NullId(9)), Value::str("y"), Value::Decimal(125)],
            ],
        );
        let b = Batch::from_rows(r.schema().clone(), r.tuples(), &p);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 3);
        assert_eq!(b.to_rows(&p), r.tuples());
        assert_eq!(b.row(1, &p), r.tuples()[1]);
    }

    #[test]
    fn relation_to_batches_roundtrips_across_morsels() {
        let p = pool();
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    vec![Value::Null(NullId(i as u64 + 1)), Value::str("s")]
                } else {
                    vec![Value::Int(i), Value::str("t")]
                }
            })
            .collect();
        let r = rel(&["a", "b"], rows);
        let batches = r.to_batches(4, &p);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 10);
        let back = Relation::from_batches(&batches, &p).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_relation_keeps_schema_through_batches() {
        let p = pool();
        let r = rel(&["a"], vec![]);
        let batches = r.to_batches(8, &p);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].is_empty());
        let back = Relation::from_batches(&batches, &p).unwrap();
        assert_eq!(back, r);
        assert!(Relation::from_batches(&[], &p).is_none());
    }

    #[test]
    fn truth_mask_matches_kleene_tables() {
        use Truth::*;
        for a in [False, Unknown, True] {
            for b in [False, Unknown, True] {
                let mut ma = TruthMask::fill(70, a);
                let mb = TruthMask::fill(70, b);
                ma.and_with(&mb);
                assert_eq!(ma.get(69), a.and(b), "{a:?} AND {b:?}");
                let mut mo = TruthMask::fill(70, a);
                mo.or_with(&mb);
                assert_eq!(mo.get(0), a.or(b), "{a:?} OR {b:?}");
                let mut mn = TruthMask::fill(70, a);
                mn.negate();
                assert_eq!(mn.get(42), a.negate(), "NOT {a:?}");
            }
        }
    }

    #[test]
    fn truth_mask_set_get_and_iteration() {
        let mut m = TruthMask::falses(130);
        m.set(0, Truth::True);
        m.set(64, Truth::Unknown);
        m.set(129, Truth::True);
        assert_eq!(m.get(0), Truth::True);
        assert_eq!(m.get(64), Truth::Unknown);
        assert_eq!(m.get(1), Truth::False);
        assert_eq!(m.count_true(), 2);
        let mut seen = Vec::new();
        m.for_each_true(|i| seen.push(i));
        assert_eq!(seen, vec![0, 129]);
        // Overwriting changes the plane bits consistently.
        m.set(0, Truth::False);
        assert_eq!(m.get(0), Truth::False);
        assert_eq!(m.count_true(), 1);
        // Negation never sets bits past `len`.
        m.negate();
        assert_eq!(m.count_true(), 128);
    }
}
