//! Relations: a schema plus a set of tuples.

use crate::column::Column;
use crate::error::DataError;
use crate::intern::StrPool;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::Value;
use crate::Result;
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A relation instance: an ordered schema and a *set* of tuples.
///
/// The paper works under set semantics (bag semantics is future work,
/// Section 8); `Relation` therefore deduplicates on insertion points that
/// matter (set operations, distinct projection) while physically storing a
/// `Vec` for cheap iteration.
///
/// A relation also keeps the typed columns it has been asked for
/// ([`Relation::column`]). The cache is not part of the value: a clone
/// starts without it, every `&mut self` method drops it, and equality and
/// `Debug` ignore it. Databases share relations through `Arc`s, so every
/// snapshot that shares a relation shares its cached columns, and a
/// writer's copy-on-write starts empty.
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
    columns: OnceLock<ColumnCache>,
}

/// The columns extracted from a relation's tuples, one slot per position,
/// each filled on first use. String ids in them were issued by the pool
/// whose [`StrPool::id`] is `pool`.
struct ColumnCache {
    pool: u64,
    cols: Box<[OnceLock<Column>]>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation::from_parts(schema, Vec::new())
    }

    /// Create a relation from a schema and tuples (arity-checked).
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            if t.len() != schema.arity() {
                return Err(DataError::ArityMismatch { expected: schema.arity(), found: t.len() });
            }
        }
        Ok(Relation::from_parts(schema, tuples))
    }

    /// Create a relation without checking arities (used by operators that
    /// construct tuples of the right shape by construction).
    pub fn from_parts(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        Relation { schema, tuples, columns: OnceLock::new() }
    }

    /// The column at `pos` in typed form, extracted from the tuples on
    /// first use and kept until the relation is mutated. Concurrent callers
    /// extract it once between them.
    ///
    /// The cache belongs to the pool of its first caller. A caller with
    /// another pool gets a column extracted afresh and nothing is cached,
    /// so a string id is never resolved through a pool that did not issue
    /// it — a relation moved into another database stays correct.
    pub fn column(&self, pos: usize, pool: &StrPool) -> Cow<'_, Column> {
        let cache = self.columns.get_or_init(|| ColumnCache {
            pool: pool.id(),
            cols: (0..self.arity()).map(|_| OnceLock::new()).collect(),
        });
        if cache.pool != pool.id() {
            return Cow::Owned(Column::extract(&self.tuples, pos, pool));
        }
        let col = cache.cols[pos].get_or_init(|| Column::extract(&self.tuples, pos, pool));
        debug_assert_eq!(col.len(), self.len(), "a cached column outlived a mutation");
        Cow::Borrowed(col)
    }

    /// Drop the cached columns: every `&mut self` method calls this.
    fn invalidate_columns(&mut self) {
        self.columns.take();
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples (including duplicates, if any were inserted).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples of the relation.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterate over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Consume the relation and return its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Insert a tuple (arity-checked).
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        self.invalidate_columns();
        self.tuples.push(tuple);
        Ok(())
    }

    /// Insert a tuple of raw values (a vector, an array, any iterator).
    pub fn insert_values(&mut self, values: impl IntoIterator<Item = Value>) -> Result<()> {
        self.insert(values.into_iter().collect())
    }

    /// Whether the relation contains a syntactically equal tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.iter().any(|t| t == tuple)
    }

    /// Remove duplicate tuples (set semantics), preserving first occurrences.
    ///
    /// Deduplication hashes *borrowed* rows: no tuple is cloned into the
    /// scratch set, so the only writes are the in-place removals.
    pub fn dedup(&mut self) {
        self.invalidate_columns();
        let mut seen: HashSet<&Tuple> = HashSet::with_capacity(self.tuples.len());
        let keep: Vec<bool> = self.tuples.iter().map(|t| seen.insert(t)).collect();
        drop(seen);
        let mut flags = keep.into_iter();
        self.tuples.retain(|_| flags.next().expect("one flag per tuple"));
    }

    /// A deduplicated copy of this relation.
    pub fn distinct(&self) -> Relation {
        self.clone().into_distinct()
    }

    /// Deduplicate in place, consuming the relation (no tuple clones).
    pub fn into_distinct(mut self) -> Relation {
        self.dedup();
        self
    }

    /// Set union with another relation (schemas must be union compatible;
    /// the result uses this relation's schema).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.clone().union_owned(other)
    }

    /// Set union consuming the left side: the left tuples are never cloned,
    /// only moved and extended with the right side's.
    pub fn union_owned(mut self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other, "union")?;
        self.invalidate_columns();
        self.tuples.extend(other.tuples.iter().cloned());
        self.dedup();
        Ok(self)
    }

    /// Set difference (syntactic tuple equality).
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.clone().difference_owned(other)
    }

    /// Set difference consuming the left side (surviving tuples are moved,
    /// not cloned).
    pub fn difference_owned(mut self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other, "difference")?;
        self.invalidate_columns();
        let right: HashSet<&Tuple> = other.tuples.iter().collect();
        let keep: Vec<bool> = self.tuples.iter().map(|t| !right.contains(t)).collect();
        drop(right);
        let mut flags = keep.into_iter();
        self.tuples.retain(|_| flags.next().expect("one flag per tuple"));
        self.dedup();
        Ok(self)
    }

    /// Set intersection (syntactic tuple equality).
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        self.clone().intersect_owned(other)
    }

    /// Set intersection consuming the left side (surviving tuples are moved,
    /// not cloned).
    pub fn intersect_owned(mut self, other: &Relation) -> Result<Relation> {
        self.check_compatible(other, "intersection")?;
        self.invalidate_columns();
        let right: HashSet<&Tuple> = other.tuples.iter().collect();
        let keep: Vec<bool> = self.tuples.iter().map(|t| right.contains(t)).collect();
        drop(right);
        let mut flags = keep.into_iter();
        self.tuples.retain(|_| flags.next().expect("one flag per tuple"));
        self.dedup();
        Ok(self)
    }

    /// Apply a valuation to every tuple, producing a (possibly complete)
    /// relation.
    pub fn apply(&self, v: &Valuation) -> Relation {
        Relation::from_parts(self.schema.clone(), self.tuples.iter().map(|t| t.apply(v)).collect())
            .into_distinct()
    }

    /// Whether any tuple contains a null.
    pub fn has_nulls(&self) -> bool {
        self.tuples.iter().any(Tuple::has_null)
    }

    /// All constants appearing in the relation.
    pub fn constants(&self) -> HashSet<Value> {
        let mut out = HashSet::new();
        for t in &self.tuples {
            for v in t.values() {
                if v.is_const() {
                    out.insert(v.clone());
                }
            }
        }
        out
    }

    /// All null ids appearing in the relation.
    pub fn null_ids(&self) -> HashSet<crate::null::NullId> {
        let mut out = HashSet::new();
        for t in &self.tuples {
            for v in t.values() {
                if let Value::Null(id) = v {
                    out.insert(*id);
                }
            }
        }
        out
    }

    /// Sort tuples (for deterministic display and comparisons in tests).
    pub fn sorted(&self) -> Relation {
        let mut r = self.clone();
        r.tuples.sort();
        r
    }

    fn check_compatible(&self, other: &Relation, context: &str) -> Result<()> {
        if !self.schema.union_compatible(&other.schema) {
            return Err(DataError::SchemaMismatch {
                context: context.to_string(),
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            });
        }
        Ok(())
    }
}

impl Clone for Relation {
    /// Clones the schema and the row pointers; the clone's column cache
    /// starts empty (it will be mutated, or it would have been shared).
    fn clone(&self) -> Self {
        Relation::from_parts(self.schema.clone(), self.tuples.clone())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        write!(f, "  [{} tuples]", self.tuples.len())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::rel;
    use crate::null::NullId;

    #[test]
    fn insert_checks_arity() {
        let mut r = Relation::empty(Schema::of_names(&["a", "b"]).shared());
        assert!(r.insert_values(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert!(r.insert_values(vec![Value::Int(1)]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn set_operations_are_syntactic() {
        let r = rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Null(NullId(1))]]);
        let s = rel(&["a"], vec![vec![Value::Null(NullId(1))], vec![Value::Int(2)]]);
        let diff = r.difference(&s).unwrap();
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&Tuple::new(vec![Value::Int(1)])));
        let inter = r.intersect(&s).unwrap();
        assert_eq!(inter.len(), 1);
        assert!(inter.contains(&Tuple::new(vec![Value::Null(NullId(1))])));
        let uni = r.union(&s).unwrap();
        assert_eq!(uni.len(), 3);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut r =
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(1)], vec![Value::Int(2)]]);
        r.dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn incompatible_schemas_error() {
        let r = rel(&["a"], vec![]);
        let s = rel(&["a", "b"], vec![]);
        assert!(r.union(&s).is_err());
        assert!(r.difference(&s).is_err());
    }

    #[test]
    fn constants_and_nulls_collection() {
        let r = rel(
            &["a", "b"],
            vec![vec![Value::Int(1), Value::Null(NullId(7))], vec![Value::str("x"), Value::Int(1)]],
        );
        assert!(r.has_nulls());
        let consts = r.constants();
        assert_eq!(consts.len(), 2);
        assert!(consts.contains(&Value::Int(1)));
        assert_eq!(r.null_ids().len(), 1);
    }

    #[test]
    fn a_column_is_extracted_once_and_then_borrowed() {
        let p = StrPool::new();
        let r = rel(&["a", "b"], vec![vec![Value::Int(1), Value::str("x")]]);
        let (first, second) = (r.column(1, &p), r.column(1, &p));
        match (&first, &second) {
            (Cow::Borrowed(a), Cow::Borrowed(b)) => assert!(std::ptr::eq(*a, *b)),
            _ => panic!("the cache hands out borrows"),
        }
        assert_eq!(*first, Column::extract(r.tuples(), 1, &p));
        // A clone is a relation about to diverge: it starts without a cache.
        assert!(r.clone().columns.get().is_none());
        assert_eq!(r.clone(), r, "equality ignores the cache");
    }

    #[test]
    fn every_mutating_method_drops_the_cached_columns() {
        let p = StrPool::new();
        let int = |xs: &[i64]| rel(&["a"], xs.iter().map(|&x| vec![Value::Int(x)]).collect());
        let (base, other) = (int(&[1, 2, 2]), int(&[2, 3]));
        type Mutation<'a> = Box<dyn Fn(Relation) -> Relation + 'a>;
        let mutations: Vec<(&str, Mutation)> = vec![
            (
                "insert",
                Box::new(|mut r: Relation| {
                    r.insert_values([Value::Int(9)]).unwrap();
                    r
                }),
            ),
            (
                "dedup",
                Box::new(|mut r: Relation| {
                    r.dedup();
                    r
                }),
            ),
            ("union", Box::new(|r: Relation| r.union_owned(&other).unwrap())),
            ("difference", Box::new(|r: Relation| r.difference_owned(&other).unwrap())),
            ("intersect", Box::new(|r: Relation| r.intersect_owned(&other).unwrap())),
        ];
        for (name, mutate) in mutations {
            let warm = base.clone();
            assert_eq!(warm.column(0, &p).len(), 3);
            assert!(warm.columns.get().is_some());
            let changed = mutate(warm);
            assert!(changed.columns.get().is_none(), "{name} kept the cached columns");
            let fresh = Column::extract(changed.tuples(), 0, &p);
            assert_eq!(*changed.column(0, &p), fresh, "{name}");
        }
    }

    #[test]
    fn apply_valuation_grounds_relation() {
        let r = rel(&["a"], vec![vec![Value::Null(NullId(1))], vec![Value::Int(1)]]);
        let mut v = Valuation::new();
        v.set(NullId(1), Value::Int(1));
        let g = r.apply(&v);
        // Both tuples collapse to (1) and set semantics dedups them.
        assert_eq!(g.len(), 1);
        assert!(!g.has_nulls());
    }
}
