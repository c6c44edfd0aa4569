//! Relation schemas: named, typed, nullability-annotated columns.

use crate::error::DataError;
use crate::types::ValueType;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// The unqualified part of a column name (after the last `.`).
fn base_of(name: &str) -> &str {
    name.rfind('.').map_or(name, |i| &name[i + 1..])
}

/// Resolve a (possibly unqualified) column name among `attrs` — one schema,
/// or the schemas of a join's inputs one after the other — to its position;
/// `None` when it is unknown or ambiguous.
///
/// Resolution first looks for an exact match on the full name; failing that
/// it matches against the unqualified base names. Asking costs no
/// allocation, whatever the answer.
pub fn resolve<'a>(
    attrs: impl Iterator<Item = &'a Attribute> + Clone,
    name: &str,
) -> Option<usize> {
    crate::profile::record_name_resolution();
    let mut exact = attrs.clone().enumerate().filter(|(_, a)| a.name == name);
    if let Some((first, _)) = exact.next() {
        return exact.next().is_none().then_some(first);
    }
    let base = base_of(name);
    let mut by_base = attrs.enumerate().filter(|(_, a)| a.base_name() == base);
    let (first, _) = by_base.next()?;
    by_base.next().is_none().then_some(first)
}

/// A single column of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Column name, possibly qualified (`"l1.l_suppkey"`).
    pub name: String,
    /// Declared type of the column.
    pub ty: ValueType,
    /// Whether nulls may occur in this column. Primary-key columns and
    /// `NOT NULL` columns are non-nullable (paper, Section 3).
    pub nullable: bool,
}

impl Attribute {
    /// A nullable attribute of the given type.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute { name: name.into(), ty, nullable: true }
    }

    /// A non-nullable attribute of the given type.
    pub fn not_null(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute { name: name.into(), ty, nullable: false }
    }

    /// The unqualified part of the column name (after the last `.`).
    pub fn base_name(&self) -> &str {
        base_of(&self.name)
    }

    /// A copy of the attribute with a qualifier prefix (`alias.name`).
    pub fn qualified(&self, qualifier: &str) -> Attribute {
        Attribute {
            name: [qualifier, ".", self.base_name()].concat(),
            ty: self.ty,
            nullable: self.nullable,
        }
    }
}

/// An ordered list of attributes describing the columns of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from a list of attributes.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Schema { attrs }
    }

    /// Build a schema of nullable `Any`-typed columns from names (handy in tests).
    pub fn of_names(names: &[&str]) -> Self {
        Schema { attrs: names.iter().map(|n| Attribute::new(*n, ValueType::Any)).collect() }
    }

    /// An empty (0-ary) schema.
    pub fn empty() -> Self {
        Schema { attrs: Vec::new() }
    }

    /// Wrap the schema in an `Arc` for cheap sharing.
    pub fn shared(self) -> Arc<Schema> {
        Arc::new(self)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attributes in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The attribute at a position.
    pub fn attr(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }

    /// The column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.attrs.iter().map(|a| a.name.as_str()).collect()
    }

    /// Resolve a (possibly unqualified) column name to its position; `None`
    /// when it is unknown or ambiguous ([`resolve`] over this schema).
    pub fn find(&self, name: &str) -> Option<usize> {
        resolve(self.attrs.iter(), name)
    }

    /// [`Schema::find`], with the reason when the name does not resolve: an
    /// ambiguous unqualified reference is an error, as in SQL.
    pub fn position_of(&self, name: &str) -> Result<usize> {
        self.find(name).ok_or_else(|| {
            let exact = self.attrs.iter().any(|a| a.name == name);
            let matches: Vec<String> = self
                .attrs
                .iter()
                .filter(|a| if exact { a.name == name } else { a.base_name() == base_of(name) })
                .map(|a| a.name.clone())
                .collect();
            if matches.is_empty() {
                DataError::UnknownAttribute {
                    name: name.to_string(),
                    available: self.attrs.iter().map(|a| a.name.clone()).collect(),
                }
            } else {
                DataError::AmbiguousAttribute { name: name.to_string(), matches }
            }
        })
    }

    /// Whether a column with this name can be resolved.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// Resolve a list of column names to positions.
    pub fn positions_of(&self, names: &[String]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.position_of(n)).collect()
    }

    /// Concatenate two schemas (Cartesian product / join output schema).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().cloned());
        Schema { attrs }
    }

    /// Project the schema onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Schema {
        Schema { attrs: positions.iter().map(|&i| self.attrs[i].clone()).collect() }
    }

    /// Rename every column by prefixing it with a qualifier (table alias).
    pub fn qualify(&self, qualifier: &str) -> Schema {
        Schema { attrs: self.attrs.iter().map(|a| a.qualified(qualifier)).collect() }
    }

    /// Rename the columns to the given names (must match arity).
    pub fn rename(&self, names: &[String]) -> Result<Schema> {
        if names.len() != self.arity() {
            return Err(DataError::ArityMismatch { expected: self.arity(), found: names.len() });
        }
        Ok(Schema {
            attrs: self
                .attrs
                .iter()
                .zip(names)
                .map(|(a, n)| Attribute { name: n.clone(), ty: a.ty, nullable: a.nullable })
                .collect(),
        })
    }

    /// Whether two schemas are *union compatible*: same arity and pairwise
    /// compatible column types (names may differ, as in SQL set operations).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a.ty.accepts(b.ty) || b.ty.accepts(a.ty))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}{}", a.name, a.ty, if a.nullable { "" } else { " NOT NULL" })?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Attribute::not_null("o.o_orderkey", ValueType::Int),
            Attribute::new("o.o_custkey", ValueType::Int),
            Attribute::new("o.o_orderstatus", ValueType::Str),
        ])
    }

    #[test]
    fn exact_and_base_resolution() {
        let s = sample();
        assert_eq!(s.position_of("o.o_custkey").unwrap(), 1);
        assert_eq!(s.position_of("o_custkey").unwrap(), 1);
        assert!(s.position_of("missing").is_err());
    }

    #[test]
    fn ambiguous_resolution_is_error() {
        let s = Schema::new(vec![
            Attribute::new("a.x", ValueType::Int),
            Attribute::new("b.x", ValueType::Int),
        ]);
        assert!(matches!(s.position_of("x"), Err(DataError::AmbiguousAttribute { .. })));
        assert_eq!(s.position_of("b.x").unwrap(), 1);
        // Two columns under one full name: the error names the exact matches.
        let twice = Schema::of_names(&["x", "x", "t.x"]);
        assert!(matches!(
            twice.position_of("x"),
            Err(DataError::AmbiguousAttribute { matches, .. }) if matches == ["x", "x"]
        ));
    }

    #[test]
    fn resolution_over_two_schemas_is_resolution_over_their_concatenation() {
        let (l, r) = (sample(), Schema::of_names(&["c.o_custkey", "y"]));
        let both = l.concat(&r);
        for name in ["o.o_custkey", "c.o_custkey", "o_custkey", "o_orderkey", "y", "x.y", "missing"]
        {
            let chained = resolve(l.attrs().iter().chain(r.attrs()), name);
            assert_eq!(chained, both.find(name), "{name}");
            assert_eq!(chained, both.position_of(name).ok(), "{name}");
        }
        assert_eq!(both.find("o_custkey"), None);
        assert_eq!(both.find("x.y"), Some(4));
    }

    #[test]
    fn concat_project_qualify() {
        let s = sample();
        let t = Schema::of_names(&["y"]);
        let c = s.concat(&t);
        assert_eq!(c.arity(), 4);
        let p = c.project(&[3, 0]);
        assert_eq!(p.names(), vec!["y", "o.o_orderkey"]);
        let q = Schema::of_names(&["a", "b"]).qualify("t1");
        assert_eq!(q.names(), vec!["t1.a", "t1.b"]);
    }

    #[test]
    fn rename_checks_arity() {
        let s = Schema::of_names(&["a", "b"]);
        assert!(s.rename(&["x".into()]).is_err());
        let r = s.rename(&["x".into(), "y".into()]).unwrap();
        assert_eq!(r.names(), vec!["x", "y"]);
        // types/nullability preserved
        assert_eq!(r.attr(0).ty, ValueType::Any);
    }

    #[test]
    fn union_compatibility() {
        let a = Schema::new(vec![Attribute::new("x", ValueType::Int)]);
        let b = Schema::new(vec![Attribute::new("y", ValueType::Decimal)]);
        let c = Schema::new(vec![Attribute::new("z", ValueType::Str)]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        assert!(!a.union_compatible(&a.concat(&b)));
    }

    #[test]
    fn display_contains_types() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("o.o_orderkey: INT NOT NULL"));
        assert!(d.contains("o.o_orderstatus: VARCHAR"));
    }
}
