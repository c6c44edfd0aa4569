//! The statistics catalog: per-relation cardinalities and per-column null
//! fractions / distinct-count estimates, computed from materialised
//! `certus::data` relations.
//!
//! The cost model (`cost::explain`) estimates a finished
//! physical plan from these statistics, falling back to fixed magic
//! selectivities only where they know nothing about a column; the planner
//! never reads them, so no plan choice depends on them.
//! Everything is exact (one full scan per table at [`StatisticsCatalog::analyze`]
//! time) — sampling and sketches are future work, the instances the paper's
//! experiments use are milli-scale.

use crate::data::{Database, Relation, Value};
use std::collections::{BTreeMap, HashSet};

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnStats {
    /// Column name as declared in the table schema.
    pub name: String,
    /// Fraction of rows in which the column is null (marked or Codd).
    pub null_fraction: f64,
    /// Number of distinct non-null values.
    pub distinct: usize,
}

/// Statistics for a single table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableStats {
    /// Number of rows.
    pub rows: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute exact statistics for one relation.
    pub fn analyze(rel: &Relation) -> TableStats {
        let arity = rel.arity();
        let rows = rel.len();
        let mut nulls = vec![0usize; arity];
        let mut distinct: Vec<HashSet<&Value>> = vec![HashSet::new(); arity];
        for t in rel.iter() {
            for (i, v) in t.values().iter().enumerate() {
                if v.is_null() {
                    nulls[i] += 1;
                } else {
                    distinct[i].insert(v);
                }
            }
        }
        let columns = rel
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .map(|(i, a)| ColumnStats {
                name: a.name.clone(),
                null_fraction: if rows == 0 { 0.0 } else { nulls[i] as f64 / rows as f64 },
                distinct: distinct[i].len(),
            })
            .collect();
        TableStats { rows, columns }
    }

    /// Look up a column by (base) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        let base = name.rsplit('.').next().unwrap_or(name);
        self.columns
            .iter()
            .find(|c| c.name == name || c.name.rsplit('.').next().unwrap_or(&c.name) == base)
    }
}

/// Statistics for every table of a database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatisticsCatalog {
    tables: BTreeMap<String, TableStats>,
}

impl StatisticsCatalog {
    /// An empty catalog (all lookups miss; estimates fall back to defaults).
    pub fn empty() -> Self {
        StatisticsCatalog::default()
    }

    /// Analyze every table of a database.
    pub fn analyze(db: &Database) -> Self {
        let mut tables = BTreeMap::new();
        for name in db.table_names() {
            let rel = db.relation(name).expect("listed table exists");
            tables.insert(name.to_string(), TableStats::analyze(rel));
        }
        StatisticsCatalog { tables }
    }

    /// Row count for a table, if analyzed.
    pub(crate) fn row_count(&self, name: &str) -> Option<usize> {
        self.tables.get(name).map(|t| t.rows)
    }

    /// Resolve a column reference (possibly qualified, e.g. `"l1.l_suppkey"`)
    /// to its statistics. TPC-H style schemas prefix columns per table, so a
    /// base-name scan across tables is unambiguous in practice; the first
    /// match wins otherwise.
    pub(crate) fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.tables.values().find_map(|t| t.column(name))
    }

    /// Number of analyzed tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog holds no statistics.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;
    use crate::data::null::NullId;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Null(NullId(1))],
                    vec![Value::Int(2), Value::Null(NullId(2))],
                    vec![Value::Int(3), Value::Int(10)],
                ],
            ),
        );
        db.insert_relation("empty", rel(&["x"], vec![]));
        db
    }

    #[test]
    fn analyze_counts_rows_nulls_and_distincts() {
        let stats = StatisticsCatalog::analyze(&db());
        let r = stats.tables.get("r").unwrap();
        assert_eq!(r.rows, 4);
        assert_eq!(r.column("a").unwrap().distinct, 3);
        assert_eq!(r.column("a").unwrap().null_fraction, 0.0);
        assert_eq!(r.column("b").unwrap().distinct, 1);
        assert!((r.column("b").unwrap().null_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_has_zero_fractions() {
        let stats = StatisticsCatalog::analyze(&db());
        let e = stats.tables.get("empty").unwrap();
        assert_eq!(e.rows, 0);
        assert_eq!(e.column("x").unwrap().null_fraction, 0.0);
        assert_eq!(e.column("x").unwrap().distinct, 0);
    }

    #[test]
    fn qualified_column_lookup_matches_base_name() {
        let stats = StatisticsCatalog::analyze(&db());
        assert!(stats.column("q.b").is_some());
        assert_eq!(stats.column("q.b").unwrap().distinct, 1);
        assert!(stats.column("nope").is_none());
        assert_eq!(stats.row_count("r"), Some(4));
        assert_eq!(stats.row_count("missing"), None);
    }

    #[test]
    fn distinct_counts_are_value_based_and_ignore_nulls() {
        let mut db = Database::new();
        // Three rows share the value 7, one is a string, two are marked
        // nulls with distinct ids: distinct = {7, "x"}, null fraction = 2/6.
        db.insert_relation(
            "t",
            rel(
                &["v"],
                vec![
                    vec![Value::Int(7)],
                    vec![Value::Int(7)],
                    vec![Value::Int(7)],
                    vec![Value::str("x")],
                    vec![Value::Null(NullId(1))],
                    vec![Value::Null(NullId(2))],
                ],
            ),
        );
        let stats = StatisticsCatalog::analyze(&db);
        let c = stats.tables.get("t").unwrap().column("v").unwrap();
        assert_eq!(c.distinct, 2);
        assert!((c.null_fraction - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn table_cardinalities_cover_every_analyzed_relation() {
        let stats = StatisticsCatalog::analyze(&db());
        assert_eq!(stats.len(), 2);
        assert!(!stats.is_empty());
        assert_eq!(stats.row_count("r"), Some(4));
        assert_eq!(stats.row_count("empty"), Some(0));
        // TableStats::analyze agrees with the catalog route.
        let direct = TableStats::analyze(db().relation("r").unwrap());
        assert_eq!(Some(&direct), stats.tables.get("r"));
    }

    #[test]
    fn empty_catalog_misses_everything() {
        let stats = StatisticsCatalog::empty();
        assert!(stats.is_empty());
        assert_eq!(stats.len(), 0);
        assert!(stats.column("a").is_none());
    }
}
