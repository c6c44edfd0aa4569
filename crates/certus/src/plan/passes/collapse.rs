//! Projection and distinct collapsing.
//!
//! * `π_c2(π_c1(e)) → π_{c2∘c1}(e)` — adjacent projections compose (both
//!   deduplicate under set semantics, so the composition is exact);
//! * an identity projection (all columns, original names, original order)
//!   becomes a plain [`RaExpr::Distinct`] — it only deduplicates;
//! * `δ(δ(e)) → δ(e)`, `δ(π(e)) → π(e)` and `π(δ(e)) → π(e)` — projections
//!   and set operations already deduplicate;
//! * `δ(e) → e` when `e` is itself duplicate-free by construction (set
//!   operations, projections, distinct).

use crate::algebra::expr::{ProjCol, RaExpr};
use crate::algebra::schema_infer::{output_schema, Catalog};
use crate::data::Schema;
use crate::Result;

/// Whether an operator's output is duplicate-free by construction.
fn dedups(expr: &RaExpr) -> bool {
    matches!(
        expr,
        RaExpr::Project { .. }
            | RaExpr::Distinct { .. }
            | RaExpr::Union { .. }
            | RaExpr::Intersect { .. }
            | RaExpr::Difference { .. }
            | RaExpr::Aggregate { .. }
    )
}

/// Collapse redundant projections and distincts everywhere.
pub fn collapse(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    expr.transform_up(&mut |node| {
        Ok(match node {
            RaExpr::Distinct { input } => {
                if dedups(&input) {
                    *input
                } else {
                    input.distinct()
                }
            }
            RaExpr::Project { input, columns } => match *input {
                // Compose adjacent projections.
                RaExpr::Project { input: inner, columns: inner_cols } => {
                    match compose(&columns, &inner_cols) {
                        Some(composed) => inner.project_cols(composed),
                        None => inner.project_cols(inner_cols).project_cols(columns),
                    }
                }
                // A projection over a distinct dedups on its own.
                RaExpr::Distinct { input: inner } => inner.project_cols(columns),
                inner => {
                    let schema = output_schema(&inner, catalog)?;
                    project_over(inner, columns, &schema)
                }
            },
            other => other,
        })
    })
}

/// `π_columns(input)` over an input of the given schema — or, for the
/// identity projection (every column, under its own name, in order), the
/// deduplication that is all it does.
pub(crate) fn project_over(input: RaExpr, columns: Vec<ProjCol>, schema: &Schema) -> RaExpr {
    let identity = columns.len() == schema.arity()
        && columns
            .iter()
            .enumerate()
            .all(|(i, pc)| pc.alias.is_none() && pc.column == schema.attr(i).name);
    if !identity {
        input.project_cols(columns)
    } else if dedups(&input) {
        input
    } else {
        input.distinct()
    }
}

/// Compose `outer ∘ inner`: each outer column must name an output column of
/// the inner projection. Returns `None` when a reference does not resolve
/// (malformed input — left untouched for the validator to report).
fn compose(outer: &[ProjCol], inner: &[ProjCol]) -> Option<Vec<ProjCol>> {
    outer
        .iter()
        .map(|o| {
            inner.iter().find(|i| i.output_name() == o.column).map(|i| ProjCol {
                column: i.column.clone(),
                alias: Some(o.output_name().to_string()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::algebra::eval::eval;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                ],
            ),
        );
        db
    }

    fn assert_equivalent(before: &RaExpr, after: &RaExpr, db: &Database) {
        let a = eval(before, db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(after, db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples(), "{before} vs {after}");
    }

    #[test]
    fn adjacent_projections_compose() {
        let db = db();
        let q = RaExpr::relation("r")
            .project_cols(vec![ProjCol::aliased("a", "x"), ProjCol::named("b")])
            .project_cols(vec![ProjCol::aliased("x", "y")]);
        let out = collapse(&q, &db).unwrap();
        match &out {
            RaExpr::Project { input, columns } => {
                assert!(matches!(**input, RaExpr::Relation { .. }));
                assert_eq!(columns.len(), 1);
                assert_eq!(columns[0].column, "a");
                assert_eq!(columns[0].output_name(), "y");
            }
            other => panic!("expected one Project, got {other}"),
        }
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn identity_projection_becomes_distinct() {
        let db = db();
        let q = RaExpr::relation("r").project(&["a", "b"]);
        let out = collapse(&q, &db).unwrap();
        assert!(matches!(out, RaExpr::Distinct { .. }), "{out}");
        assert_equivalent(&q, &out, &db);
        // Non-identity projections are kept.
        let keep = RaExpr::relation("r").project(&["b", "a"]);
        assert_eq!(collapse(&keep, &db).unwrap(), keep);
    }

    #[test]
    fn distinct_chains_collapse() {
        let db = db();
        let q = RaExpr::relation("r").distinct().distinct();
        let out = collapse(&q, &db).unwrap();
        assert_eq!(out, RaExpr::relation("r").distinct());
        assert_equivalent(&q, &out, &db);

        let q = RaExpr::relation("r").project(&["a"]).distinct();
        let out = collapse(&q, &db).unwrap();
        assert_eq!(out, RaExpr::relation("r").project(&["a"]));
        assert_equivalent(&q, &out, &db);

        let q = RaExpr::relation("r").distinct().project(&["a"]);
        let out = collapse(&q, &db).unwrap();
        assert_eq!(out, RaExpr::relation("r").project(&["a"]));
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn distinct_over_set_operations_collapses() {
        let db = db();
        let q = RaExpr::relation("r").union(RaExpr::relation("r")).distinct();
        let out = collapse(&q, &db).unwrap();
        assert!(matches!(out, RaExpr::Union { .. }));
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn collapse_is_idempotent_and_preserves_plain_queries() {
        let db = db();
        let plain = RaExpr::relation("r").select(eq("a", "b"));
        assert_eq!(collapse(&plain, &db).unwrap(), plain);
        let q = RaExpr::relation("r").project(&["a", "b"]).project(&["a"]).distinct();
        let once = collapse(&q, &db).unwrap();
        let twice = collapse(&once, &db).unwrap();
        assert_eq!(once, twice);
        assert_equivalent(&q, &once, &db);
    }
}
