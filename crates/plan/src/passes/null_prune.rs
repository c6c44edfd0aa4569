//! Nullability-aware pruning of `IS [NOT] NULL` checks (paper, Corollary 1).
//!
//! The certain-answer translations guard every equality with `… OR A IS
//! NULL` disjuncts and `A IS NOT NULL` conjuncts. On columns the schema
//! declares non-nullable those checks are constants: `col IS NULL → FALSE`,
//! `col IS NOT NULL → TRUE`, after which the Boolean connectives
//! re-simplify. This is sanctioned by Corollary 1 (it strengthens `θ*` and
//! weakens nothing in `θ**` that could ever be true).

use crate::{PlanError, Result};
use certus_algebra::condition::Condition;
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::{output_schema, Catalog};
use certus_data::Schema;

/// Simplify `IS NULL` / `IS NOT NULL` atoms over columns that can never be
/// null according to the schema: `col IS NULL → FALSE`, `col IS NOT NULL →
/// TRUE`, followed by Boolean simplification.
pub fn prune_null_checks(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    Ok(match expr {
        RaExpr::Select { input, condition } => {
            let new_input = prune_null_checks(input, catalog)?;
            let schema = output_schema(&new_input, catalog).map_err(PlanError::Algebra)?;
            let condition = simplify_nullability(condition, &schema);
            new_input.select(condition)
        }
        RaExpr::Join { left, right, condition } => {
            let l = prune_null_checks(left, catalog)?;
            let r = prune_null_checks(right, catalog)?;
            let schema = output_schema(&l, catalog)
                .map_err(PlanError::Algebra)?
                .concat(&output_schema(&r, catalog).map_err(PlanError::Algebra)?);
            let condition = simplify_nullability(condition, &schema);
            l.join(r, condition)
        }
        RaExpr::SemiJoin { left, right, condition } => {
            let l = prune_null_checks(left, catalog)?;
            let r = prune_null_checks(right, catalog)?;
            let schema = output_schema(&l, catalog)
                .map_err(PlanError::Algebra)?
                .concat(&output_schema(&r, catalog).map_err(PlanError::Algebra)?);
            let condition = simplify_nullability(condition, &schema);
            l.semi_join(r, condition)
        }
        RaExpr::AntiJoin { left, right, condition } => {
            let l = prune_null_checks(left, catalog)?;
            let r = prune_null_checks(right, catalog)?;
            let schema = output_schema(&l, catalog)
                .map_err(PlanError::Algebra)?
                .concat(&output_schema(&r, catalog).map_err(PlanError::Algebra)?);
            let condition = simplify_nullability(condition, &schema);
            l.anti_join(r, condition)
        }
        other => other.map_children(&mut |c| prune_null_checks(c, catalog))?,
    })
}

/// Rebuild a condition replacing null-checks on non-nullable columns with
/// Boolean constants and re-simplifying connectives.
pub fn simplify_nullability(condition: &Condition, schema: &Schema) -> Condition {
    match condition {
        Condition::IsNull(op) => {
            if let Some(col) = op.as_col() {
                if let Ok(pos) = schema.position_of(col) {
                    if !schema.attr(pos).nullable {
                        return Condition::False;
                    }
                }
            }
            condition.clone()
        }
        Condition::IsNotNull(op) => {
            if let Some(col) = op.as_col() {
                if let Ok(pos) = schema.position_of(col) {
                    if !schema.attr(pos).nullable {
                        return Condition::True;
                    }
                }
            }
            condition.clone()
        }
        Condition::And(a, b) => {
            simplify_nullability(a, schema).and(simplify_nullability(b, schema))
        }
        Condition::Or(a, b) => simplify_nullability(a, schema).or(simplify_nullability(b, schema)),
        Condition::Not(inner) => simplify_nullability(inner, schema).not(),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null};
    use certus_data::{Attribute, Database, Schema, TableDef, ValueType};

    fn keyed_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::not_null("k", ValueType::Int),
            Attribute::new("v", ValueType::Int),
        ]);
        db.create_table(TableDef::new("t", schema).with_key(&["k"])).unwrap();
        db
    }

    #[test]
    fn null_checks_on_nonnullable_columns_fold() {
        let db = keyed_db();
        let q = RaExpr::relation("t").select(is_null("k").or(eq("k", "v")));
        let out = prune_null_checks(&q, &db).unwrap();
        match out {
            RaExpr::Select { condition, .. } => assert_eq!(condition, eq("k", "v")),
            other => panic!("expected Select, got {other}"),
        }
        // Nullable columns are untouched.
        let q = RaExpr::relation("t").select(is_null("v"));
        let out = prune_null_checks(&q, &db).unwrap();
        assert!(matches!(out, RaExpr::Select { ref condition, .. } if *condition == is_null("v")));
    }

    #[test]
    fn pruning_is_idempotent() {
        let db = keyed_db();
        let q = RaExpr::relation("t")
            .anti_join(RaExpr::relation("t").rename(&["k2", "v2"]), eq("k", "k2").or(is_null("k")));
        let once = prune_null_checks(&q, &db).unwrap();
        // Join conditions are pruned like selections: `k` is a key column.
        assert!(
            matches!(once, RaExpr::AntiJoin { ref condition, .. } if *condition == eq("k", "k2"))
        );
        let twice = prune_null_checks(&once, &db).unwrap();
        assert_eq!(once, twice);
    }
}
