//! The original translation `Q ↦ (Qᵗ, Qᶠ)` of \[22\] (Figure 2 of the paper).
//!
//! `Qᵗ` underapproximates certain answers and `Qᶠ` underapproximates certain
//! answers to the complement of `Q`. The translation is theoretically elegant
//! (AC⁰ data complexity) but practically infeasible: the `Qᶠ` rules require
//! the *active domain* `adom(D)` and Cartesian powers `adomᵏ` of it, which
//! blow up even on tiny instances — Section 5 of the paper reports running
//! out of memory below 10³ tuples. We implement it faithfully so that the
//! infeasibility experiment (`certus-bench`, `sec5_naive_translation`) can be
//! reproduced; the improved Figure 3 translation in [`crate::core::translate`] is
//! what should actually be used.
//!
//! The translation is defined on the *core* operators only (σ, π, ×, ∪, ∩,
//! −, base and literal relations); any other operator is
//! [`Error::OutsideFragment`].

use crate::algebra::expr::{ProjCol, RaExpr};
use crate::algebra::schema_infer::{output_schema, Catalog};
use crate::core::dialect::ConditionDialect;
use crate::core::theta::theta_star;
use crate::{Error, Result};

/// Build the query computing the one-column active domain: the union of the
/// projections of every column of every relation in the catalog, with the
/// output column named `__adom`.
pub(crate) fn adom_query(catalog: &dyn Catalog) -> Result<RaExpr> {
    let mut parts: Vec<RaExpr> = Vec::new();
    for table in catalog.tables() {
        let schema = catalog.table_schema(&table)?;
        for attr in schema.attrs() {
            let q = RaExpr::relation(table.clone())
                .project_cols(vec![ProjCol::aliased(attr.name.clone(), "__adom")]);
            parts.push(q);
        }
    }
    let mut iter = parts.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| Error::OutsideFragment("active domain of an empty catalog".into()))?;
    Ok(iter.fold(first, |acc, q| acc.union(q)))
}

/// Build `adomᵏ` renamed to the given column names (so conditions over the
/// original query's attributes still resolve).
pub(crate) fn adom_power(catalog: &dyn Catalog, names: &[String]) -> Result<RaExpr> {
    let adom = adom_query(catalog)?;
    let mut expr = adom.clone();
    for _ in 1..names.len() {
        expr = expr.product(adom.clone());
    }
    Ok(RaExpr::Rename { input: Box::new(expr), columns: names.to_vec() })
}

fn column_names(expr: &RaExpr, catalog: &dyn Catalog) -> Result<Vec<String>> {
    Ok(output_schema(expr, catalog)?.names().into_iter().map(String::from).collect())
}

/// The `Qᵗ` translation of Figure 2 (left column).
pub fn translate_t(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    dialect: ConditionDialect,
) -> Result<RaExpr> {
    match expr {
        RaExpr::Relation { .. } | RaExpr::Values { .. } => Ok(expr.clone()),
        RaExpr::Union { left, right } => {
            Ok(translate_t(left, catalog, dialect)?.union(translate_t(right, catalog, dialect)?))
        }
        RaExpr::Intersect { left, right } => Ok(
            translate_t(left, catalog, dialect)?.intersect(translate_t(right, catalog, dialect)?)
        ),
        // (Q1 − Q2)ᵗ = Q1ᵗ ∩ Q2ᶠ
        RaExpr::Difference { left, right } => Ok(
            translate_t(left, catalog, dialect)?.intersect(translate_f(right, catalog, dialect)?)
        ),
        RaExpr::Select { input, condition } => {
            Ok(translate_t(input, catalog, dialect)?.select(theta_star(condition, dialect)))
        }
        RaExpr::Product { left, right } => {
            Ok(translate_t(left, catalog, dialect)?.product(translate_t(right, catalog, dialect)?))
        }
        RaExpr::Project { input, columns } => {
            Ok(translate_t(input, catalog, dialect)?.project_cols(columns.clone()))
        }
        RaExpr::Rename { input, columns } => Ok(RaExpr::Rename {
            input: Box::new(translate_t(input, catalog, dialect)?),
            columns: columns.clone(),
        }),
        other => Err(Error::OutsideFragment(format!(
            "the Figure 2 translation is defined on core relational algebra only; desugar first (got {other})"
        ))),
    }
}

/// The `Qᶠ` translation of Figure 2 (right column).
pub(crate) fn translate_f(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    dialect: ConditionDialect,
) -> Result<RaExpr> {
    match expr {
        // Rᶠ = adom^ar(R) ⋉̸⇑ R
        RaExpr::Relation { .. } | RaExpr::Values { .. } => {
            let names = column_names(expr, catalog)?;
            Ok(adom_power(catalog, &names)?.unify_anti_join(expr.clone()))
        }
        // (Q1 ∪ Q2)ᶠ = Q1ᶠ ∩ Q2ᶠ
        RaExpr::Union { left, right } => Ok(
            translate_f(left, catalog, dialect)?.intersect(translate_f(right, catalog, dialect)?)
        ),
        // (Q1 ∩ Q2)ᶠ = Q1ᶠ ∪ Q2ᶠ
        RaExpr::Intersect { left, right } => {
            Ok(translate_f(left, catalog, dialect)?.union(translate_f(right, catalog, dialect)?))
        }
        // (Q1 − Q2)ᶠ = Q1ᶠ ∪ Q2ᵗ
        RaExpr::Difference { left, right } => {
            Ok(translate_f(left, catalog, dialect)?.union(translate_t(right, catalog, dialect)?))
        }
        // (σ_θ Q)ᶠ = Qᶠ ∪ σ_(¬θ)*(adom^ar(Q))
        RaExpr::Select { input, condition } => {
            let names = column_names(input, catalog)?;
            let negated = theta_star(&condition.clone().not(), dialect);
            Ok(translate_f(input, catalog, dialect)?
                .union(adom_power(catalog, &names)?.select(negated)))
        }
        // (Q1 × Q2)ᶠ = Q1ᶠ × adom^ar(Q2) ∪ adom^ar(Q1) × Q2ᶠ
        RaExpr::Product { left, right } => {
            let l_names = column_names(left, catalog)?;
            let r_names = column_names(right, catalog)?;
            let a = translate_f(left, catalog, dialect)?.product(adom_power(catalog, &r_names)?);
            let b = adom_power(catalog, &l_names)?.product(translate_f(right, catalog, dialect)?);
            Ok(a.union(b))
        }
        // (π_α Q)ᶠ = π_α(Qᶠ) − π_α(adom^ar(Q) − Qᶠ)
        RaExpr::Project { input, columns } => {
            let names = column_names(input, catalog)?;
            let qf = translate_f(input, catalog, dialect)?;
            let left = qf.clone().project_cols(columns.clone());
            let right = adom_power(catalog, &names)?
                .difference(qf)
                .project_cols(columns.clone());
            Ok(left.difference(right))
        }
        RaExpr::Rename { input, columns } => Ok(RaExpr::Rename {
            input: Box::new(translate_f(input, catalog, dialect)?),
            columns: columns.clone(),
        }),
        other => Err(Error::OutsideFragment(format!(
            "the Figure 2 translation is defined on core relational algebra only; desugar first (got {other})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::algebra::eval::eval;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Value};

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
        db.insert_relation("s", rel(&["a"], vec![vec![null(1)]]));
        db
    }

    #[test]
    fn adom_query_collects_all_values() {
        let db = tiny_db();
        let adom = adom_query(&db).unwrap();
        let out = eval(&adom, &db, NullSemantics::Sql).unwrap();
        // adom = {1, 2, ⊥1}
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().names(), vec!["__adom"]);
    }

    #[test]
    fn qt_of_difference_returns_no_false_positives() {
        // Introduction example: R − S with S = {⊥}: Qᵗ must be empty.
        let db = tiny_db();
        let q = RaExpr::relation("r").difference(RaExpr::relation("s"));
        let qt = translate_t(&q, &db, ConditionDialect::Sql).unwrap();
        let out = eval(&qt, &db, NullSemantics::Sql).unwrap();
        assert!(out.is_empty());
        // SQL evaluation of the original keeps both tuples of r.
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 2);
    }

    #[test]
    fn qf_of_base_relation_is_adom_minus_unifiable() {
        let db = tiny_db();
        let qf = translate_f(&RaExpr::relation("r"), &db, ConditionDialect::Sql).unwrap();
        let out = eval(&qf, &db, NullSemantics::Sql).unwrap();
        // adom = {1, 2, ⊥1}; tuples not unifying with {1, 2} — only none, since
        // ⊥1 unifies with both and 1, 2 are in r. So Rᶠ = ∅.
        assert!(out.is_empty());
        // For s = {⊥1}: every adom element unifies with ⊥1 ⇒ Sᶠ = ∅ as well.
        let qf_s = translate_f(&RaExpr::relation("s"), &db, ConditionDialect::Sql).unwrap();
        assert!(eval(&qf_s, &db, NullSemantics::Sql).unwrap().is_empty());
    }

    #[test]
    fn qf_of_selection_adds_negated_condition_over_adom() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3), Value::Int(3)]],
            ),
        );
        let q = RaExpr::relation("r").select(eq("a", "b"));
        let qf = translate_f(&q, &db, ConditionDialect::Sql).unwrap();
        let out = eval(&qf, &db, NullSemantics::Sql).unwrap();
        // (3,3) satisfies the selection and is in r, so it is not certainly false…
        assert!(!out.contains(&crate::data::Tuple::new(vec![Value::Int(3), Value::Int(3)])));
        // …while (1,2) (fails the condition) and (2,3) (not even in r) are.
        assert!(out.contains(&crate::data::Tuple::new(vec![Value::Int(1), Value::Int(2)])));
        assert!(out.contains(&crate::data::Tuple::new(vec![Value::Int(2), Value::Int(3)])));
    }

    #[test]
    fn figure2_blowup_is_visible_even_on_tiny_instances() {
        // The size of the Qᶠ expression (and its intermediate adomᵏ results)
        // grows much faster than Q⁺'s. This is the structural seed of the
        // Section 5 infeasibility result.
        let db = tiny_db();
        let q = RaExpr::relation("r").difference(RaExpr::relation("s"));
        let qt = translate_t(&q, &db, ConditionDialect::Sql).unwrap();
        let qplus = crate::core::translate::translate_plus(&q, ConditionDialect::Sql).unwrap();
        assert!(qt.size() > qplus.size());
    }

    #[test]
    fn non_core_operators_are_rejected() {
        let db = tiny_db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "a"));
        assert!(translate_t(&q, &db, ConditionDialect::Sql).is_err());
        assert!(translate_f(&q, &db, ConditionDialect::Sql).is_err());
    }
}
