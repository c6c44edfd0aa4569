//! Normalization and desugaring of algebra expressions.
//!
//! The certain-answer translation of Figure 2 (the original translation of
//! \[22\], implemented in `certus-core::translate_naive`) is defined only on the
//! *core* operators: base relations, selection, projection, product, union,
//! intersection and difference. [`desugar_core`] rewrites the derived
//! operators (joins, semijoins, unification semijoins, division, distinct)
//! into that core. The improved Figure 3 translation does not need this and
//! operates on derived operators directly.

use crate::condition::Condition;
use crate::error::AlgebraError;
use crate::expr::{ProjCol, RaExpr};
use crate::schema_infer::{output_schema, Catalog};
use crate::Result;

/// Rewrite an expression to use only the core relational algebra operators
/// (σ, π, ×, ∪, ∩, −) plus base relations and literal relations.
///
/// * `Join(l, r, θ)` → `σ_θ(l × r)`
/// * `SemiJoin(l, r, θ)` → `π_l(σ_θ(l × r))`
/// * `AntiJoin(l, r, θ)` → `l − π_l(σ_θ(l × r))`
/// * `UnifySemiJoin` / `UnifyAntiSemiJoin` are kept (they are definable via a
///   unification condition `θ⇑`, but the paper keeps them as primitives and so
///   do we — the Figure 2 translation never produces them anyway).
/// * `Division(l, r)` → `π_K(l) − π_K((π_K(l) × r) − l)` where `K` are the
///   non-shared columns of `l` (the textbook expansion).
/// * `Distinct` disappears (set semantics).
/// * `Rename` is kept.
/// * `Aggregate` is rejected: it is outside relational algebra and outside the
///   scope of the Figure 2 translation.
pub fn desugar_core(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    match expr {
        RaExpr::Relation { .. } | RaExpr::Values { .. } => Ok(expr.clone()),
        RaExpr::Select { input, condition } => {
            Ok(desugar_core(input, catalog)?.select(condition.clone()))
        }
        RaExpr::Project { input, columns } => {
            Ok(desugar_core(input, catalog)?.project_cols(columns.clone()))
        }
        RaExpr::Product { left, right } => {
            Ok(desugar_core(left, catalog)?.product(desugar_core(right, catalog)?))
        }
        RaExpr::Join { left, right, condition } => Ok(desugar_core(left, catalog)?
            .product(desugar_core(right, catalog)?)
            .select(condition.clone())),
        RaExpr::Union { left, right } => {
            Ok(desugar_core(left, catalog)?.union(desugar_core(right, catalog)?))
        }
        RaExpr::Intersect { left, right } => {
            Ok(desugar_core(left, catalog)?.intersect(desugar_core(right, catalog)?))
        }
        RaExpr::Difference { left, right } => {
            Ok(desugar_core(left, catalog)?.difference(desugar_core(right, catalog)?))
        }
        RaExpr::SemiJoin { left, right, condition } => {
            let l = desugar_core(left, catalog)?;
            let r = desugar_core(right, catalog)?;
            Ok(semijoin_expansion(&l, &r, condition, catalog)?)
        }
        RaExpr::AntiJoin { left, right, condition } => {
            let l = desugar_core(left, catalog)?;
            let r = desugar_core(right, catalog)?;
            let semi = semijoin_expansion(&l, &r, condition, catalog)?;
            Ok(l.difference(semi))
        }
        RaExpr::UnifySemiJoin { left, right } => {
            Ok(desugar_core(left, catalog)?.unify_semi_join(desugar_core(right, catalog)?))
        }
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            Ok(desugar_core(left, catalog)?.unify_anti_join(desugar_core(right, catalog)?))
        }
        RaExpr::Division { left, right } => {
            let l = desugar_core(left, catalog)?;
            let r = desugar_core(right, catalog)?;
            division_expansion(&l, &r, catalog)
        }
        RaExpr::Rename { input, columns } => Ok(RaExpr::Rename {
            input: Box::new(desugar_core(input, catalog)?),
            columns: columns.clone(),
        }),
        RaExpr::Distinct { input } => desugar_core(input, catalog),
        RaExpr::Aggregate { .. } => Err(AlgebraError::Unsupported(
            "aggregates cannot be desugared to core relational algebra".into(),
        )),
    }
}

/// `π_left(σ_θ(left × right))`.
fn semijoin_expansion(
    left: &RaExpr,
    right: &RaExpr,
    condition: &Condition,
    catalog: &dyn Catalog,
) -> Result<RaExpr> {
    let left_schema = output_schema(left, catalog)?;
    let cols: Vec<ProjCol> = left_schema.names().into_iter().map(ProjCol::named).collect();
    Ok(left.clone().product(right.clone()).select(condition.clone()).project_cols(cols))
}

/// Textbook expansion of division.
fn division_expansion(left: &RaExpr, right: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    let l_schema = output_schema(left, catalog)?;
    let r_schema = output_schema(right, catalog)?;
    let key_cols: Vec<ProjCol> = l_schema
        .attrs()
        .iter()
        .filter(|a| !r_schema.attrs().iter().any(|b| b.base_name() == a.base_name()))
        .map(|a| ProjCol::named(a.name.clone()))
        .collect();
    if key_cols.len() + r_schema.arity() != l_schema.arity() {
        return Err(AlgebraError::Malformed(
            "division requires the divisor's columns to be a subset of the dividend's".into(),
        ));
    }
    let keys = left.clone().project_cols(key_cols.clone());
    // All combinations that *should* be present.
    let universe = keys.clone().product(right.clone());
    // Align the column order of `left` to (keys, divisor columns).
    let mut aligned_cols: Vec<ProjCol> = key_cols.clone();
    for b in r_schema.attrs() {
        let src = l_schema
            .attrs()
            .iter()
            .find(|a| a.base_name() == b.base_name())
            .expect("checked above");
        aligned_cols.push(ProjCol::named(src.name.clone()));
    }
    let aligned_left = left.clone().project_cols(aligned_cols);
    // Missing combinations, projected back to the key columns.
    let key_names: Vec<ProjCol> =
        key_cols.iter().map(|c| ProjCol::named(c.output_name().to_string())).collect();
    let missing = universe.difference(aligned_left).project_cols(key_names);
    Ok(keys.difference(missing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::eq;
    use crate::eval::eval;
    use crate::semantics::NullSemantics;
    use certus_data::builder::rel;
    use certus_data::{Database, Value};

    /// Whether an expression uses only core operators (after desugaring this
    /// always holds, except for the unification semijoins which are kept).
    fn is_core(expr: &RaExpr) -> bool {
        !expr.any_node(&mut |n| {
            matches!(
                n,
                RaExpr::Join { .. }
                    | RaExpr::SemiJoin { .. }
                    | RaExpr::AntiJoin { .. }
                    | RaExpr::Division { .. }
                    | RaExpr::Distinct { .. }
                    | RaExpr::Aggregate { .. }
            )
        })
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "takes",
            rel(
                &["student", "course"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Int(20)],
                    vec![Value::Int(2), Value::Int(10)],
                ],
            ),
        );
        db.insert_relation(
            "courses",
            rel(&["course"], vec![vec![Value::Int(10)], vec![Value::Int(20)]]),
        );
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
        );
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)]]));
        db
    }

    #[test]
    fn desugared_join_agrees_with_join() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b"));
        let d = desugar_core(&q, &db).unwrap();
        assert!(is_core(&d));
        assert_eq!(
            eval(&q, &db, NullSemantics::Sql).unwrap().sorted().tuples(),
            eval(&d, &db, NullSemantics::Sql).unwrap().sorted().tuples()
        );
    }

    #[test]
    fn desugared_antijoin_agrees_with_antijoin() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let d = desugar_core(&q, &db).unwrap();
        assert!(is_core(&d));
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(&d, &db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn desugared_division_agrees_with_division() {
        let db = db();
        let q = RaExpr::relation("takes").divide(RaExpr::relation("courses"));
        let d = desugar_core(&q, &db).unwrap();
        assert!(is_core(&d));
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(&d, &db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn aggregates_are_rejected() {
        let db = db();
        let q = RaExpr::relation("r").aggregate(&[], vec![crate::expr::AggExpr::count_star("n")]);
        assert!(matches!(desugar_core(&q, &db), Err(AlgebraError::Unsupported(_))));
    }

    #[test]
    fn distinct_is_erased() {
        let db = db();
        let q = RaExpr::relation("r").distinct();
        let d = desugar_core(&q, &db).unwrap();
        assert_eq!(d, RaExpr::relation("r"));
    }
}
