//! The key-based simplification of Section 7: `R ⋉̸⇑ S → R − S` whenever `R`
//! is a base relation with a declared primary key and `S` is (structurally
//! guaranteed to be) a subset of `R`. With a key, two distinct tuples of `R`
//! can never unify, so "unifies with no tuple of S ⊆ R" collapses to plain
//! set difference — which the engine evaluates with a hash table.

use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::Catalog;
use crate::Result;

/// Replace `R ⋉̸⇑ S` by `R − S` when `R` is a keyed base relation and `S` is
/// structurally contained in `R`.
pub(crate) fn simplify_key_antijoin(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    match expr {
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            let left = simplify_key_antijoin(left, catalog)?;
            let right = simplify_key_antijoin(right, catalog)?;
            let has_key = match &left {
                RaExpr::Relation { name, .. } => !catalog.table_key(name).is_empty(),
                _ => false,
            };
            Ok(if has_key && contained_in(&right, &left) {
                left.difference(right)
            } else {
                left.unify_anti_join(right)
            })
        }
        other => other.map_children(&mut |c| simplify_key_antijoin(c, catalog)),
    }
}

/// Conservative structural containment check: `sub ⊆ sup` holds when `sub` is
/// built from `sup` by operations that only remove tuples (selections,
/// semijoins, anti-joins, intersections, differences, distinct).
pub(crate) fn contained_in(sub: &RaExpr, sup: &RaExpr) -> bool {
    if sub == sup {
        return true;
    }
    match sub {
        RaExpr::Select { input, .. } | RaExpr::Distinct { input } => contained_in(input, sup),
        RaExpr::SemiJoin { left, .. }
        | RaExpr::AntiJoin { left, .. }
        | RaExpr::UnifySemiJoin { left, .. }
        | RaExpr::UnifyAntiSemiJoin { left, .. }
        | RaExpr::Difference { left, .. } => contained_in(left, sup),
        RaExpr::Intersect { left, right } => contained_in(left, sup) || contained_in(right, sup),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::data::database::TableDef;
    use crate::data::{Attribute, Database, Schema, ValueType};

    fn keyed_db() -> Database {
        let mut db = Database::new();
        let keyed = Schema::new(vec![
            Attribute::not_null("k", ValueType::Int),
            Attribute::new("v", ValueType::Int),
        ]);
        db.create_table(TableDef::new("keyed", keyed).with_key(&["k"])).unwrap();
        let plain = Schema::new(vec![
            Attribute::new("x", ValueType::Int),
            Attribute::new("y", ValueType::Int),
        ]);
        db.create_table(TableDef::new("plain", plain)).unwrap();
        db
    }

    #[test]
    fn keyed_contained_antijoin_becomes_difference() {
        let db = keyed_db();
        let sub = RaExpr::relation("keyed").select(eq("k", "v"));
        let q = RaExpr::relation("keyed").unify_anti_join(sub);
        assert!(matches!(simplify_key_antijoin(&q, &db).unwrap(), RaExpr::Difference { .. }));
    }

    #[test]
    fn no_key_or_no_containment_is_a_no_op() {
        let db = keyed_db();
        let no_key = RaExpr::relation("plain")
            .unify_anti_join(RaExpr::relation("plain").select(eq("x", "y")));
        assert_eq!(simplify_key_antijoin(&no_key, &db).unwrap(), no_key);
        let unrelated = RaExpr::relation("keyed").unify_anti_join(RaExpr::relation("plain"));
        assert_eq!(simplify_key_antijoin(&unrelated, &db).unwrap(), unrelated);
    }

    #[test]
    fn containment_check_covers_tuple_removing_operators() {
        let keyed = RaExpr::relation("keyed");
        let filtered = keyed.clone().select(eq("k", "v")).distinct();
        assert!(contained_in(&filtered, &keyed));
        let semi = keyed.clone().semi_join(RaExpr::relation("plain"), eq("k", "x"));
        assert!(contained_in(&semi, &keyed));
        let inter = RaExpr::relation("plain").intersect(keyed.clone());
        assert!(contained_in(&inter, &keyed));
        assert!(!contained_in(&RaExpr::relation("plain"), &keyed));
    }

    #[test]
    fn simplification_is_idempotent() {
        let db = keyed_db();
        let q = RaExpr::relation("keyed")
            .unify_anti_join(RaExpr::relation("keyed").select(eq("k", "v")));
        let once = simplify_key_antijoin(&q, &db).unwrap();
        assert_eq!(simplify_key_antijoin(&once, &db).unwrap(), once);
    }
}
