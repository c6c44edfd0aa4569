//! Predicate pushdown.
//!
//! Selections migrate towards the scans: through projections (rewriting the
//! condition's columns via the projection's alias map), through set
//! operations, into the preserved side of (anti-)semijoins, and into join
//! conditions — where they may expose new equi-join keys for the physical
//! planner to hash on. A selection over a cartesian product whose condition
//! relates both sides turns the product into a theta-join.
//!
//! A join's *own* condition is redistributed the same way, selection above
//! it or not: the conjuncts of an inner join that read one input only become
//! selections on that input, and the conjuncts of an (anti-)semijoin that
//! read only the inner input become a selection on it
//! (`l ⋉_{θ∧φ(r)} r = l ⋉_θ σ_φ(r)`, likewise for `▷`). The certain-answer
//! translation produces such conjuncts — `p_name LIKE … OR p_name IS NULL`
//! beside the key of Q⁺4's first join — and a filtered scan beats a test per
//! candidate pair.
//!
//! Every rule is a strong equivalence under both SQL 3VL and naive
//! evaluation: Kleene conjunction is associative/commutative and selections
//! commute with the tuple-preserving operators used here.

use crate::equi::{JoinSides, Side};
use crate::{PlanError, Result};
use certus_algebra::condition::Condition;
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::{output_schema, Catalog};
use certus_data::Schema;

/// Push every selection in the expression — and every single-side conjunct
/// of a join condition — as far down as it can go.
pub fn pushdown(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    match expr {
        RaExpr::Select { input, condition } => {
            let input = pushdown(input, catalog)?;
            push_select(input, condition.clone(), catalog)
        }
        RaExpr::Join { left, right, condition } => {
            let (left, right) = (pushdown(left, catalog)?, pushdown(right, catalog)?);
            let (l, r, kept) = distribute(left, right, condition.clone(), catalog)?;
            Ok(l.join(r, kept))
        }
        RaExpr::SemiJoin { left, right, condition } => {
            let (left, right) = (pushdown(left, catalog)?, pushdown(right, catalog)?);
            let (r, kept) = push_inner_only(&left, right, condition, catalog)?;
            Ok(left.semi_join(r, kept))
        }
        RaExpr::AntiJoin { left, right, condition } => {
            let (left, right) = (pushdown(left, catalog)?, pushdown(right, catalog)?);
            let (r, kept) = push_inner_only(&left, right, condition, catalog)?;
            Ok(left.anti_join(r, kept))
        }
        other => other.map_children(&mut |c| pushdown(c, catalog)),
    }
}

/// Push one selection into an (already pushed-down) input expression.
fn push_select(input: RaExpr, condition: Condition, catalog: &dyn Catalog) -> Result<RaExpr> {
    match input {
        // σ_θ(σ_φ(e)) = σ_{φ∧θ}(e): merge and retry on the inner input.
        RaExpr::Select { input: inner, condition: inner_cond } => {
            push_select(*inner, inner_cond.and(condition), catalog)
        }
        // σ_θ(π(e)) = π(σ_{θ'}(e)) with θ' renamed through the alias map.
        RaExpr::Project { input: inner, columns } => {
            let all_mappable =
                condition.columns().iter().all(|c| columns.iter().any(|pc| pc.output_name() == c));
            if all_mappable {
                let renamed = condition.map_columns(&mut |c| {
                    columns
                        .iter()
                        .find(|pc| pc.output_name() == c)
                        .map(|pc| pc.column.clone())
                        .unwrap_or_else(|| c.to_string())
                });
                Ok(push_select(*inner, renamed, catalog)?.project_cols(columns))
            } else {
                Ok(RaExpr::Project { input: inner, columns }.select(condition))
            }
        }
        // σ_θ(ρ(e)) = ρ(σ_{θ'}(e)) with θ' renamed back positionally.
        RaExpr::Rename { input: inner, columns } => {
            let inner_schema = output_schema(&inner, catalog).map_err(PlanError::Algebra)?;
            let all_exact = condition.columns().iter().all(|c| columns.contains(c));
            if all_exact && columns.len() == inner_schema.arity() {
                let renamed = condition.map_columns(&mut |c| {
                    columns
                        .iter()
                        .position(|n| n == c)
                        .map(|i| inner_schema.attr(i).name.clone())
                        .unwrap_or_else(|| c.to_string())
                });
                Ok(RaExpr::Rename {
                    input: Box::new(push_select(*inner, renamed, catalog)?),
                    columns,
                })
            } else {
                Ok(RaExpr::Rename { input: inner, columns }.select(condition))
            }
        }
        // σ_θ(l ⋈_φ r): distribute single-side conjuncts, fold the rest into
        // the join condition.
        RaExpr::Join { left, right, condition: join_cond } => {
            let (l, r, merged) = distribute(*left, *right, join_cond.and(condition), catalog)?;
            Ok(l.join(r, merged))
        }
        // σ_θ(l × r): like a join with condition TRUE; if mixed conjuncts
        // remain the product becomes a theta-join.
        RaExpr::Product { left, right } => {
            let (l, r, merged) = distribute(*left, *right, condition, catalog)?;
            Ok(match merged {
                Condition::True => l.product(r),
                mixed => l.join(r, mixed),
            })
        }
        // The output schema of an (anti-)semijoin is the left schema, so the
        // whole selection moves onto the preserved side.
        RaExpr::SemiJoin { left, right, condition: jc } => {
            Ok(push_select(*left, condition, catalog)?.semi_join(*right, jc))
        }
        RaExpr::AntiJoin { left, right, condition: jc } => {
            Ok(push_select(*left, condition, catalog)?.anti_join(*right, jc))
        }
        RaExpr::UnifySemiJoin { left, right } => {
            Ok(push_select(*left, condition, catalog)?.unify_semi_join(*right))
        }
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            Ok(push_select(*left, condition, catalog)?.unify_anti_join(*right))
        }
        // σ(l ∪ r) = σ(l) ∪ σ(r). Union semantics are positional and the
        // union's output schema is the *left* one, so pushing into the right
        // branch is only sound when every condition column resolves to the
        // same position in both branch schemas (set operands need only be
        // union-compatible, not name-identical — a same-named column at a
        // different position would silently change results).
        RaExpr::Union { left, right } => {
            let l_schema = output_schema(&left, catalog).map_err(PlanError::Algebra)?;
            let r_schema = output_schema(&right, catalog).map_err(PlanError::Algebra)?;
            if resolves_positionally(&condition, &l_schema, &r_schema) {
                Ok(push_select(*left, condition.clone(), catalog)?
                    .union(push_select(*right, condition, catalog)?))
            } else {
                Ok(RaExpr::Union { left, right }.select(condition))
            }
        }
        // σ(l ∩ r) = σ(l) ∩ r and σ(l − r) = σ(l) − r.
        RaExpr::Intersect { left, right } => {
            Ok(push_select(*left, condition, catalog)?.intersect(*right))
        }
        RaExpr::Difference { left, right } => {
            Ok(push_select(*left, condition, catalog)?.difference(*right))
        }
        // σ(δ(e)) = δ(σ(e)).
        RaExpr::Distinct { input: inner } => {
            Ok(push_select(*inner, condition, catalog)?.distinct())
        }
        // Leaves and aggregates: the selection stays where it is.
        other => Ok(other.select(condition)),
    }
}

/// The schemas of the two inputs of a join.
fn schemas_of(left: &RaExpr, right: &RaExpr, catalog: &dyn Catalog) -> Result<(Schema, Schema)> {
    let l_schema = output_schema(left, catalog).map_err(PlanError::Algebra)?;
    let r_schema = output_schema(right, catalog).map_err(PlanError::Algebra)?;
    Ok((l_schema, r_schema))
}

/// Distribute the conjuncts of a join condition: conjuncts that read only
/// one side become selections on that side, the rest stays in the join.
fn distribute(
    left: RaExpr,
    right: RaExpr,
    condition: Condition,
    catalog: &dyn Catalog,
) -> Result<(RaExpr, RaExpr, Condition)> {
    let (l_schema, r_schema) = schemas_of(&left, &right, catalog)?;
    let sides = JoinSides::new(&l_schema, &r_schema);
    let mut left_only = Condition::True;
    let mut right_only = Condition::True;
    let mut keep = Condition::True;
    for conjunct in condition.conjuncts() {
        // A column-free conjunct (constants, scalar subqueries) is kept in
        // the join: it is cheap anyway, and moving it would not help.
        match sides.only_side(&conjunct) {
            Some(Side::Left) => left_only = left_only.and(conjunct),
            Some(Side::Right) => right_only = right_only.and(conjunct),
            None => keep = keep.and(conjunct),
        }
    }
    let l = match left_only {
        Condition::True => left,
        c => push_select(left, c, catalog)?,
    };
    let r = match right_only {
        Condition::True => right,
        c => push_select(right, c, catalog)?,
    };
    Ok((l, r, keep))
}

/// Move the conjuncts of an (anti-)semijoin condition that read only the
/// inner (right) input into a selection on it; returns the new inner input
/// and the condition that remains. Only a *correlated* condition is touched:
/// when no conjunct reads the preserved side the physical planner
/// short-circuits the whole node on the condition as it stands, so it is
/// returned unchanged — as is a condition with nothing to move.
fn push_inner_only(
    left: &RaExpr,
    right: RaExpr,
    condition: &Condition,
    catalog: &dyn Catalog,
) -> Result<(RaExpr, Condition)> {
    let (l_schema, r_schema) = schemas_of(left, &right, catalog)?;
    let sides = JoinSides::new(&l_schema, &r_schema);
    let (inner_only, kept): (Vec<Condition>, Vec<Condition>) = condition
        .conjuncts()
        .into_iter()
        .partition(|conjunct| sides.only_side(conjunct) == Some(Side::Right));
    let reads_left =
        |c: &Condition| c.columns().iter().any(|n| sides.side_of(n) == Some(Side::Left));
    if inner_only.is_empty() || !kept.iter().any(reads_left) {
        return Ok((right, condition.clone()));
    }
    let right = push_select(right, Condition::and_all(inner_only), catalog)?;
    Ok((right, Condition::and_all(kept)))
}

/// Whether every column of the condition resolves in both schemas *at the
/// same position* (required for pushing through positional set operations).
fn resolves_positionally(condition: &Condition, left: &Schema, right: &Schema) -> bool {
    condition.columns().iter().all(|c| match (left.position_of(c), right.position_of(c)) {
        (Ok(l), Ok(r)) => l == r,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, eq_const, gt, is_null, neq};
    use certus_algebra::eval::eval;
    use certus_algebra::NullSemantics;
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Null(NullId(1))],
                    vec![Value::Int(3), Value::Int(30)],
                ],
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["c", "d"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Null(NullId(2)), Value::Int(30)],
                ],
            ),
        );
        db
    }

    fn assert_equivalent(before: &RaExpr, after: &RaExpr, db: &Database) {
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let a = eval(before, db, semantics).unwrap().sorted();
            let b = eval(after, db, semantics).unwrap().sorted();
            assert_eq!(a.tuples(), b.tuples(), "{before} vs {after}");
        }
    }

    #[test]
    fn select_over_product_becomes_a_join_with_side_filters() {
        let db = db();
        let q = RaExpr::relation("r")
            .product(RaExpr::relation("s"))
            .select(eq("a", "c").and(eq_const("b", 10i64)).and(neq("d", "d")));
        let out = pushdown(&q, &db).unwrap();
        // The mixed conjunct a = c lands in a Join node; b = 10 moved left,
        // d <> d moved right.
        match &out {
            RaExpr::Join { left, right, condition } => {
                assert_eq!(condition, &eq("a", "c"));
                assert!(matches!(**left, RaExpr::Select { .. }));
                assert!(matches!(**right, RaExpr::Select { .. }));
            }
            other => panic!("expected Join, got {other}"),
        }
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn select_merges_into_join_condition() {
        let db = db();
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(is_null("d").or(eq("b", "d")));
        let out = pushdown(&q, &db).unwrap();
        match &out {
            RaExpr::Join { condition, .. } => {
                assert_eq!(*condition, eq("a", "c").and(is_null("d").or(eq("b", "d"))));
            }
            other => panic!("expected Join, got {other}"),
        }
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn select_pushes_through_projection_aliases() {
        let db = db();
        use certus_algebra::expr::ProjCol;
        let q = RaExpr::relation("r")
            .project_cols(vec![ProjCol::aliased("a", "x"), ProjCol::named("b")])
            .select(eq_const("x", 2i64));
        let out = pushdown(&q, &db).unwrap();
        match &out {
            RaExpr::Project { input, .. } => {
                assert!(matches!(**input, RaExpr::Select { .. }), "selection moved below: {out}");
            }
            other => panic!("expected Project on top, got {other}"),
        }
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn select_pushes_into_set_operations_and_semijoins() {
        let db = db();
        let union = RaExpr::relation("r")
            .project(&["a"])
            .union(RaExpr::relation("s").project(&["c"]).rename(&["a"]))
            .select(eq_const("a", 1i64));
        let out = pushdown(&union, &db).unwrap();
        assert!(matches!(out, RaExpr::Union { .. }), "selection distributed: {out}");
        assert_equivalent(&union, &out, &db);

        let diff = RaExpr::relation("r")
            .difference(RaExpr::relation("s").rename(&["a", "b"]))
            .select(eq_const("a", 1i64));
        let out = pushdown(&diff, &db).unwrap();
        assert!(matches!(out, RaExpr::Difference { .. }));
        assert_equivalent(&diff, &out, &db);

        let semi = RaExpr::relation("r")
            .semi_join(RaExpr::relation("s"), eq("a", "c"))
            .select(eq_const("b", 10i64));
        let out = pushdown(&semi, &db).unwrap();
        match &out {
            RaExpr::SemiJoin { left, .. } => assert!(matches!(**left, RaExpr::Select { .. })),
            other => panic!("expected SemiJoin, got {other}"),
        }
        assert_equivalent(&semi, &out, &db);
    }

    #[test]
    fn union_with_unresolvable_right_side_is_left_alone() {
        let db = db();
        // Right branch's schema has columns c/d — "a" does not resolve.
        let q = RaExpr::relation("r")
            .project(&["a"])
            .union(RaExpr::relation("s").project(&["c"]))
            .select(eq_const("a", 1i64));
        let out = pushdown(&q, &db).unwrap();
        assert!(matches!(out, RaExpr::Select { .. }), "must not push: {out}");
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn union_with_positionally_misaligned_names_is_left_alone() {
        // Regression: union alignment is positional, so a right branch whose
        // same-named column sits at a *different* position must not receive
        // the selection. Here rename(s, ["b", "a"]) puts "a" at position 1,
        // while the union's output schema (r's) has it at position 0: tuple
        // (9, 1) has a = 9 through the union but a = 1 inside the branch.
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db.insert_relation("s", rel(&["c", "d"], vec![vec![Value::Int(9), Value::Int(1)]]));
        let q = RaExpr::relation("r")
            .union(RaExpr::relation("s").rename(&["b", "a"]))
            .select(eq_const("a", 1i64));
        let out = pushdown(&q, &db).unwrap();
        assert!(matches!(out, RaExpr::Select { .. }), "must not push: {out}");
        assert_equivalent(&q, &out, &db);
        // Aligned names at matching positions still push.
        let aligned = RaExpr::relation("r")
            .union(RaExpr::relation("s").rename(&["a", "b"]))
            .select(eq_const("a", 1i64));
        let out = pushdown(&aligned, &db).unwrap();
        assert!(matches!(out, RaExpr::Union { .. }), "should push: {out}");
        assert_equivalent(&aligned, &out, &db);
    }

    #[test]
    fn a_joins_own_single_side_conjuncts_become_selections() {
        let db = db();
        // No selection above the join: its own conjuncts are redistributed.
        let q = RaExpr::relation("r").join(
            RaExpr::relation("s"),
            eq("a", "c").or(is_null("a")).and(eq_const("d", 10i64).or(is_null("d"))),
        );
        let out = pushdown(&q, &db).unwrap();
        match &out {
            RaExpr::Join { left, right, condition } => {
                assert_eq!(condition, &eq("a", "c").or(is_null("a")));
                assert_eq!(**left, RaExpr::relation("r"));
                assert_eq!(
                    **right,
                    RaExpr::relation("s").select(eq_const("d", 10i64).or(is_null("d")))
                );
            }
            other => panic!("expected Join, got {other}"),
        }
        assert_equivalent(&q, &out, &db);
        assert_eq!(pushdown(&out, &db).unwrap(), out);
    }

    #[test]
    fn semijoin_conjuncts_on_the_inner_side_become_a_selection_on_it() {
        let db = db();
        let cond = eq("a", "c").and(eq_const("d", 10i64).or(is_null("d"))).and(neq("b", "d"));
        for anti in [false, true] {
            let make = |l: RaExpr, r: RaExpr, c: Condition| {
                if anti {
                    l.anti_join(r, c)
                } else {
                    l.semi_join(r, c)
                }
            };
            let q = make(RaExpr::relation("r"), RaExpr::relation("s"), cond.clone());
            let out = pushdown(&q, &db).unwrap();
            let expected = make(
                RaExpr::relation("r"),
                RaExpr::relation("s").select(eq_const("d", 10i64).or(is_null("d"))),
                eq("a", "c").and(neq("b", "d")),
            );
            assert_eq!(out, expected);
            assert_equivalent(&q, &out, &db);
            assert_eq!(pushdown(&out, &db).unwrap(), out);
            // A conjunct on the preserved side alone stays: for an anti-join
            // it is not a selection on that side.
            let q = make(
                RaExpr::relation("r"),
                RaExpr::relation("s"),
                eq("a", "c").and(eq_const("b", 10i64)),
            );
            assert_eq!(pushdown(&q, &db).unwrap(), q);
            // A decorrelated condition is the planner's short-circuit: it is
            // left exactly as it is, however many conjuncts it has.
            let q = make(
                RaExpr::relation("r"),
                RaExpr::relation("s"),
                is_null("c").and(eq_const("d", 30i64)),
            );
            assert_eq!(pushdown(&q, &db).unwrap(), q);
        }
    }

    #[test]
    fn a_conjunct_on_an_aliased_twin_goes_to_the_twin() {
        // Q1⁺'s shape: `l3.a > l3.b` beside `l1`. Each name also resolves in
        // the other alias's schema through its base name, so asking the two
        // schemas separately finds the conjunct on both sides and moves it
        // nowhere.
        let db = db();
        let l1 = || RaExpr::relation_as("r", "l1");
        let l3 = || RaExpr::relation_as("r", "l3");
        let own = gt("l3.a", "l3.b").or(is_null("l3.b"));
        let q = l1().anti_join(l3(), eq("l3.a", "l1.a").and(own.clone()));
        let out = pushdown(&q, &db).unwrap();
        assert_eq!(out, l1().anti_join(l3().select(own.clone()), eq("l3.a", "l1.a")));
        assert_equivalent(&q, &out, &db);
        let q = l1().join(l3(), eq("l3.a", "l1.a").and(own.clone()).and(is_null("l1.b")));
        let out = pushdown(&q, &db).unwrap();
        assert_eq!(out, l1().select(is_null("l1.b")).join(l3().select(own), eq("l3.a", "l1.a")));
        assert_equivalent(&q, &out, &db);
    }

    #[test]
    fn pushdown_is_idempotent() {
        let db = db();
        let q = RaExpr::relation("r")
            .product(RaExpr::relation("s"))
            .select(eq("a", "c").and(eq_const("b", 10i64)));
        let once = pushdown(&q, &db).unwrap();
        let twice = pushdown(&once, &db).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn no_op_on_queries_without_selections() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")).project(&["a"]);
        assert_eq!(pushdown(&q, &db).unwrap(), q);
    }
}
