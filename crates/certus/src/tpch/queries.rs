//! The paper's four test queries (Section 3) as relational algebra
//! expressions.
//!
//! The SQL→algebra translation follows the standard scheme the paper uses
//! (Van den Bussche & Vansummeren): `FROM` lists become joins, `EXISTS` /
//! `NOT EXISTS` correlated subqueries become semijoins / anti-joins whose
//! condition is the correlation predicate, and uncorrelated predicates of the
//! subquery are pushed into its operand. The aggregate subquery of Q2 is kept
//! as a black-box scalar operand, exactly as the paper treats it.

use crate::algebra::builder::{col, eq, eq_const, gt, in_list, like, neq, neq_const};
use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::{AggExpr, AggFunc, RaExpr};
use crate::data::compare::CmpOp;
use crate::data::Value;
use crate::tpch::params::QueryParams;

/// Query Q1 (TPC-H query 21 without aggregation): suppliers from `$nation`
/// who were the only supplier failing the committed delivery date on a
/// finalized multi-supplier order.
pub fn q1(params: &QueryParams) -> RaExpr {
    let base = RaExpr::relation("supplier")
        .join(RaExpr::relation_as("lineitem", "l1"), eq("s_suppkey", "l1.l_suppkey"))
        .join(RaExpr::relation("orders"), eq("o_orderkey", "l1.l_orderkey"))
        .join(RaExpr::relation("nation"), eq("s_nationkey", "n_nationkey"))
        .select(
            eq_const("o_orderstatus", "F")
                .and(gt("l1.l_receiptdate", "l1.l_commitdate"))
                .and(eq_const("n_name", params.nation.as_str())),
        );
    let exists = base.semi_join(
        RaExpr::relation_as("lineitem", "l2"),
        eq("l2.l_orderkey", "l1.l_orderkey").and(neq("l2.l_suppkey", "l1.l_suppkey")),
    );
    let not_exists = exists.anti_join(
        RaExpr::relation_as("lineitem", "l3"),
        eq("l3.l_orderkey", "l1.l_orderkey")
            .and(neq("l3.l_suppkey", "l1.l_suppkey"))
            .and(gt("l3.l_receiptdate", "l3.l_commitdate")),
    );
    not_exists.project(&["s_suppkey", "o_orderkey"])
}

/// Query Q2 (TPC-H query 22 without aggregation): customers from the given
/// countries with an above-average positive account balance and no orders.
pub fn q2(params: &QueryParams) -> RaExpr {
    let countries: Vec<Value> = params.countries.iter().map(|&c| Value::Int(c)).collect();
    let avg_subquery = RaExpr::relation_as("customer", "c2")
        .select(
            Condition::Cmp {
                left: col("c2.c_acctbal"),
                op: CmpOp::Gt,
                right: Operand::Const(Value::Decimal(0)),
            }
            .and(in_list("c2.c_nationkey", countries.clone())),
        )
        .aggregate(&[], vec![AggExpr::new(AggFunc::Avg, "c2.c_acctbal", "avg_bal")]);
    RaExpr::relation("customer")
        .select(in_list("c_nationkey", countries).and(Condition::Cmp {
            left: col("c_acctbal"),
            op: CmpOp::Gt,
            right: Operand::Scalar(Box::new(avg_subquery)),
        }))
        .anti_join(RaExpr::relation("orders"), eq("o_custkey", "c_custkey"))
        .project(&["c_custkey", "c_nationkey"])
}

/// Query Q3 (textbook): orders supplied entirely by supplier `$supp_key`.
pub fn q3(params: &QueryParams) -> RaExpr {
    RaExpr::relation("orders")
        .anti_join(
            RaExpr::relation("lineitem").select(neq_const("l_suppkey", params.supp_key)),
            eq("l_orderkey", "o_orderkey"),
        )
        .project(&["o_orderkey"])
}

/// Query Q4 (textbook): orders not supplied with any part of colour `$color`
/// by any supplier from `$nation`.
pub fn q4(params: &QueryParams) -> RaExpr {
    let pattern = format!("%{}%", params.color);
    let inner = RaExpr::relation("lineitem")
        .join(RaExpr::relation("part"), eq("l_partkey", "p_partkey").and(like("p_name", pattern)))
        .join(RaExpr::relation("supplier"), eq("l_suppkey", "s_suppkey"))
        .join(
            RaExpr::relation("nation"),
            eq("s_nationkey", "n_nationkey").and(eq_const("n_name", params.nation.as_str())),
        );
    RaExpr::relation("orders")
        .anti_join(inner, eq("l_orderkey", "o_orderkey"))
        .project(&["o_orderkey"])
}

/// Look a query up by its number (1–4).
pub fn query_by_number(n: usize, params: &QueryParams) -> Option<RaExpr> {
    match n {
        1 => Some(q1(params)),
        2 => Some(q2(params)),
        3 => Some(q3(params)),
        4 => Some(q4(params)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval::eval;
    use crate::algebra::schema_infer::output_schema;
    use crate::algebra::NullSemantics;
    use crate::core::{translate_plus, ConditionDialect};
    use crate::tpch::dbgen::DbGen;

    fn db() -> crate::data::Database {
        DbGen::new(0.0004, 11).generate()
    }

    #[test]
    fn all_queries_typecheck_against_the_catalog() {
        let db = db();
        let params = QueryParams::fixed();
        for n in 1..=4 {
            let q = query_by_number(n, &params).unwrap();
            let schema = output_schema(&q, &db).unwrap();
            match n {
                1 => assert_eq!(schema.names(), vec!["s_suppkey", "o_orderkey"]),
                2 => assert_eq!(schema.names(), vec!["c_custkey", "c_nationkey"]),
                _ => assert_eq!(schema.names(), vec!["o_orderkey"]),
            }
        }
        assert!(query_by_number(5, &params).is_none());
    }

    #[test]
    fn queries_evaluate_on_complete_instances() {
        let db = db();
        let params = QueryParams::random(&db, 3);
        for n in 1..=4 {
            let q = query_by_number(n, &params).unwrap();
            let out = eval(&q, &db, NullSemantics::Sql).unwrap();
            // On a complete instance the result is a set of ground tuples.
            assert!(out.iter().all(|t| t.is_ground()), "query {n}");
        }
    }

    #[test]
    fn q3_returns_orders_fully_supplied_by_the_supplier() {
        let db = db();
        let params = QueryParams { supp_key: 1, ..QueryParams::fixed() };
        let out = eval(&q3(&params), &db, NullSemantics::Sql).unwrap();
        // Manual check against the data.
        let lineitem = db.relation("lineitem").unwrap();
        let orders = db.relation("orders").unwrap();
        let expected: Vec<i64> = orders
            .iter()
            .map(|o| o[0].as_i64().unwrap())
            .filter(|&ok| {
                lineitem
                    .iter()
                    .filter(|l| l[0].as_i64().unwrap() == ok)
                    .all(|l| l[3].as_i64().unwrap() == 1)
            })
            .collect();
        assert_eq!(out.len(), expected.len());
    }

    #[test]
    fn queries_translate_and_remain_equivalent_on_complete_data() {
        // On databases without nulls, Q and Q+ produce the same results.
        let db = db();
        let params = QueryParams::random(&db, 5);
        for n in 1..=4 {
            let q = query_by_number(n, &params).unwrap();
            let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
            let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
            let b = eval(&plus, &db, NullSemantics::Sql).unwrap().sorted();
            assert_eq!(a.tuples(), b.tuples(), "query {n}");
        }
    }
}
