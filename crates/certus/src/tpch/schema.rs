//! The TPC-H schema with primary keys and nullability flags.
//!
//! Only the columns used by the paper's queries (plus a handful kept for
//! realism) are materialised — TPC-H comment/address columns are omitted so
//! that scaled-down instances stay compact. Primary-key columns are declared
//! `NOT NULL`; every other column is *nullable*, which is exactly the split
//! Section 3 of the paper uses when injecting nulls.

use crate::data::database::TableDef;
use crate::data::{Attribute, Database, Schema, ValueType};

fn key(name: &str, ty: ValueType) -> Attribute {
    Attribute::not_null(name, ty)
}

fn col(name: &str, ty: ValueType) -> Attribute {
    Attribute::new(name, ty)
}

/// Build an empty database with all eight TPC-H tables registered.
pub(crate) fn tpch_catalog() -> Database {
    let mut db = Database::new();

    db.create_table(
        TableDef::new(
            "region",
            Schema::new(vec![key("r_regionkey", ValueType::Int), col("r_name", ValueType::Str)]),
        )
        .with_key(&["r_regionkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "nation",
            Schema::new(vec![
                key("n_nationkey", ValueType::Int),
                col("n_name", ValueType::Str),
                col("n_regionkey", ValueType::Int),
            ]),
        )
        .with_key(&["n_nationkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "supplier",
            Schema::new(vec![
                key("s_suppkey", ValueType::Int),
                col("s_name", ValueType::Str),
                col("s_nationkey", ValueType::Int),
                col("s_acctbal", ValueType::Decimal),
            ]),
        )
        .with_key(&["s_suppkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "customer",
            Schema::new(vec![
                key("c_custkey", ValueType::Int),
                col("c_name", ValueType::Str),
                col("c_nationkey", ValueType::Int),
                col("c_acctbal", ValueType::Decimal),
            ]),
        )
        .with_key(&["c_custkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "part",
            Schema::new(vec![
                key("p_partkey", ValueType::Int),
                col("p_name", ValueType::Str),
                col("p_retailprice", ValueType::Decimal),
            ]),
        )
        .with_key(&["p_partkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "partsupp",
            Schema::new(vec![
                key("ps_partkey", ValueType::Int),
                key("ps_suppkey", ValueType::Int),
                col("ps_supplycost", ValueType::Decimal),
            ]),
        )
        .with_key(&["ps_partkey", "ps_suppkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "orders",
            Schema::new(vec![
                key("o_orderkey", ValueType::Int),
                col("o_custkey", ValueType::Int),
                col("o_orderstatus", ValueType::Str),
                col("o_orderdate", ValueType::Date),
                col("o_totalprice", ValueType::Decimal),
            ]),
        )
        .with_key(&["o_orderkey"]),
    )
    .expect("fresh database");

    db.create_table(
        TableDef::new(
            "lineitem",
            Schema::new(vec![
                key("l_orderkey", ValueType::Int),
                key("l_linenumber", ValueType::Int),
                col("l_partkey", ValueType::Int),
                col("l_suppkey", ValueType::Int),
                col("l_quantity", ValueType::Int),
                col("l_extendedprice", ValueType::Decimal),
                col("l_shipdate", ValueType::Date),
                col("l_commitdate", ValueType::Date),
                col("l_receiptdate", ValueType::Date),
            ]),
        )
        .with_key(&["l_orderkey", "l_linenumber"]),
    )
    .expect("fresh database");

    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_all_tables() {
        let db = tpch_catalog();
        for t in
            ["customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"]
        {
            assert!(db.relation(t).is_ok(), "missing {t}");
        }
        assert_eq!(db.table_names().len(), 8);
    }

    #[test]
    fn key_columns_are_not_nullable() {
        let db = tpch_catalog();
        for def in db.table_defs() {
            for k in &def.primary_key {
                let pos = def.schema.position_of(k).unwrap();
                assert!(!def.schema.attr(pos).nullable, "{}.{} must be NOT NULL", def.name, k);
            }
        }
    }

    #[test]
    fn fp_relevant_columns_are_nullable() {
        // The false-positive detectors rely on these being nullable.
        let db = tpch_catalog();
        for (table, column) in [
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_partkey"),
            ("lineitem", "l_commitdate"),
            ("lineitem", "l_receiptdate"),
            ("orders", "o_custkey"),
            ("part", "p_name"),
            ("supplier", "s_nationkey"),
        ] {
            let def = db.table_def(table).unwrap();
            let pos = def.schema.position_of(column).unwrap();
            assert!(def.schema.attr(pos).nullable, "{table}.{column} should be nullable");
        }
    }
}
