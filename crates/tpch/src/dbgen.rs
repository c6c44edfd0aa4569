//! A deterministic, scaled-down `DBGen`-style instance generator.
//!
//! TPC-H cardinalities at scale factor `sf`:
//! `supplier = 10 000·sf`, `part = 200 000·sf`, `customer = 150 000·sf`,
//! `orders = 1 500 000·sf`, `lineitem ≈ 4·orders`, `partsupp = 800 000·sf`.
//! The paper's smallest instance is 1 GB (`sf = 1`, ~9·10⁶ tuples); our
//! engine is in-memory and single-node, so the benchmarks use milli-scale
//! factors (0.001–0.02) and, as in the paper, report *relative* measures
//! that do not depend on absolute size.

use crate::text::{NATIONS, ORDER_STATUS, PART_NAME_WORDS, REGIONS};
use certus_data::value::days_from_date;
use certus_data::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic TPC-H-like data generator.
#[derive(Debug, Clone)]
pub struct DbGen {
    /// Scale factor: 1.0 corresponds to 10 000 suppliers / 1.5 M orders.
    pub scale_factor: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl DbGen {
    /// Create a generator.
    pub fn new(scale_factor: f64, seed: u64) -> Self {
        assert!(scale_factor > 0.0, "scale factor must be positive");
        DbGen { scale_factor, seed }
    }

    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }

    /// Number of rows per table at this scale factor.
    pub fn cardinalities(&self) -> Cardinalities {
        Cardinalities {
            supplier: self.scaled(10_000),
            part: self.scaled(200_000),
            customer: self.scaled(150_000),
            orders: self.scaled(1_500_000),
            partsupp: self.scaled(800_000),
        }
    }

    /// Generate a complete (null-free) database.
    pub fn generate(&self) -> Database {
        let mut db = crate::schema::tpch_catalog();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let card = self.cardinalities();

        // Strings load through the database's interner: the repeated values
        // (region/nation names, order statuses) share one allocation each,
        // and even the unique supplier/customer/part names get pool ids so
        // string columns stay fully interned for the columnar layer.
        // region
        for (i, name) in REGIONS.iter().enumerate() {
            let name = db.intern_str(name);
            db.relation_mut("region")
                .expect("table exists")
                .insert_values([Value::Int(i as i64), name])
                .expect("arity");
        }
        // nation
        for (i, (name, region)) in NATIONS.iter().enumerate() {
            let name = db.intern_str(name);
            db.relation_mut("nation")
                .expect("table exists")
                .insert_values([Value::Int(i as i64), name, Value::Int(*region as i64)])
                .expect("arity");
        }
        // supplier
        for i in 1..=card.supplier {
            let name = db.intern_str(&format!("Supplier#{i:09}"));
            db.relation_mut("supplier")
                .expect("table exists")
                .insert_values([
                    Value::Int(i as i64),
                    name,
                    Value::Int(rng.gen_range(0..25)),
                    Value::Decimal(rng.gen_range(-99_999..999_999)),
                ])
                .expect("arity");
        }
        // customer
        for i in 1..=card.customer {
            let name = db.intern_str(&format!("Customer#{i:09}"));
            db.relation_mut("customer")
                .expect("table exists")
                .insert_values([
                    Value::Int(i as i64),
                    name,
                    Value::Int(rng.gen_range(0..25)),
                    Value::Decimal(rng.gen_range(-99_999..999_999)),
                ])
                .expect("arity");
        }
        // part
        for i in 1..=card.part {
            let name = db.intern_str(&Self::part_name(&mut rng));
            db.relation_mut("part")
                .expect("table exists")
                .insert_values([
                    Value::Int(i as i64),
                    name,
                    Value::Decimal(rng.gen_range(90_000..200_000)),
                ])
                .expect("arity");
        }
        // partsupp: each part is offered by (up to) four distinct suppliers,
        // as in TPC-H. Supplier choices are spread deterministically and
        // deduplicated so the (ps_partkey, ps_suppkey) key holds.
        for partkey in 1..=card.part {
            let mut seen = std::collections::HashSet::new();
            for j in 0..4u64 {
                let suppkey = ((partkey * 7 + j * 13) % card.supplier) + 1;
                if !seen.insert(suppkey) {
                    continue;
                }
                db.relation_mut("partsupp")
                    .expect("table exists")
                    .insert_values([
                        Value::Int(partkey as i64),
                        Value::Int(suppkey as i64),
                        Value::Decimal(rng.gen_range(100..100_000)),
                    ])
                    .expect("arity");
            }
        }
        // orders & lineitem
        let start = days_from_date(1992, 1, 1);
        let end = days_from_date(1998, 8, 2);
        for o in 1..=card.orders {
            let custkey = rng.gen_range(1..=card.customer) as i64;
            let orderdate = rng.gen_range(start..end);
            let status = db.intern_str(ORDER_STATUS[rng.gen_range(0..ORDER_STATUS.len())]);
            db.relation_mut("orders")
                .expect("table exists")
                .insert_values([
                    Value::Int(o as i64),
                    Value::Int(custkey),
                    status,
                    Value::Date(orderdate),
                    Value::Decimal(rng.gen_range(100_000..50_000_000)),
                ])
                .expect("arity");
            let lines = rng.gen_range(1..=7u32);
            for ln in 1..=lines {
                let shipdate = orderdate + rng.gen_range(1..=121);
                let commitdate = orderdate + rng.gen_range(30..=90);
                let receiptdate = shipdate + rng.gen_range(1..=30);
                db.relation_mut("lineitem")
                    .expect("table exists")
                    .insert_values([
                        Value::Int(o as i64),
                        Value::Int(ln as i64),
                        Value::Int(rng.gen_range(1..=card.part) as i64),
                        Value::Int(rng.gen_range(1..=card.supplier) as i64),
                        Value::Int(rng.gen_range(1..=50)),
                        Value::Decimal(rng.gen_range(90_000..10_000_000)),
                        Value::Date(shipdate),
                        Value::Date(commitdate),
                        Value::Date(receiptdate),
                    ])
                    .expect("arity");
            }
        }
        db
    }

    fn part_name(rng: &mut StdRng) -> String {
        let mut words = Vec::with_capacity(5);
        while words.len() < 5 {
            let w = PART_NAME_WORDS[rng.gen_range(0..PART_NAME_WORDS.len())];
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words.join(" ")
    }
}

/// Row counts per table at a given scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinalities {
    /// Rows in `supplier`.
    pub supplier: u64,
    /// Rows in `part`.
    pub part: u64,
    /// Rows in `customer`.
    pub customer: u64,
    /// Rows in `orders`.
    pub orders: u64,
    /// Rows in `partsupp`.
    pub partsupp: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let g = DbGen::new(0.001, 1);
        let c = g.cardinalities();
        assert_eq!(c.supplier, 10);
        assert_eq!(c.customer, 150);
        assert_eq!(c.orders, 1500);
        assert_eq!(c.part, 200);
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let g = DbGen::new(0.0005, 42);
        let a = g.generate();
        let b = g.generate();
        assert_eq!(a.total_tuples(), b.total_tuples());
        assert!(a.is_complete());
        a.validate().unwrap();
        assert_eq!(a.relation("region").unwrap().len(), 5);
        assert_eq!(a.relation("nation").unwrap().len(), 25);
        // lineitem has between 1x and 7x the orders rows
        let orders = a.relation("orders").unwrap().len();
        let lineitem = a.relation("lineitem").unwrap().len();
        assert!(lineitem >= orders && lineitem <= orders * 7);
    }

    #[test]
    fn foreign_keys_stay_in_range() {
        let g = DbGen::new(0.0005, 7);
        let db = g.generate();
        let nsupp = db.relation("supplier").unwrap().len() as i64;
        for t in db.relation("lineitem").unwrap().iter() {
            let suppkey = t[3].as_i64().unwrap();
            assert!(suppkey >= 1 && suppkey <= nsupp);
        }
        let ncust = db.relation("customer").unwrap().len() as i64;
        for t in db.relation("orders").unwrap().iter() {
            let ck = t[1].as_i64().unwrap();
            assert!(ck >= 1 && ck <= ncust);
        }
    }

    #[test]
    fn repeated_strings_share_one_allocation() {
        let db = DbGen::new(0.0005, 11).generate();
        // Every order-status string is one of three pool entries; two rows
        // with the same status share the same Arc.
        let orders = db.relation("orders").unwrap();
        let mut by_status: std::collections::HashMap<&str, &certus_data::Value> =
            std::collections::HashMap::new();
        for t in orders.iter() {
            let v = &t[2];
            let s = v.as_str().unwrap();
            match by_status.get(s) {
                Some(first) => match (first, v) {
                    (certus_data::Value::Str(a), certus_data::Value::Str(b)) => {
                        assert!(std::sync::Arc::ptr_eq(a, b), "status {s} re-allocated")
                    }
                    _ => unreachable!(),
                },
                None => {
                    by_status.insert(s, v);
                }
            }
        }
        // The pool holds every distinct string of the instance.
        assert!(db.str_pool().lookup("AFRICA").is_some());
        assert!(db.str_pool().len() > 5);
    }

    #[test]
    fn part_names_use_word_pool() {
        let g = DbGen::new(0.0005, 3);
        let db = g.generate();
        for t in db.relation("part").unwrap().iter() {
            let name = t[1].as_str().unwrap();
            assert_eq!(name.split(' ').count(), 5);
            for w in name.split(' ') {
                assert!(PART_NAME_WORDS.contains(&w));
            }
        }
    }

    #[test]
    fn dates_are_ordered_sensibly() {
        let g = DbGen::new(0.0005, 9);
        let db = g.generate();
        for t in db.relation("lineitem").unwrap().iter() {
            let ship = t[6].as_date().unwrap();
            let receipt = t[8].as_date().unwrap();
            assert!(receipt > ship);
        }
    }
}
