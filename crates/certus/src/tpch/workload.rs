//! Workload assembly: complete instance generation + null injection + query
//! parameterisation, matching the experimental setup of Sections 3–4 and 7.

use crate::data::inject::NullInjector;
use crate::data::Database;
use crate::tpch::dbgen::DbGen;
use crate::tpch::params::QueryParams;

/// A reproducible experimental workload: a TPC-H instance at a given scale
/// factor with nulls injected at a given rate.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Scale factor of the generated instance (see [`DbGen`]).
    pub scale_factor: f64,
    /// Null rate in `[0, 1]` (the paper sweeps 0.5%–10%).
    pub null_rate: f64,
    /// Seed controlling both data generation and null injection.
    pub seed: u64,
}

impl Workload {
    /// Create a workload description.
    pub fn new(scale_factor: f64, null_rate: f64, seed: u64) -> Self {
        Workload { scale_factor, null_rate, seed }
    }

    /// Generate the complete (null-free) instance.
    pub fn complete_instance(&self) -> Database {
        DbGen::new(self.scale_factor, self.seed).generate()
    }

    /// Generate the incomplete instance (nulls injected into nullable columns
    /// at the configured rate).
    pub fn incomplete_instance(&self) -> Database {
        let complete = self.complete_instance();
        if self.null_rate == 0.0 {
            return complete;
        }
        NullInjector::new(self.null_rate, self.seed.wrapping_mul(31).wrapping_add(7))
            .inject(&complete)
    }

    /// Draw the `i`-th random parameterisation for this workload.
    pub fn params(&self, db: &Database, i: u64) -> QueryParams {
        QueryParams::random(db, self.seed.wrapping_mul(1000).wrapping_add(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_instance_has_roughly_the_requested_null_rate() {
        let w = Workload::new(0.001, 0.05, 3);
        let db = w.incomplete_instance();
        let rate = NullInjector::observed_rate(&db);
        assert!((rate - 0.05).abs() < 0.02, "observed {rate}");
        db.validate().unwrap();
    }

    #[test]
    fn zero_null_rate_yields_complete_instance() {
        let w = Workload::new(0.0005, 0.0, 3);
        assert!(w.incomplete_instance().active_domain().nulls.is_empty());
    }

    #[test]
    fn params_differ_per_index_but_are_reproducible() {
        let w = Workload::new(0.0005, 0.02, 3);
        let db = w.complete_instance();
        let a = w.params(&db, 0);
        let b = w.params(&db, 1);
        let a2 = w.params(&db, 0);
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }
}
