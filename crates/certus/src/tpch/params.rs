//! Random query parameters (`$nation`, `$countries`, `$supp_key`, `$color`).

use crate::data::Database;
use crate::tpch::text::{NATIONS, PART_NAME_WORDS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A concrete instantiation of the parameters of queries Q1–Q4, chosen as in
/// Section 3 of the paper: `$nation` is a random nation name, `$countries` a
/// list of 7 distinct nation keys, `$supp_key` a random supplier key and
/// `$color` a random word from the 92-entry part-name pool.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParams {
    /// Nation name for Q1 and Q4.
    pub nation: String,
    /// Seven distinct nation keys for Q2.
    pub countries: Vec<i64>,
    /// Supplier key for Q3.
    pub supp_key: i64,
    /// Part-name word for Q4.
    pub color: String,
}

impl QueryParams {
    /// Draw random parameters, using the database only to learn the number of
    /// suppliers (so `$supp_key` is an existing key).
    pub fn random(db: &Database, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let nation = NATIONS[rng.gen_range(0..NATIONS.len())].0.to_string();
        let mut keys: Vec<i64> = (0..NATIONS.len() as i64).collect();
        keys.shuffle(&mut rng);
        let countries = keys.into_iter().take(7).collect();
        let n_supp = db.relation("supplier").map(|r| r.len()).unwrap_or(1).max(1) as i64;
        let supp_key = rng.gen_range(1..=n_supp);
        let color = PART_NAME_WORDS[rng.gen_range(0..PART_NAME_WORDS.len())].to_string();
        QueryParams { nation, countries, supp_key, color }
    }

    /// Fixed parameters used by deterministic unit tests.
    pub fn fixed() -> Self {
        QueryParams {
            nation: "FRANCE".to_string(),
            countries: vec![0, 3, 6, 8, 12, 20, 24],
            supp_key: 1,
            color: "red".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::dbgen::DbGen;

    #[test]
    fn random_params_are_valid_and_deterministic() {
        let db = DbGen::new(0.0005, 1).generate();
        let a = QueryParams::random(&db, 7);
        let b = QueryParams::random(&db, 7);
        assert_eq!(a, b);
        assert_eq!(a.countries.len(), 7);
        let unique: std::collections::HashSet<_> = a.countries.iter().collect();
        assert_eq!(unique.len(), 7);
        assert!(NATIONS.iter().any(|(n, _)| *n == a.nation));
        assert!(PART_NAME_WORDS.contains(&a.color.as_str()));
        let n_supp = db.relation("supplier").unwrap().len() as i64;
        assert!(a.supp_key >= 1 && a.supp_key <= n_supp);
    }

    #[test]
    fn different_seeds_differ() {
        let db = DbGen::new(0.0005, 1).generate();
        let a = QueryParams::random(&db, 1);
        let b = QueryParams::random(&db, 2);
        assert_ne!(a, b);
    }
}
