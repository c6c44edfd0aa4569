//! Null injection: turning complete instances into incomplete ones.
//!
//! Section 3 of the paper: attributes are split into *nullable* and
//! *non-nullable* (primary keys / `NOT NULL`); for each nullable attribute of
//! each tuple a coin is flipped with probability equal to the *null rate*, and
//! on success the value is replaced by a fresh (Codd) null. The injected
//! instance then contains roughly `null rate` percent of nulls per nullable
//! column.

use crate::data::database::Database;
use crate::data::null::NullGen;
use crate::data::relation::Relation;
use crate::data::tuple::Tuple;
use crate::data::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for null injection.
#[derive(Debug, Clone)]
pub struct NullInjector {
    /// Probability in `[0, 1]` that a nullable attribute value is replaced by
    /// a null. The paper uses rates between 0.5% and 10%.
    pub null_rate: f64,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl NullInjector {
    /// Create an injector with the given null rate (0.02 = 2%) and seed.
    pub fn new(null_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&null_rate), "null rate must be in [0,1]");
        NullInjector { null_rate, seed }
    }

    /// Inject nulls into a single relation. `nullable` gives, per column,
    /// whether nulls may be injected there; it defaults to the schema's
    /// nullability flags when `None`.
    pub(crate) fn inject_relation(
        &self,
        relation: &Relation,
        nullable: Option<&[bool]>,
        gen: &NullGen,
        rng: &mut StdRng,
    ) -> Relation {
        let schema = relation.schema().clone();
        let default_nullable: Vec<bool> = schema.attrs().iter().map(|a| a.nullable).collect();
        let nullable = nullable.unwrap_or(&default_nullable);
        let tuples = relation
            .iter()
            .map(|t| {
                let values = t
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        if nullable[i] && v.is_const() && rng.gen::<f64>() < self.null_rate {
                            Value::Null(gen.fresh())
                        } else {
                            v.clone()
                        }
                    })
                    .collect();
                Tuple::new(values)
            })
            .collect();
        Relation::from_parts(schema, tuples)
    }

    /// Inject nulls into every table of a database, respecting each column's
    /// nullability flag. Returns a new database; the input is untouched.
    pub fn inject(&self, db: &Database) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let gen = NullGen::new();
        let mut out = Database::new();
        for def in db.table_defs() {
            let rel = db.relation(&def.name).expect("table listed in defs");
            let injected = self.inject_relation(rel, None, &gen, &mut rng);
            let mut new_def = def.clone();
            new_def.schema = injected.schema().clone();
            out.create_table(new_def).expect("fresh database");
            *out.relation_mut(&def.name).expect("just created") = injected;
        }
        out
    }
}

#[cfg(test)]
impl NullInjector {
    /// Observed fraction of nulls among nullable positions of the database —
    /// useful to check that injection produced roughly the requested rate.
    pub(crate) fn observed_rate(db: &Database) -> f64 {
        let mut nullable_positions = 0usize;
        let mut nulls = 0usize;
        for def in db.table_defs() {
            let rel = db.relation(&def.name).expect("table exists");
            let flags: Vec<bool> = rel.schema().attrs().iter().map(|a| a.nullable).collect();
            for t in rel.iter() {
                for (i, v) in t.values().iter().enumerate() {
                    if flags[i] {
                        nullable_positions += 1;
                        if v.is_null() {
                            nulls += 1;
                        }
                    }
                }
            }
        }
        if nullable_positions == 0 {
            0.0
        } else {
            nulls as f64 / nullable_positions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::database::TableDef;
    use crate::data::schema::{Attribute, Schema};
    use crate::data::types::ValueType;

    fn complete_db(rows: usize) -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::not_null("k", ValueType::Int),
            Attribute::new("a", ValueType::Int),
            Attribute::new("b", ValueType::Int),
        ]);
        let def = TableDef::new("t", schema).with_key(&["k"]);
        db.create_table(def).unwrap();
        for i in 0..rows {
            db.relation_mut("t")
                .unwrap()
                .insert_values(vec![
                    Value::Int(i as i64),
                    Value::Int(i as i64 * 10),
                    Value::Int(i as i64 * 100),
                ])
                .unwrap();
        }
        db
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let db = complete_db(50);
        let injected = NullInjector::new(0.0, 1).inject(&db);
        assert!(injected.active_domain().nulls.is_empty());
        assert_eq!(injected.total_tuples(), 50);
    }

    #[test]
    fn full_rate_nullifies_all_nullable() {
        let db = complete_db(20);
        let injected = NullInjector::new(1.0, 1).inject(&db);
        let rel = injected.relation("t").unwrap();
        for t in rel.iter() {
            assert!(t[0].is_const(), "key column must stay non-null");
            assert!(t[1].is_null());
            assert!(t[2].is_null());
        }
        assert!((NullInjector::observed_rate(&injected) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let db = complete_db(100);
        let a = NullInjector::new(0.3, 42).inject(&db);
        let b = NullInjector::new(0.3, 42).inject(&db);
        // Null ids are drawn from per-call generators starting at 1, so both
        // runs produce identical instances.
        assert_eq!(a.relation("t").unwrap().tuples(), b.relation("t").unwrap().tuples());
        let c = NullInjector::new(0.3, 43).inject(&db);
        assert_ne!(a.relation("t").unwrap().tuples(), c.relation("t").unwrap().tuples());
    }

    #[test]
    fn observed_rate_close_to_requested() {
        let db = complete_db(2000);
        let injected = NullInjector::new(0.1, 7).inject(&db);
        let rate = NullInjector::observed_rate(&injected);
        assert!((rate - 0.1).abs() < 0.03, "observed {rate}");
        injected.validate().unwrap();
    }

    #[test]
    fn injected_nulls_are_codd_nulls() {
        let db = complete_db(200);
        let injected = NullInjector::new(0.5, 3).inject(&db);
        // Every injected null id occurs exactly once.
        let mut seen = std::collections::HashSet::new();
        for t in injected.relation("t").unwrap().iter() {
            for v in t.values() {
                if let Value::Null(id) = v {
                    assert!(seen.insert(*id), "null id repeated: {id}");
                }
            }
        }
    }
}
