//! Exact certain-answer oracle.
//!
//! `cert(Q, D)` — certain answers with nulls — is the set of tuples `ā` over
//! `adom(D)` such that `v(ā) ∈ Q(v(D))` for **every** valuation `v` of the
//! nulls of `D`. Computing it is coNP-hard for first-order queries, so the
//! oracle enumerates valuations explicitly and is only meant for ground truth
//! on small instances (the same role the specialised detectors of Section 4
//! play in the paper).
//!
//! Valuations range over `Const(D)`, the constants mentioned in the query,
//! plus one fresh constant per null (a standard reduction: if some valuation
//! refutes membership, then one over this restricted domain does for the
//! equality-based fragment we consider).

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::eval::eval;
use crate::algebra::expr::RaExpr;
use crate::algebra::NullSemantics;
use crate::data::valuation::enumerate_valuations;
use crate::data::{Database, Relation, Tuple, Valuation, Value};
use crate::{Error, Result};
use std::collections::BTreeSet;

/// Configuration for the certain-answer oracle.
#[derive(Debug, Clone)]
pub struct CertainOracle {
    /// Hard limit on the number of valuations the exhaustive oracle may
    /// enumerate; exceeding it is an error rather than a silent slowdown.
    pub max_valuations: u128,
    /// Semantics used to evaluate the query on each completed database
    /// (always SQL 3VL in the paper; completed databases have no nulls, so
    /// the choice only matters if evaluation introduces none — it does not).
    pub semantics: NullSemantics,
}

impl Default for CertainOracle {
    fn default() -> Self {
        CertainOracle { max_valuations: 2_000_000, semantics: NullSemantics::Sql }
    }
}

impl CertainOracle {
    /// Create an oracle with a custom valuation budget.
    pub fn with_limit(max_valuations: u128) -> Self {
        CertainOracle { max_valuations, ..Default::default() }
    }

    /// The valuation domain: constants of the database, constants of the
    /// query, and one fresh constant per null.
    pub(crate) fn valuation_domain(&self, expr: &RaExpr, db: &Database) -> Vec<Value> {
        let adom = db.active_domain();
        let mut domain: BTreeSet<Value> = adom.constants.iter().cloned().collect();
        collect_query_constants(expr, &mut domain);
        let fresh_base = 1_000_000_007i64;
        for (i, _) in adom.nulls.iter().enumerate() {
            domain.insert(Value::Int(fresh_base + i as i64));
        }
        domain.into_iter().collect()
    }

    /// Is `tuple` a certain answer (with nulls) to `expr` on `db`?
    ///
    /// Checks `v(tuple) ∈ Q(v(D))` for every valuation `v` over the reduced
    /// domain. Errors if the number of valuations exceeds the budget.
    pub fn is_certain(&self, expr: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
        let nulls = db.active_domain().nulls;
        let domain = self.valuation_domain(expr, db);
        let needed = (domain.len() as u128).checked_pow(nulls.len() as u32).unwrap_or(u128::MAX);
        if needed > self.max_valuations {
            return Err(Error::TooManyValuations { needed, limit: self.max_valuations });
        }
        for v in enumerate_valuations(&nulls, &domain) {
            if !self.holds_under(expr, db, tuple, &v)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The subset of `candidates` that are certain answers.
    pub fn certain_among(
        &self,
        expr: &RaExpr,
        db: &Database,
        candidates: &Relation,
    ) -> Result<Relation> {
        let mut out = Relation::empty(candidates.schema().clone());
        for t in candidates.iter() {
            if self.is_certain(expr, db, t)? {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    fn holds_under(
        &self,
        expr: &RaExpr,
        db: &Database,
        tuple: &Tuple,
        v: &Valuation,
    ) -> Result<bool> {
        let ground_db = db.apply(v);
        let ground_tuple = tuple.apply(v);
        let answers = eval(expr, &ground_db, self.semantics)?;
        Ok(answers.contains(&ground_tuple))
    }
}

fn collect_query_constants(expr: &RaExpr, out: &mut BTreeSet<Value>) {
    match expr {
        RaExpr::Select { input, condition } => {
            collect_condition_constants(condition, out);
            collect_query_constants(input, out);
        }
        RaExpr::Join { left, right, condition }
        | RaExpr::SemiJoin { left, right, condition }
        | RaExpr::AntiJoin { left, right, condition } => {
            collect_condition_constants(condition, out);
            collect_query_constants(left, out);
            collect_query_constants(right, out);
        }
        RaExpr::Values { rows, .. } => {
            for r in rows {
                for v in r.values() {
                    if v.is_const() {
                        out.insert(v.clone());
                    }
                }
            }
        }
        other => {
            for c in other.children() {
                collect_query_constants(c, out);
            }
        }
    }
}

fn collect_condition_constants(condition: &Condition, out: &mut BTreeSet<Value>) {
    match condition {
        Condition::Cmp { left, right, .. } => {
            for op in [left, right] {
                if let Operand::Const(v) = op {
                    out.insert(v.clone());
                }
            }
        }
        Condition::InList { list, .. } => out.extend(list.iter().cloned()),
        Condition::And(a, b) | Condition::Or(a, b) => {
            collect_condition_constants(a, out);
            collect_condition_constants(b, out);
        }
        Condition::Not(inner) => collect_condition_constants(inner, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::core::dialect::ConditionDialect;
    use crate::core::translate::translate_plus;
    use crate::data::builder::rel;
    use crate::data::null::NullId;

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    fn is_certain(expr: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
        CertainOracle::default().is_certain(expr, db, tuple)
    }

    #[test]
    fn intro_example_tuple_is_not_certain() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let t = Tuple::new(vec![Value::Int(1)]);
        assert!(!is_certain(&q, &db, &t).unwrap());
    }

    #[test]
    fn certain_tuple_is_recognised() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![null(1)]]));
        // 1 is in r and s contains ⊥ which may equal 1 ⇒ not certain for r − s.
        // But for the plain query r, every tuple of r is certain.
        let q = RaExpr::relation("r");
        assert!(is_certain(&q, &db, &Tuple::new(vec![Value::Int(1)])).unwrap());
    }

    #[test]
    fn certain_answers_with_nulls_includes_null_tuples() {
        // R = {(1,⊥), (2,3)}; Q = R. Certain answers *with nulls* contain both
        // tuples (Section 2 of the paper).
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![vec![Value::Int(1), null(1)], vec![Value::Int(2), Value::Int(3)]],
            ),
        );
        let q = RaExpr::relation("r");
        let candidates = db.relation("r").unwrap().clone();
        let certain = CertainOracle::default().certain_among(&q, &db, &candidates).unwrap();
        assert_eq!(certain.len(), 2);
    }

    #[test]
    fn q_plus_outputs_are_always_certain() {
        // Correctness guarantee checked against the exhaustive oracle on a
        // small instance with several nulls.
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
        );
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![null(1)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        let answers = eval(&plus, &db, NullSemantics::Sql).unwrap();
        for t in answers.iter() {
            assert!(is_certain(&q, &db, t).unwrap(), "false positive from Q+: {t}");
        }
        // And SQL evaluation of the original query does produce a non-certain tuple.
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        let not_certain: Vec<_> = sql.iter().filter(|t| !is_certain(&q, &db, t).unwrap()).collect();
        assert!(!not_certain.is_empty());
    }

    #[test]
    fn budget_is_enforced() {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> =
            (0..12).map(|i| vec![Value::Int(i), null(i as u64 + 1)]).collect();
        db.insert_relation("r", rel(&["a", "b"], rows));
        let oracle = CertainOracle::with_limit(1000);
        let q = RaExpr::relation("r");
        let err = oracle.is_certain(&q, &db, &Tuple::new(vec![Value::Int(0), null(1)]));
        assert!(matches!(err, Err(Error::TooManyValuations { .. })));
    }

    #[test]
    fn query_constants_enter_the_domain() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").select(crate::algebra::builder::eq_const("a", 99i64));
        let oracle = CertainOracle::default();
        let domain = oracle.valuation_domain(&q, &db);
        assert!(domain.contains(&Value::Int(99)));
    }
}
