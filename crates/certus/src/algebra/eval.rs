//! Reference evaluator for relational algebra over incomplete databases.
//!
//! This is a straightforward tuple-at-a-time evaluator meant as the *semantic
//! ground truth*: every operator is implemented by its definition, with the
//! null semantics ([`NullSemantics`]) applied to conditions. `certus::engine`
//! provides the optimized physical execution used for the performance
//! experiments; its results are tested against this evaluator.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::{AggExpr, AggFunc, RaExpr};
use crate::algebra::schema_infer::output_schema;
use crate::algebra::semantics::NullSemantics;
use crate::data::compare::{naive_cmp, sql_cmp};
use crate::data::like::{naive_like, sql_like};
use crate::data::truth::Truth;
use crate::data::unify::tuples_unify;
use crate::data::{Database, Relation, Schema, Tuple, Value};
use crate::{Error, Result};
use std::cell::RefCell;
use std::collections::HashMap;

/// Evaluate an expression against a database under the given null semantics.
pub fn eval(expr: &RaExpr, db: &Database, semantics: NullSemantics) -> Result<Relation> {
    Evaluator::new(db, semantics).eval(expr)
}

/// The reference evaluator. Holds the database, the null semantics, and a
/// cache of scalar-subquery results (scalar subqueries are uncorrelated, so
/// they are evaluated once per query).
pub(crate) struct Evaluator<'a> {
    db: &'a Database,
    semantics: NullSemantics,
    scalar_cache: RefCell<HashMap<usize, Option<Value>>>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator.
    pub fn new(db: &'a Database, semantics: NullSemantics) -> Self {
        Evaluator { db, semantics, scalar_cache: RefCell::new(HashMap::new()) }
    }

    /// Evaluate an expression to a relation.
    pub fn eval(&self, expr: &RaExpr) -> Result<Relation> {
        match expr {
            RaExpr::Relation { name, alias } => {
                let rel = self.db.relation(name)?;
                match alias {
                    Some(a) => Ok(Relation::from_parts(
                        rel.schema().qualify(a).shared(),
                        rel.tuples().to_vec(),
                    )),
                    None => Ok(rel.clone()),
                }
            }
            RaExpr::Values { schema, rows } => Relation::new(schema.clone().shared(), rows.clone()),
            RaExpr::Select { input, condition } => {
                let rel = self.eval(input)?;
                let schema = rel.schema().clone();
                let tuples = rel
                    .into_tuples()
                    .into_iter()
                    .map(|t| self.eval_condition(condition, &schema, &t).map(|tr| (t, tr)))
                    .collect::<Result<Vec<_>>>()?
                    .into_iter()
                    .filter(|(_, tr)| tr.is_true())
                    .map(|(t, _)| t)
                    .collect();
                Ok(Relation::from_parts(schema, tuples))
            }
            RaExpr::Project { input, columns } => {
                let rel = self.eval(input)?;
                let out_schema = output_schema(expr, self.db)?;
                let positions: Vec<usize> = columns
                    .iter()
                    .map(|c| rel.schema().position_of(&c.column))
                    .collect::<Result<Vec<_>>>()?;
                let tuples: Vec<Tuple> = rel.iter().map(|t| t.project(&positions)).collect();
                let mut out = Relation::from_parts(out_schema.shared(), tuples);
                out.dedup();
                Ok(out)
            }
            RaExpr::Product { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.product(&l, &r, &Condition::True)
            }
            RaExpr::Join { left, right, condition } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.product(&l, &r, condition)
            }
            RaExpr::Union { left, right } => {
                let l = self.eval(left)?;
                let r = self.align(&l, self.eval(right)?);
                l.union_owned(&r)
            }
            RaExpr::Intersect { left, right } => {
                let l = self.eval(left)?;
                let r = self.align(&l, self.eval(right)?);
                l.intersect_owned(&r)
            }
            RaExpr::Difference { left, right } => {
                let l = self.eval(left)?;
                let r = self.align(&l, self.eval(right)?);
                l.difference_owned(&r)
            }
            RaExpr::SemiJoin { left, right, condition } => {
                self.semi_like(left, right, condition, true)
            }
            RaExpr::AntiJoin { left, right, condition } => {
                self.semi_like(left, right, condition, false)
            }
            RaExpr::UnifySemiJoin { left, right } => self.unify_semi(left, right, true),
            RaExpr::UnifyAntiSemiJoin { left, right } => self.unify_semi(left, right, false),
            RaExpr::Division { left, right } => self.division(left, right),
            RaExpr::Rename { input, columns } => {
                let rel = self.eval(input)?;
                let schema = rel.schema().rename(columns)?.shared();
                Ok(Relation::from_parts(schema, rel.tuples().to_vec()))
            }
            RaExpr::Distinct { input } => Ok(self.eval(input)?.into_distinct()),
            RaExpr::Aggregate { input, group_by, aggregates } => {
                self.aggregate(expr, input, group_by, aggregates)
            }
        }
    }

    /// Align the schema of `r` to the schema of `l` for a set operation (SQL
    /// set operations are positional; only arity/type compatibility matters).
    fn align(&self, l: &Relation, r: Relation) -> Relation {
        Relation::from_parts(l.schema().clone(), r.into_tuples())
    }

    fn product(&self, l: &Relation, r: &Relation, condition: &Condition) -> Result<Relation> {
        let schema = l.schema().concat(r.schema()).shared();
        let mut tuples = Vec::new();
        for lt in l.iter() {
            for rt in r.iter() {
                let combined = lt.concat(rt);
                if self.eval_condition(condition, &schema, &combined)?.is_true() {
                    tuples.push(combined);
                }
            }
        }
        Ok(Relation::from_parts(schema, tuples))
    }

    fn semi_like(
        &self,
        left: &RaExpr,
        right: &RaExpr,
        condition: &Condition,
        keep_matching: bool,
    ) -> Result<Relation> {
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        let combined = l.schema().concat(r.schema()).shared();
        let mut tuples = Vec::new();
        for lt in l.iter() {
            let mut matched = false;
            for rt in r.iter() {
                let c = lt.concat(rt);
                if self.eval_condition(condition, &combined, &c)?.is_true() {
                    matched = true;
                    break;
                }
            }
            if matched == keep_matching {
                tuples.push(lt.clone());
            }
        }
        Ok(Relation::from_parts(l.schema().clone(), tuples))
    }

    fn unify_semi(&self, left: &RaExpr, right: &RaExpr, keep_matching: bool) -> Result<Relation> {
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        if l.arity() != r.arity() {
            return Err(Error::Malformed(format!(
                "unification semijoin over arities {} and {}",
                l.arity(),
                r.arity()
            )));
        }
        let tuples = l
            .iter()
            .filter(|lt| r.iter().any(|rt| tuples_unify(lt, rt)) == keep_matching)
            .cloned()
            .collect();
        Ok(Relation::from_parts(l.schema().clone(), tuples))
    }

    fn division(&self, left: &RaExpr, right: &RaExpr) -> Result<Relation> {
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        // Map each divisor column to the dividend column with the same base name.
        let mut shared_positions = Vec::with_capacity(r.arity());
        for attr in r.schema().attrs() {
            let pos = l
                .schema()
                .attrs()
                .iter()
                .position(|a| a.base_name() == attr.base_name())
                .ok_or_else(|| {
                    Error::Malformed(format!(
                        "division: divisor column {} not found in dividend",
                        attr.name
                    ))
                })?;
            shared_positions.push(pos);
        }
        let key_positions: Vec<usize> =
            (0..l.arity()).filter(|i| !shared_positions.contains(i)).collect();
        let out_schema = l.schema().project(&key_positions).shared();
        let all: std::collections::HashSet<&Tuple> = l.iter().collect();
        let mut seen_keys = std::collections::HashSet::new();
        let mut tuples = Vec::new();
        for lt in l.iter() {
            let key = lt.project(&key_positions);
            if !seen_keys.insert(key.clone()) {
                continue;
            }
            let ok = r.iter().all(|rt| {
                // Reassemble a dividend tuple with this key and the divisor values.
                let mut vals: Vec<Value> = lt.values().to_vec();
                for (ri, &lp) in shared_positions.iter().enumerate() {
                    vals[lp] = rt[ri].clone();
                }
                all.contains(&Tuple::new(vals))
            });
            if ok {
                tuples.push(key);
            }
        }
        Ok(Relation::from_parts(out_schema, tuples))
    }

    fn aggregate(
        &self,
        expr: &RaExpr,
        input: &RaExpr,
        group_by: &[String],
        aggregates: &[AggExpr],
    ) -> Result<Relation> {
        let rel = self.eval(input)?;
        let out_schema = output_schema(expr, self.db)?.shared();
        let group_pos: Vec<usize> =
            group_by.iter().map(|g| rel.schema().position_of(g)).collect::<Result<Vec<_>>>()?;
        let agg_pos: Vec<Option<usize>> = aggregates
            .iter()
            .map(|a| match &a.column {
                Some(c) => rel.schema().position_of(c).map(Some),
                None => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;

        let mut groups: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in rel.iter() {
            let key = t.project(&group_pos);
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(t);
        }
        // A global aggregate over an empty input still produces one row.
        if group_by.is_empty() && groups.is_empty() {
            let key = Tuple::empty();
            order.push(key.clone());
            groups.insert(key, Vec::new());
        }

        let mut tuples = Vec::new();
        for key in order {
            let rows = &groups[&key];
            let mut out: Vec<Value> = key.values().to_vec();
            for (a, pos) in aggregates.iter().zip(&agg_pos) {
                out.push(compute_aggregate(a.func, *pos, rows));
            }
            tuples.push(Tuple::new(out));
        }
        Ok(Relation::from_parts(out_schema, tuples))
    }

    /// Evaluate a condition against a tuple of the given schema, producing a
    /// three-valued truth value (naive semantics never yields `Unknown`).
    pub(crate) fn eval_condition(
        &self,
        condition: &Condition,
        schema: &Schema,
        tuple: &Tuple,
    ) -> Result<Truth> {
        match condition {
            Condition::True => Ok(Truth::True),
            Condition::False => Ok(Truth::False),
            Condition::Cmp { left, op, right } => {
                let l = self.operand_value(left, schema, tuple)?;
                let r = self.operand_value(right, schema, tuple)?;
                match (l, r) {
                    (Some(a), Some(b)) => Ok(match self.semantics {
                        NullSemantics::Sql => sql_cmp(&a, *op, &b),
                        NullSemantics::Naive => Truth::from_bool(naive_cmp(&a, *op, &b)),
                    }),
                    // An empty scalar subquery behaves like a NULL operand.
                    _ => Ok(match self.semantics {
                        NullSemantics::Sql => Truth::Unknown,
                        NullSemantics::Naive => Truth::False,
                    }),
                }
            }
            Condition::IsNull(x) => {
                let v = self.operand_value(x, schema, tuple)?;
                Ok(Truth::from_bool(v.map(|v| v.is_null()).unwrap_or(true)))
            }
            Condition::IsNotNull(x) => {
                let v = self.operand_value(x, schema, tuple)?;
                Ok(Truth::from_bool(v.map(|v| v.is_const()).unwrap_or(false)))
            }
            Condition::Like { expr, pattern, negated } => {
                let v = self.operand_value(expr, schema, tuple)?;
                let base = match v {
                    Some(v) => match self.semantics {
                        NullSemantics::Sql => sql_like(&v, pattern),
                        NullSemantics::Naive => Truth::from_bool(naive_like(&v, pattern)),
                    },
                    None => Truth::Unknown,
                };
                Ok(if *negated { base.negate() } else { base })
            }
            Condition::InList { expr, list, negated } => {
                let v = self.operand_value(expr, schema, tuple)?;
                let base = match v {
                    Some(v) => {
                        let hits = list.iter().map(|item| match self.semantics {
                            NullSemantics::Sql => {
                                sql_cmp(&v, crate::data::compare::CmpOp::Eq, item)
                            }
                            NullSemantics::Naive => Truth::from_bool(naive_cmp(
                                &v,
                                crate::data::compare::CmpOp::Eq,
                                item,
                            )),
                        });
                        Truth::any(hits)
                    }
                    None => Truth::Unknown,
                };
                let base = if self.semantics == NullSemantics::Naive && base.is_unknown() {
                    Truth::False
                } else {
                    base
                };
                Ok(if *negated { base.negate() } else { base })
            }
            Condition::And(a, b) => Ok(self
                .eval_condition(a, schema, tuple)?
                .and(self.eval_condition(b, schema, tuple)?)),
            Condition::Or(a, b) => Ok(self
                .eval_condition(a, schema, tuple)?
                .or(self.eval_condition(b, schema, tuple)?)),
            Condition::Not(inner) => Ok(self.eval_condition(inner, schema, tuple)?.negate()),
        }
    }

    fn operand_value(
        &self,
        operand: &Operand,
        schema: &Schema,
        tuple: &Tuple,
    ) -> Result<Option<Value>> {
        match operand {
            Operand::Col(name) => {
                let pos = schema.position_of(name)?;
                Ok(Some(tuple[pos].clone()))
            }
            Operand::Const(v) => Ok(Some(v.clone())),
            Operand::Scalar(q) => self.scalar_value(q),
        }
    }

    /// Evaluate an uncorrelated scalar subquery (memoized by expression
    /// identity). Returns `None` if the subquery produces no rows.
    fn scalar_value(&self, q: &RaExpr) -> Result<Option<Value>> {
        let key = q as *const RaExpr as usize;
        if let Some(v) = self.scalar_cache.borrow().get(&key) {
            return Ok(v.clone());
        }
        let rel = self.eval(q)?;
        if rel.arity() != 1 {
            return Err(Error::ScalarSubquery(format!(
                "scalar subquery produced {} columns",
                rel.arity()
            )));
        }
        if rel.len() > 1 {
            return Err(Error::ScalarSubquery(format!(
                "scalar subquery produced {} rows",
                rel.len()
            )));
        }
        let v = rel.tuples().first().map(|t| t[0].clone());
        self.scalar_cache.borrow_mut().insert(key, v.clone());
        Ok(v)
    }
}

/// Compute one aggregate over a group of tuples. SQL null handling: nulls are
/// ignored by all aggregates except `COUNT(*)`; an empty set of non-null
/// inputs yields `NULL` (0 for counts). Shared with the engine's compiled
/// aggregate operator, so both runtimes agree by construction.
pub(crate) fn compute_aggregate(func: AggFunc, pos: Option<usize>, rows: &[&Tuple]) -> Value {
    match func {
        AggFunc::CountStar => Value::Int(rows.len() as i64),
        AggFunc::Count => {
            let pos = pos.expect("COUNT(col) has a column");
            Value::Int(rows.iter().filter(|t| t[pos].is_const()).count() as i64)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let pos = pos.expect("aggregate has a column");
            let nums: Vec<f64> = rows.iter().filter_map(|t| t[pos].as_f64()).collect();
            if nums.is_empty() {
                return Value::fresh_null();
            }
            let sum: f64 = nums.iter().sum();
            match func {
                AggFunc::Sum => Value::Float(sum),
                _ => Value::Float(sum / nums.len() as f64),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let pos = pos.expect("aggregate has a column");
            let mut vals: Vec<&Value> =
                rows.iter().map(|t| &t[pos]).filter(|v| v.is_const()).collect();
            if vals.is_empty() {
                return Value::fresh_null();
            }
            vals.sort_by(|a, b| {
                crate::data::compare::const_ordering(a, b).unwrap_or(std::cmp::Ordering::Equal)
            });
            match func {
                AggFunc::Min => (*vals.first().unwrap()).clone(),
                _ => (*vals.last().unwrap()).clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{col, lit};
    use crate::data::builder::rel;
    use crate::data::null::NullId;

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Int(2), null(1)],
                    vec![Value::Int(3), Value::Int(3)],
                ],
            ),
        );
        db.insert_relation("s", rel(&["c"], vec![vec![Value::Int(2)], vec![null(2)]]));
        db
    }

    #[test]
    fn select_sql_vs_naive_on_nulls() {
        let db = sample_db();
        // a = b : row (3,3) matches under both; row (2,⊥) matches under neither
        let q = RaExpr::relation("r").select(Condition::eq_cols("a", "b"));
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 1);
        assert_eq!(eval(&q, &db, NullSemantics::Naive).unwrap().len(), 1);
        // b IS NULL picks one row
        let q2 = RaExpr::relation("r").select(Condition::IsNull(Operand::Col("b".into())));
        assert_eq!(eval(&q2, &db, NullSemantics::Sql).unwrap().len(), 1);
    }

    #[test]
    fn intro_example_false_positive() {
        // R = {1}, S = {NULL}: SQL difference (NOT EXISTS) returns {1}, which is
        // not a certain answer. The reference evaluator reproduces SQL behaviour.
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["a"], vec![vec![null(7)]]));
        let q = RaExpr::relation("r")
            .anti_join(RaExpr::relation_as("s", "s2"), Condition::eq_cols("a", "s2.a"));
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1, "SQL evaluation produces the false positive");
    }

    #[test]
    fn projection_deduplicates() {
        let db = sample_db();
        let q = RaExpr::relation("s").project(&["c"]);
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 2);
        let q2 = RaExpr::relation("r").project(&["a"]).union(RaExpr::relation("r").project(&["a"]));
        assert_eq!(eval(&q2, &db, NullSemantics::Sql).unwrap().len(), 3);
    }

    #[test]
    fn join_and_product() {
        let db = sample_db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), Condition::eq_cols("a", "c"));
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1); // only a=2 joins with c=2; null never joins under SQL
        let p = RaExpr::relation("r").product(RaExpr::relation("s"));
        assert_eq!(eval(&p, &db, NullSemantics::Sql).unwrap().len(), 6);
    }

    #[test]
    fn naive_join_matches_same_null() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![null(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)], vec![null(2)]]));
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), Condition::eq_cols("a", "b"));
        // Under SQL 3VL no rows join; under naive evaluation ⊥1 = ⊥1 joins.
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 0);
        assert_eq!(eval(&q, &db, NullSemantics::Naive).unwrap().len(), 1);
    }

    #[test]
    fn semi_and_anti_join() {
        let db = sample_db();
        let semi =
            RaExpr::relation("r").semi_join(RaExpr::relation("s"), Condition::eq_cols("a", "c"));
        assert_eq!(eval(&semi, &db, NullSemantics::Sql).unwrap().len(), 1);
        let anti =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), Condition::eq_cols("a", "c"));
        assert_eq!(eval(&anti, &db, NullSemantics::Sql).unwrap().len(), 2);
    }

    #[test]
    fn unify_semijoins() {
        let db = sample_db();
        // r(a) tuples: 1,2,3 ; s(c) tuples: 2, ⊥ — every r tuple unifies with ⊥.
        let l = RaExpr::relation("r").project(&["a"]);
        let semi = l.clone().unify_semi_join(RaExpr::relation("s"));
        assert_eq!(eval(&semi, &db, NullSemantics::Sql).unwrap().len(), 3);
        let anti = l.unify_anti_join(RaExpr::relation("s"));
        assert_eq!(eval(&anti, &db, NullSemantics::Sql).unwrap().len(), 0);
    }

    #[test]
    fn division_students_taking_all_courses() {
        let mut db = Database::new();
        db.insert_relation(
            "takes",
            rel(
                &["student", "course"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Int(20)],
                    vec![Value::Int(2), Value::Int(10)],
                ],
            ),
        );
        db.insert_relation(
            "courses",
            rel(&["course"], vec![vec![Value::Int(10)], vec![Value::Int(20)]]),
        );
        let q = RaExpr::relation("takes").divide(RaExpr::relation("courses"));
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0][0], Value::Int(1));
    }

    #[test]
    fn aggregate_with_nulls_and_groups() {
        let db = sample_db();
        let q = RaExpr::relation("r").aggregate(
            &[],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Count, "b", "nb"),
                AggExpr::new(AggFunc::Avg, "a", "avg_a"),
                AggExpr::new(AggFunc::Max, "a", "max_a"),
            ],
        );
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1);
        let t = &out.tuples()[0];
        assert_eq!(t[0], Value::Int(3));
        assert_eq!(t[1], Value::Int(2)); // one b is null
        assert_eq!(t[2], Value::Float(2.0));
        assert_eq!(t[3], Value::Int(3));
    }

    #[test]
    fn aggregate_on_empty_input() {
        let mut db = Database::new();
        db.insert_relation("e", rel(&["x"], vec![]));
        let q = RaExpr::relation("e")
            .aggregate(&[], vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Avg, "x", "a")]);
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0][0], Value::Int(0));
        assert!(out.tuples()[0][1].is_null());
    }

    #[test]
    fn scalar_subquery_comparison() {
        let db = sample_db();
        // a > AVG(a) keeps only a = 3 (avg = 2).
        let avg =
            RaExpr::relation("r").aggregate(&[], vec![AggExpr::new(AggFunc::Avg, "a", "avg_a")]);
        let cond = Condition::Cmp {
            left: col("a"),
            op: crate::data::compare::CmpOp::Gt,
            right: Operand::Scalar(Box::new(avg)),
        };
        let q = RaExpr::relation("r").select(cond).project(&["a"]);
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0][0], Value::Int(3));
    }

    #[test]
    fn in_list_and_like() {
        let mut db = Database::new();
        db.insert_relation(
            "p",
            rel(
                &["name"],
                vec![vec![Value::str("almond antique")], vec![null(1)], vec![Value::str("navy")]],
            ),
        );
        let q = RaExpr::relation("p").select(Condition::Like {
            expr: col("name"),
            pattern: "%antique%".into(),
            negated: false,
        });
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 1);
        let q2 = RaExpr::relation("p").select(Condition::InList {
            expr: col("name"),
            list: vec![Value::str("navy"), Value::str("red")],
            negated: false,
        });
        assert_eq!(eval(&q2, &db, NullSemantics::Sql).unwrap().len(), 1);
    }

    #[test]
    fn rename_and_values() {
        let db = Database::new();
        let v = lit(&["x", "y"], vec![vec![Value::Int(1), Value::Int(2)]]);
        let q = v.rename(&["a", "b"]).project(&["b"]);
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.schema().names(), vec!["b"]);
        assert_eq!(out.tuples()[0][0], Value::Int(2));
    }
}
