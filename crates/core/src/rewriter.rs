//! High-level API: rewrite a query for correctness and evaluate it.

use crate::certain::CertainOracle;
use crate::dialect::ConditionDialect;
use crate::metrics::AnswerBreakdown;
use crate::translate::{translate_plus, translate_star};
use crate::Result;
use certus_algebra::eval::eval;
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::Catalog;
use certus_data::{Database, Relation};
use certus_plan::PassManager;

/// The front door of `certus-core`: turns a query `Q` into its
/// correctness-guaranteed variant `Q⁺` (optionally optimized for execution)
/// and evaluates it.
///
/// ```
/// use certus_core::CertainRewriter;
/// use certus_algebra::{builder::eq, RaExpr};
/// use certus_data::{builder::rel, Database, Value};
/// use certus_data::null::NullId;
///
/// let mut db = Database::new();
/// db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
/// db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))]]));
/// // R − S phrased as NOT EXISTS: SQL would wrongly return {1}.
/// let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
/// let rewriter = CertainRewriter::new();
/// let certain = rewriter.evaluate_certain(&q, &db).unwrap();
/// assert!(certain.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CertainRewriter {
    /// Condition-translation dialect (SQL-adjusted by default).
    pub dialect: ConditionDialect,
    /// Whether to run the rewrite passes over the translation (the ablation
    /// experiments turn this off to reproduce the "confused optimizer"
    /// behaviour).
    pub apply_optimizations: bool,
}

impl Default for CertainRewriter {
    fn default() -> Self {
        CertainRewriter { dialect: ConditionDialect::Sql, apply_optimizations: true }
    }
}

impl CertainRewriter {
    /// A rewriter with the default (paper) configuration: SQL dialect,
    /// all optimizations on.
    pub fn new() -> Self {
        Self::default()
    }

    /// A rewriter that produces the raw translation with no optimizations.
    pub fn unoptimized() -> Self {
        CertainRewriter { apply_optimizations: false, ..Self::default() }
    }

    /// Use the theoretical dialect (pair with naive evaluation).
    pub fn theoretical() -> Self {
        CertainRewriter { dialect: ConditionDialect::Theoretical, ..Self::default() }
    }

    /// Produce `Q⁺`, optionally optimized against the catalog's schema and
    /// key information.
    pub fn rewrite_plus(&self, expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
        self.passes(translate_plus(expr, self.dialect)?, catalog)
    }

    /// Produce `Q★` (the potential-answer query).
    pub fn rewrite_star(&self, expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
        self.passes(translate_star(expr, self.dialect)?, catalog)
    }

    fn passes(&self, translated: RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
        if self.apply_optimizations {
            Ok(PassManager::standard().run(&translated, catalog)?)
        } else {
            Ok(translated)
        }
    }

    /// Rewrite and evaluate: returns a subset of the certain answers of
    /// `expr` on `db` (Theorem 1 of the paper).
    pub fn evaluate_certain(&self, expr: &RaExpr, db: &Database) -> Result<Relation> {
        let plus = self.rewrite_plus(expr, db)?;
        eval(&plus, db, self.dialect.evaluation_semantics()).map_err(crate::CoreError::Algebra)
    }

    /// Evaluate the original query with plain SQL semantics (`EvalSQL`).
    pub fn evaluate_sql(&self, expr: &RaExpr, db: &Database) -> Result<Relation> {
        eval(expr, db, certus_algebra::NullSemantics::Sql).map_err(crate::CoreError::Algebra)
    }

    /// Evaluate both the original query and its rewriting and break the SQL
    /// answer down into certain answers and false positives, using the exact
    /// oracle. Only suitable for small instances.
    pub fn audit(&self, expr: &RaExpr, db: &Database, oracle: &CertainOracle) -> Result<Audit> {
        let sql_answers = self.evaluate_sql(expr, db)?;
        let certain_answers = self.evaluate_certain(expr, db)?;
        let mut certainty = Vec::with_capacity(sql_answers.len());
        for t in sql_answers.iter() {
            certainty.push(oracle.is_certain(expr, db, t)?);
        }
        let mut idx = 0;
        let breakdown = AnswerBreakdown::from_predicate(&sql_answers, |_| {
            let c = certainty[idx];
            idx += 1;
            c
        });
        Ok(Audit { sql_answers, certain_answers, breakdown })
    }
}

/// The result of [`CertainRewriter::audit`].
#[derive(Debug, Clone)]
pub struct Audit {
    /// What plain SQL evaluation returns.
    pub sql_answers: Relation,
    /// What the correctness-guaranteed rewriting returns.
    pub certain_answers: Relation,
    /// Breakdown of the SQL answer against the exact oracle.
    pub breakdown: AnswerBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::eq;
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::Value;

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
        );
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![null(1)]]));
        db
    }

    #[test]
    fn certain_evaluation_has_no_false_positives() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let rewriter = CertainRewriter::new();
        let certain = rewriter.evaluate_certain(&q, &db).unwrap();
        // With ⊥ in s, no r tuple is certainly absent from s except... none:
        // ⊥ may equal 1 or 3, and 2 is matched outright.
        assert!(certain.is_empty());
        let sql = rewriter.evaluate_sql(&q, &db).unwrap();
        assert_eq!(sql.len(), 2, "SQL returns the two false positives");
    }

    #[test]
    fn audit_reports_false_positive_rate() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let rewriter = CertainRewriter::new();
        let audit = rewriter.audit(&q, &db, &CertainOracle::default()).unwrap();
        assert_eq!(audit.breakdown.total, 2);
        assert_eq!(audit.breakdown.false_positives, 2);
        assert_eq!(audit.breakdown.certain, 0);
        assert!(audit.certain_answers.is_empty());
        assert!((audit.breakdown.false_positive_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unoptimized_and_optimized_rewritings_agree_semantically() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let opt = CertainRewriter::new().evaluate_certain(&q, &db).unwrap().sorted();
        let raw = CertainRewriter::unoptimized().evaluate_certain(&q, &db).unwrap().sorted();
        assert_eq!(opt.tuples(), raw.tuples());
    }

    #[test]
    fn theoretical_rewriter_uses_naive_evaluation() {
        let rewriter = CertainRewriter::theoretical();
        assert_eq!(rewriter.dialect.evaluation_semantics(), certus_algebra::NullSemantics::Naive);
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let certain = CertainRewriter::new().evaluate_certain(&q, &db).unwrap();
        assert!(certain.is_empty());
    }
}
