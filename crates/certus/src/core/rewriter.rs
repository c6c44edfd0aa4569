//! High-level API: rewrite a query for correctness.

use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::Catalog;
use crate::core::dialect::ConditionDialect;
use crate::core::translate::{translate_plus, translate_star};
use crate::plan::PassManager;
use crate::Result;

/// The front door of `certus::core`: turns a query `Q` into its
/// correctness-guaranteed variant `Q⁺` (optionally optimized for execution).
/// Evaluating `Q⁺` is the engine's job (`certus::Session`), or the reference
/// evaluator's:
///
/// ```
/// use certus::core::CertainRewriter;
/// use certus::algebra::{builder::eq, eval, NullSemantics, RaExpr};
/// use certus::data::{builder::rel, Database, Value};
/// use certus::data::null::NullId;
///
/// let mut db = Database::new();
/// db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
/// db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))]]));
/// // R − S phrased as NOT EXISTS: SQL would wrongly return {1}.
/// let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
/// assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 1);
/// let plus = CertainRewriter::new().rewrite_plus(&q, &db).unwrap();
/// assert!(eval(&plus, &db, NullSemantics::Sql).unwrap().is_empty());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::algebra::eval::eval;
    use crate::algebra::NullSemantics;
    use crate::core::certain::CertainOracle;
    use crate::core::metrics::AnswerBreakdown;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Relation, Value};

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

    /// `Q⁺` under the semantics its dialect is paired with.
    fn plus_answers(rewriter: &CertainRewriter, q: &RaExpr, db: &Database) -> Relation {
        let semantics = match rewriter.dialect {
            ConditionDialect::Sql => NullSemantics::Sql,
            ConditionDialect::Theoretical => NullSemantics::Naive,
        };
        eval(&rewriter.rewrite_plus(q, db).unwrap(), db, semantics).unwrap()
    }

    #[test]
    fn certain_evaluation_has_no_false_positives() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let certain = plus_answers(&CertainRewriter::new(), &q, &db);
        // With ⊥ in s, no r tuple is certainly absent from s except... none:
        // ⊥ may equal 1 or 3, and 2 is matched outright.
        assert!(certain.is_empty());
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(sql.len(), 2, "SQL returns the two false positives");
    }

    #[test]
    fn audit_reports_false_positive_rate() {
        // The SQL answer, broken down against the exact oracle: every tuple
        // is a false positive, and `Q⁺` returns none of them.
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        let oracle_certain = CertainOracle::default().certain_among(&q, &db, &sql).unwrap();
        let breakdown = AnswerBreakdown::new(&sql, &oracle_certain);
        assert_eq!(breakdown.total, 2);
        assert_eq!(breakdown.false_positives, 2);
        assert_eq!(breakdown.certain, 0);
        assert!(plus_answers(&CertainRewriter::new(), &q, &db).is_empty());
    }

    #[test]
    fn unoptimized_and_optimized_rewritings_agree_semantically() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let opt = plus_answers(&CertainRewriter::new(), &q, &db).sorted();
        let raw = plus_answers(&CertainRewriter::unoptimized(), &q, &db).sorted();
        assert_eq!(opt.tuples(), raw.tuples());
    }

    #[test]
    fn theoretical_rewriter_uses_naive_evaluation() {
        // The theoretical dialect's `Q⁺`, evaluated naively, keeps the
        // guarantee: `1` and `3` may equal `⊥1`, so neither is certain.
        let rewriter = CertainRewriter::theoretical();
        assert_eq!(rewriter.dialect, ConditionDialect::Theoretical);
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        assert!(plus_answers(&rewriter, &q, &db()).is_empty());
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        assert!(plus_answers(&CertainRewriter::new(), &q, &db).is_empty());
    }
}
