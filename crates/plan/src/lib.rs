//! # certus-plan
//!
//! The query-planning subsystem of *certus*: everything between the logical
//! [`RaExpr`] a translation produces and the physical
//! plan the engine executes.
//!
//! * [`pass`] — a [`PassManager`] running an ordered, re-runnable pipeline of
//!   logical rewrite passes to a fixpoint. Every pass is strongly
//!   semantics-preserving (same result on every database, under both SQL and
//!   naive null semantics), so translated queries keep their certain-answer
//!   guarantee.
//! * [`passes`] — the individual passes: constant/condition folding,
//!   predicate pushdown, projection collapsing, plus the paper's Section 7
//!   rewrites (nullability-aware `IS NULL` pruning, OR-splitting of
//!   `NOT EXISTS` and join conditions, the key-based simplification
//!   `R ⋉̸⇑ S → R − S`), migrated here out of `certus-core::optimize`.
//! * [`stats`] — a [`StatisticsCatalog`] of per-relation cardinalities and
//!   per-column null fractions / distinct counts computed from
//!   `certus-data` relations.
//! * [`cost`] — the cost model, in a statistics-free flavour (the seed's
//!   magic numbers) and a statistics-backed one.
//! * [`equi`] — which input of a join a column belongs to, and extraction
//!   of hash-join keys (plain and null-aware) from conditions.
//! * [`physical`] — the [`PhysicalExpr`] plan representation, the
//!   statistics-free [`heuristic_plan`] and the cost-based
//!   [`PhysicalPlanner`] emitting [`ExplainPlan`] trees.
//! * [`cache`] — hashable plan keys ([`PlanKey`]) and the LRU [`PlanCache`]
//!   (hit/miss counters, schema-epoch invalidation) behind
//!   `certus::Session`'s prepared queries.
//!
//! [`Planner`] ties the two halves together: logical pipeline, then physical
//! planning.

pub mod cache;
pub mod cost;
pub mod equi;
pub mod error;
pub mod pass;
pub mod passes;
pub mod physical;
pub mod stats;

pub use cache::{expr_fingerprint, CacheStats, PlanCache, PlanKey};
pub use cost::{
    estimate, estimate_with, exchange_cost, selectivity, selectivity_with, CostEstimate,
};
pub use equi::{references_schema, split_equi, EquiSplit, JoinSides, NullOk, Side};
pub use error::PlanError;
pub use pass::{FnPass, Pass, PassContext, PassManager, PassTrace, PlanOptions};
pub use physical::{
    heuristic_plan, heuristic_plan_with, ExplainPlan, JoinAlgo, Parallelism, Partitioning,
    PhysicalExpr, PhysicalPlanner, SemiAlgo,
};
pub use stats::{ColumnStats, StatisticsCatalog, TableStats};

use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::Catalog;
use certus_data::Database;

/// Result alias for the planning crate.
pub type Result<T> = std::result::Result<T, PlanError>;

/// The front door: run the logical pass pipeline, then (optionally) produce
/// a cost-based physical plan.
pub struct Planner {
    /// The logical rewrite pipeline.
    pub passes: PassManager,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner with the standard pass pipeline.
    pub fn new() -> Self {
        Planner { passes: PassManager::standard() }
    }

    /// A planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        Planner { passes: PassManager::with_options(options) }
    }

    /// A planner whose logical pipeline is disabled (identity rewriting) —
    /// the "planner off" arm of ablation experiments.
    pub fn disabled() -> Self {
        Planner { passes: PassManager::empty() }
    }

    /// Run the logical rewrite pipeline.
    pub fn optimize(&self, expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
        self.passes.run(expr, catalog)
    }

    /// Run the pipeline, then produce a cost-based physical plan over fresh
    /// statistics for the database. Convenience wrapper: analyzing statistics
    /// scans every table, so callers planning several queries against the
    /// same database should [`StatisticsCatalog::analyze`] once and use
    /// [`Planner::plan_with`].
    pub fn plan(&self, expr: &RaExpr, db: &Database) -> Result<PhysicalExpr> {
        self.plan_with(expr, db, &StatisticsCatalog::analyze(db))
    }

    /// Run the pipeline, then produce a cost-based physical plan over
    /// pre-computed statistics.
    pub fn plan_with(
        &self,
        expr: &RaExpr,
        db: &Database,
        stats: &StatisticsCatalog,
    ) -> Result<PhysicalExpr> {
        let optimized = self.optimize(expr, db)?;
        PhysicalPlanner::new(db, stats).plan(&optimized)
    }

    /// Run the pipeline, then produce the explain tree of the physical plan
    /// (convenience wrapper — see [`Planner::plan`] about statistics cost).
    pub fn explain(&self, expr: &RaExpr, db: &Database) -> Result<ExplainPlan> {
        self.explain_with(expr, db, &StatisticsCatalog::analyze(db))
    }

    /// Run the pipeline, then produce the explain tree over pre-computed
    /// statistics.
    pub fn explain_with(
        &self,
        expr: &RaExpr,
        db: &Database,
        stats: &StatisticsCatalog,
    ) -> Result<ExplainPlan> {
        let optimized = self.optimize(expr, db)?;
        PhysicalPlanner::new(db, stats).explain(&optimized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null};
    use certus_data::builder::rel;
    use certus_data::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..30).map(|i| vec![Value::Int(i), Value::Int(i)]).collect()),
        );
        db.insert_relation(
            "s",
            rel(&["c", "d"], (0..30).map(|i| vec![Value::Int(i), Value::Int(i)]).collect()),
        );
        db
    }

    #[test]
    fn planner_splits_or_antijoins_end_to_end() {
        let db = db();
        let q =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c")));
        let optimized = Planner::new().optimize(&q, &db).unwrap();
        // The OR split into a chain of two anti-joins…
        let mut chain = 0;
        let mut cur = &optimized;
        while let RaExpr::AntiJoin { left, .. } = cur {
            chain += 1;
            cur = left;
        }
        assert_eq!(chain, 2);
        // …and the disabled planner is the identity.
        assert_eq!(Planner::disabled().optimize(&q, &db).unwrap(), q);
    }

    #[test]
    fn planner_produces_executable_physical_plans() {
        let db = db();
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(eq("b", "d"))
            .project(&["a"]);
        let plan = Planner::new().plan(&q, &db).unwrap();
        assert!(plan.size() >= 3);
        let explain = Planner::new().explain(&q, &db).unwrap();
        assert!(explain.to_string().contains("HashJoin"), "{explain}");
    }
}
