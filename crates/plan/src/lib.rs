//! # certus-plan
//!
//! The query-planning subsystem of *certus*: everything between the logical
//! [`RaExpr`](certus_algebra::expr::RaExpr) a translation produces and the physical
//! plan the engine executes.
//!
//! * [`pass`] — the rewrite pipeline: a fixed, ordered list of logical
//!   passes ([`PASSES`]), each run once by [`PassManager`]. Every pass is
//!   strongly semantics-preserving (same result on every database, under
//!   both SQL and naive null semantics), so translated queries keep their
//!   certain-answer guarantee.
//! * [`passes`] — the individual passes: constant/condition folding,
//!   predicate pushdown, projection collapsing, the paper's Section 7
//!   rewrites (nullability-aware `IS NULL` pruning, OR-splitting of
//!   `NOT EXISTS` and join conditions, the key-based simplification
//!   `R ⋉̸⇑ S → R − S`), and join-to-semijoin for joins that only test
//!   existence.
//! * [`stats`] — a [`StatisticsCatalog`] of per-relation cardinalities and
//!   per-column null fractions / distinct counts computed from
//!   `certus-data` relations.
//! * [`cost`] — the cost model, in a statistics-free flavour (the seed's
//!   magic numbers) and a statistics-backed one.
//! * [`equi`] — which input of a join a column belongs to, and extraction
//!   of hash-join keys (plain and null-aware) from conditions.
//! * [`physical`] — the [`PhysicalExpr`] plan representation and the one
//!   physical planner, [`PhysicalPlanner`]: algorithms and exchanges follow
//!   from the expression and the thread count alone, statistics only feed
//!   the estimates of its [`ExplainPlan`] trees.
//! * [`cache`] — hashable plan keys ([`PlanKey`]) and the LRU [`PlanCache`]
//!   (hit/miss counters, schema-epoch invalidation) behind
//!   `certus::Session`'s prepared queries.

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
pub use pass::{Pass, PassManager, PassTrace, PASSES};
pub use physical::{
    heuristic_plan, heuristic_plan_with, ExplainPlan, JoinAlgo, Parallelism, PhysicalExpr,
    PhysicalPlanner, SemiAlgo,
};
pub use stats::{ColumnStats, StatisticsCatalog, TableStats};

/// Result alias for the planning crate.
pub type Result<T> = std::result::Result<T, PlanError>;

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null};
    use certus_algebra::expr::RaExpr;
    use certus_data::builder::rel;
    use certus_data::{Database, Value};

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
        let optimized = PassManager::standard().run(&q, &db).unwrap();
        // The OR split into a chain of two anti-joins.
        let mut chain = 0;
        let mut cur = &optimized;
        while let RaExpr::AntiJoin { left, .. } = cur {
            chain += 1;
            cur = left;
        }
        assert_eq!(chain, 2);
    }

    #[test]
    fn planner_produces_executable_physical_plans() {
        let db = db();
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(eq("b", "d"))
            .project(&["a"]);
        let optimized = PassManager::standard().run(&q, &db).unwrap();
        let stats = StatisticsCatalog::analyze(&db);
        let (plan, explain) = PhysicalPlanner::new(&db, &stats).plan_explained(&optimized).unwrap();
        assert!(plan.size() >= 3);
        // Only `a` is read above the join and the projection deduplicates.
        assert!(explain.to_string().contains("HashSemiJoin"), "{explain}");
    }
}
