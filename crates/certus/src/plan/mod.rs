//! The query-planning subsystem of *certus*: everything between the logical
//! [`RaExpr`](crate::algebra::expr::RaExpr) a translation produces and the physical
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
//!   existence and for key lookups, which go into the join input they read.
//! * [`stats`] — a [`StatisticsCatalog`] of per-relation cardinalities and
//!   per-column null fractions / distinct counts computed from
//!   `certus::data` relations.
//! * `cost` — the cost model: `cost::explain` gives every node of a
//!   physical plan, by id, row and cost estimates from a
//!   [`StatisticsCatalog`].
//! * [`equi`] — which input of a join a column belongs to, and extraction
//!   of hash-join keys (plain and null-aware) from conditions.
//! * [`physical`] — the [`PhysicalExpr`](physical::PhysicalExpr) plan
//!   representation and the one physical planner
//!   ([`physical::heuristic_plan_with`]): algorithms and exchanges follow
//!   from the expression and the thread count alone, and it takes no
//!   statistics. [`PhysicalPlanner`] pairs it with a catalog for the
//!   [`ExplainPlan`](crate::obs::ExplainPlan)s `cost::explain` estimates.
//! * [`cache`] — hashable plan keys ([`PlanKey`](cache::PlanKey)) and the
//!   LRU `PlanCache` (hit/miss counters, schema-epoch
//!   invalidation) behind `certus::Session`'s prepared queries.

pub mod cache {
    pub use crate::cache::*;
}
pub(crate) mod cost {
    pub(crate) use crate::cost::*;
}
pub mod equi {
    pub use crate::equi::*;
}
pub mod pass {
    pub use crate::pass::*;
}
pub mod passes {
    pub use crate::passes::*;
}
pub mod physical {
    pub use crate::physical::*;
}
pub mod stats {
    pub use crate::stats::*;
}

pub use equi::NullOk;
pub use pass::{PassManager, PassTrace, PASSES};
pub use physical::{Parallelism, PhysicalPlanner};
pub use stats::StatisticsCatalog;
