//! # certus
//!
//! Certain-answer SQL evaluation on incomplete databases — a Rust
//! reproduction of Guagliardo & Libkin, *Making SQL Queries Correct on
//! Incomplete Databases: A Feasibility Study* (PODS 2016).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`data`] — values, nulls, 3VL, tuples, relations, incomplete databases;
//! * [`algebra`] — the relational-algebra IR and reference evaluator;
//! * [`core`] — the certain-answer translations `Q⁺`/`Q★`, the Figure 2
//!   baseline, the exact oracle and metrics;
//! * [`plan`] — the planning subsystem: the rewrite passes (including the
//!   paper's Section 7 optimizations), the physical planner, and the
//!   statistics catalog and cost model behind its `EXPLAIN` estimates;
//! * [`engine`] — hash-join based physical execution of the planner's plans;
//! * [`obs`] — observability: the process-wide metrics registry,
//!   per-execution [`QueryProfile`]s and the `EXPLAIN ANALYZE`
//!   ([`Session::explain_analyze`]) estimate-vs-actual trees;
//! * [`tpch`] — the TPC-H substrate, the paper's queries Q1–Q4 and the
//!   false-positive detectors.
//!
//! The recommended entry point is the [`Session`] facade: it owns the
//! database, wires translation → rewrite-pass pipeline → physical planning →
//! execution behind one object, caches prepared plans, and returns one error
//! type ([`CertusError`]) for all layers:
//!
//! ```
//! use certus::{Certainty, RaExpr, Session};
//! use certus::algebra::builder::eq;
//! use certus::data::{builder::rel, Database, Value};
//! use certus::data::null::NullId;
//!
//! let mut db = Database::new();
//! db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
//! db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))]]));
//! let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
//!
//! let session = Session::new(db);
//! // Plain SQL evaluation returns the false positive {1}…
//! assert_eq!(session.execute(&q, Certainty::Plain).unwrap().len(), 1);
//! // …while the certainty-preserving rewriting returns only correct
//! // answers. `prepare` plans once; re-execution does no planning work.
//! let prepared = session.prepare(&q, Certainty::CertainPlus).unwrap();
//! assert!(session.execute_prepared(&prepared).unwrap().is_empty());
//! assert_eq!(session.cache_stats().misses, 2); // one per certainty
//! ```
//!
//! The lower-level pieces (`CertainRewriter`, `PassManager`,
//! `PhysicalPlanner`, `Engine`) remain available for ablation experiments
//! and fine-grained control.

pub mod error;
pub mod session;

pub use certus_algebra as algebra;
pub use certus_core as core;
pub use certus_data as data;
pub use certus_engine as engine;
pub use certus_exec as exec;
pub use certus_obs as obs;
pub use certus_plan as plan;
pub use certus_tpch as tpch;

pub use certus_algebra::{Condition, NullSemantics, RaExpr};
pub use certus_core::{CertainOracle, CertainRewriter, ConditionDialect};
pub use certus_data::{Database, Relation, Tuple, Value};
pub use certus_engine::{Engine, EngineConfig};
pub use certus_obs::{AnalyzedPlan, MetricsSnapshot, QueryProfile};
pub use certus_plan::{Parallelism, PassManager, PhysicalPlanner, StatisticsCatalog};
pub use error::{CertusError, Result};
pub use session::{AnswerSet, Certainty, PreparedQuery, Session, SessionBuilder, SharedPlanCache};

/// The semantic version of the certus workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
