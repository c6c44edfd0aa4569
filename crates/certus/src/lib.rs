//! # certus
//!
//! Certain-answer SQL evaluation on incomplete databases — a Rust
//! reproduction of Guagliardo & Libkin, *Making SQL Queries Correct on
//! Incomplete Databases: A Feasibility Study* (PODS 2016).
//!
//! The library is one crate; its modules are the layers:
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
//!   false-positive detectors;
//! * [`exec`] — the process-wide worker pool and cancellation tokens.
//!
//! The recommended entry point is the [`Session`] facade: it owns the
//! database, wires translation → rewrite-pass pipeline → physical planning →
//! execution behind one object, caches prepared plans, and returns one error
//! type ([`Error`]) for all layers:
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
//! There is one road from a query to its answers, and `Session` walks it.
//! Every layer stays reachable through the modules above; the
//! root re-exports only what the tests, the examples and the benchmark
//! name. [`Engine::execute`] runs a hand-built logical plan without the
//! passes.

pub mod algebra;
pub mod core;
pub mod data;
pub mod engine;
pub mod error;
pub mod exec;
pub mod obs;
pub mod plan;
pub mod session;
pub mod tpch;

// The layer modules above are namespaces. The files under each layer's
// directory are modules of the crate root, as each was a root module of its
// layer's own crate before the merge, so a file's items and its tests keep
// the paths they had there (`wal::tests::…`). Each layer re-exports its files
// under its own name (`data::wal` is `pub mod wal { pub use crate::wal::*; }`).
// Two names occur in two layers, and the second of each stays a module of
// its layer: `core::metrics` (answer accounting, beside `obs::metrics`) and
// `tpch::schema` (the TPC-H tables, beside `data::schema`). `builder` serves
// two layers and sits at the root: `data::builder` re-exports its `rel`.
#[path = "engine/analyze.rs"]
mod analyze;
#[path = "obs/analyzed.rs"]
mod analyzed;
mod builder;
#[path = "plan/cache.rs"]
mod cache;
#[path = "exec/cancel.rs"]
mod cancel;
#[path = "core/certain.rs"]
mod certain;
#[path = "data/codec.rs"]
mod codec;
#[path = "data/column.rs"]
mod column;
#[path = "data/compare.rs"]
mod compare;
#[path = "engine/compile.rs"]
mod compile;
#[path = "algebra/condition.rs"]
mod condition;
#[path = "plan/cost.rs"]
mod cost;
#[path = "data/database.rs"]
mod database;
#[path = "tpch/datafiller.rs"]
mod datafiller;
#[path = "tpch/dbgen.rs"]
mod dbgen;
#[path = "core/dialect.rs"]
mod dialect;
#[path = "algebra/display.rs"]
mod display;
#[path = "plan/equi.rs"]
mod equi;
#[path = "algebra/eval.rs"]
mod eval;
#[path = "algebra/expr.rs"]
mod expr;
#[path = "obs/failpoint.rs"]
mod failpoint;
#[path = "tpch/fp_detect.rs"]
mod fp_detect;
#[path = "data/inject.rs"]
mod inject;
#[path = "data/intern.rs"]
mod intern;
#[path = "obs/json.rs"]
mod json;
#[path = "data/like.rs"]
mod like;
#[path = "obs/metrics.rs"]
mod metrics;
#[path = "core/naive_translation.rs"]
mod naive_translation;
#[path = "obs/names.rs"]
mod names;
#[path = "data/null.rs"]
mod null;
#[path = "tpch/params.rs"]
mod params;
#[path = "plan/pass.rs"]
mod pass;
#[path = "plan/passes/mod.rs"]
mod passes;
#[path = "plan/physical.rs"]
mod physical;
#[path = "obs/profile.rs"]
mod profile;
#[path = "tpch/queries.rs"]
mod queries;
#[path = "data/relation.rs"]
mod relation;
#[path = "core/rewriter.rs"]
mod rewriter;
#[path = "engine/rows.rs"]
mod rows;
#[path = "data/schema.rs"]
mod schema;
#[path = "algebra/schema_infer.rs"]
mod schema_infer;
#[path = "algebra/semantics.rs"]
mod semantics;
#[path = "data/snapshot.rs"]
mod snapshot;
#[path = "plan/stats.rs"]
mod stats;
#[path = "tpch/text.rs"]
mod text;
#[path = "core/theta.rs"]
mod theta;
#[path = "obs/time.rs"]
mod time;
#[path = "core/translate.rs"]
mod translate;
#[path = "data/truth.rs"]
mod truth;
#[path = "data/tuple.rs"]
mod tuple;
#[path = "data/types.rs"]
mod types;
#[path = "data/unify.rs"]
mod unify;
#[path = "data/valuation.rs"]
mod valuation;
#[path = "data/value.rs"]
mod value;
#[path = "engine/vector.rs"]
mod vector;
#[path = "algebra/visit.rs"]
mod visit;
#[path = "data/wal.rs"]
mod wal;
#[path = "tpch/workload.rs"]
mod workload;

pub use algebra::{Condition, NullSemantics, RaExpr};
pub use core::CertainRewriter;
pub use data::{Database, Relation, Tuple, Value};
pub use engine::{Engine, EngineConfig};
pub use error::{Error, Result};
pub use obs::{AnalyzedPlan, QueryProfile};
pub use plan::{Parallelism, StatisticsCatalog};
pub use session::{AnswerSet, Certainty, PreparedQuery, Session, SharedPlanCache};

/// The worker pool's and the planner's end-to-end tests.
#[cfg(test)]
mod tests {
    use crate::algebra::builder::{eq, is_null};
    use crate::algebra::expr::RaExpr;
    use crate::data::builder::rel;
    use crate::data::{Database, Value};
    use crate::exec::{global, Pool};
    use crate::plan::{PassManager, PhysicalPlanner, StatisticsCatalog};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

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
        let planner = PhysicalPlanner::new(&db, &stats);
        let (plan, explain) =
            (planner.plan(&optimized).unwrap(), planner.explain(&optimized).unwrap());
        assert!(plan.size() >= 3);
        // Only `a` is read above the join and the projection deduplicates.
        assert!(explain.to_string().contains("HashSemiJoin"), "{explain}");
    }

    #[test]
    fn scope_runs_all_tasks_and_borrows_environment() {
        let pool = Pool::new(4);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn results_can_be_written_into_disjoint_slots() {
        let pool = Pool::new(3);
        let mut slots = [0usize; 17];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, i * i);
        }
    }

    #[test]
    fn nested_scopes_on_worker_threads_do_not_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // A task that itself fans out: exchanges nested under
                    // union arms produce exactly this shape.
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|threads| {
            for _ in 0..6 {
                threads.spawn(|| {
                    pool.scope(|s| {
                        for _ in 0..32 {
                            s.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 32);
        assert!(pool.peak_busy_workers() <= pool.width());
    }

    #[test]
    fn worker_concurrency_is_bounded_by_width() {
        let pool = Pool::new(3);
        pool.scope(|s| {
            for _ in 0..200 {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_micros(50));
                });
            }
        });
        assert!(pool.tasks_executed() >= 200);
        assert!(pool.peak_busy_workers() <= 3);
    }

    #[test]
    fn panics_propagate_after_all_tasks_drain() {
        let pool = Pool::new(2);
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let ran = &ran;
                for i in 0..16 {
                    s.spawn(move || {
                        if i == 5 {
                            panic!("boom");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(caught.is_err());
        // Every non-panicking task still ran: the scope drains before
        // resuming the panic, so borrowed data stayed valid throughout.
        assert_eq!(ran.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn global_pool_width_is_positive() {
        assert!(global().width() >= 1);
    }
}
