//! # certus-engine
//!
//! Physical execution for *certus*. The reference evaluator in
//! `certus-algebra` defines the semantics; this crate executes
//! [`certus_plan::physical::PhysicalExpr`] plans produced by the
//! `certus-plan` planner the way a real DBMS would, which is what makes the
//! paper's *price of correctness* experiments meaningful:
//!
//! * plans choose **hash joins** / **hash (anti-)semijoins** with residual
//!   predicates wherever a key exists — a plain equality, or the
//!   *null-aware* `A = B OR A IS NULL` the translation produces, which the
//!   hash operators match without the "confused optimizer" detour of
//!   Section 7 (rows with a `NULL` in such a key are checked by the full
//!   condition, everything else by the table);
//! * joins with no key at all (`A = B OR C IS NULL`, inequalities) fall back
//!   to **nested loops**;
//! * `NOT EXISTS` subqueries that are **uncorrelated** (the decorrelated
//!   null-check that the translation adds to query Q2) are evaluated once and
//!   short-circuit the whole query when they trip;
//! * plans carrying **exchange operators** (inserted by the planner when
//!   configured with a [`certus_plan::Parallelism`]) execute multi-threaded:
//!   morsel-parallel probes and filters, concurrent union arms,
//!   governed by [`EngineConfig`] (`CERTUS_THREADS` overrides the default of
//!   the machine's available parallelism).
//!
//! The cost model and equi-key analysis live in `certus-plan`.
//!
//! The engine is deliberately low-level: it borrows a database and executes
//! one plan. The `certus::Session` facade is the recommended front door — it
//! owns the database, prepares queries once (translation + pass pipeline +
//! physical planning + operator compilation, behind an LRU plan cache), and
//! drives this engine internally. [`Engine::configured`] is the one
//! constructor.
//!
//! # Native operator runtime
//!
//! [`Engine::compile`] turns a physical plan into a [`CompiledPlan`]: schema
//! inference runs once per plan, every condition becomes a compiled
//! predicate over positional accessors, join keys and
//! projection/rename/aggregate column lists are resolved to positions, and
//! filter/project/rename/distinct chains fuse into single-pass pipelines.
//! Operators hand each other row-id sets, not rows, and build tuples only
//! where a consumer needs whole rows (see [`engine`], "What an operator
//! emits").
//! [`Engine::execute_compiled`] then runs the plan with zero name lookups,
//! zero schema inference and zero logical-expression reconstruction per
//! execution — `certus::Session` caches compiled plans inside its
//! `PreparedQuery`, so repeated executions skip compilation too. The
//! semantics oracle is the reference evaluator (`certus_algebra::eval`).
//!
//! # Vectorized execution
//!
//! By default ([`EngineConfig::vectorized`], `CERTUS_VECTOR=0` to disable)
//! the hot paths run batch-at-a-time over `certus_data::column` typed
//! vectors: fused pipelines evaluate their predicates column-wise into
//! three-valued `TruthMask`s and gather survivors once, hash (semi-)join
//! keys hash column-wise into pre-sized index tables, and nested loops
//! evaluate one outer row against all inner rows at once with
//! outer-independent predicate subtrees hoisted into per-join cached masks.
//! The switch selects the evaluator inside each operator, not a second
//! implementation: every join-like operator is one per-outer-row decision
//! under one probe driver (see [`engine`]), hash keys that cannot be typed
//! are row-valued keys in the same build/probe loop, and output order is
//! probe order in every configuration.

pub mod analyze;
pub mod compile;
pub mod engine;
pub(crate) mod rows;
pub(crate) mod vector;

pub use analyze::annotate;
pub use compile::CompiledPlan;
pub use engine::{Engine, EngineConfig};
