//! The execution engine.
//!
//! Physical execution for *certus*. The reference evaluator in
//! `certus::algebra` defines the semantics; this module executes
//! [`crate::plan::physical::PhysicalExpr`] plans produced by the
//! `certus::plan` planner the way a real DBMS would, which is what makes the
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
//!   configured with a [`crate::plan::Parallelism`]) execute multi-threaded:
//!   morsel-parallel probes and filters, concurrent union arms,
//!   governed by [`EngineConfig`] (`CERTUS_THREADS` overrides the default of
//!   the machine's available parallelism).
//!
//! The cost model and equi-key analysis live in `certus::plan`.
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
//! where a consumer needs whole rows (see "What an operator emits"
//! below).
//! [`Engine::execute_compiled`] then runs the plan with zero name lookups,
//! zero schema inference and zero logical-expression reconstruction per
//! execution — `certus::Session` caches compiled plans inside its
//! `PreparedQuery`, so repeated executions skip compilation too. The
//! semantics oracle is the reference evaluator (`algebra::eval`).
//!
//! # Vectorized execution
//!
//! By default ([`EngineConfig::vectorized`], `CERTUS_VECTOR=0` to disable)
//! the hot paths run batch-at-a-time over `data::column` typed
//! vectors: fused pipelines evaluate their predicates column-wise into
//! three-valued `TruthMask`s and gather survivors once, hash operators and
//! deduplications hash their keys column-wise and probe in typed loops (see
//! `vector.rs`), and nested loops evaluate one outer row against all inner
//! rows at once with outer-independent predicate subtrees hoisted into
//! per-join cached masks. The switch selects the evaluator inside each
//! operator, not a second implementation: hash keys that cannot be typed
//! are row-valued keys in the same build/probe loops, and output order is
//! probe order in every configuration.
//!
//! # How plans run
//!
//! [`Engine::execute_physical`] compiles a [`PhysicalExpr`] produced by the
//! `certus::plan` planner into the native operator runtime
//! ([`CompiledPlan`]) and executes it. Compilation happens **once per
//! plan**: schema inference runs bottom-up over the plan (not once per
//! operator per execution), every condition and column list is resolved to
//! positional accessors, and `Filter`/`Project`/`Rename`/`Distinct` chains
//! are fused into single-pass pipelines. Execution then performs zero
//! column-name resolution, zero schema inference and zero logical-expression
//! reconstruction — per-row work is exactly the comparisons the operator
//! semantics require. Every per-node choice (hash join vs. nested loop vs.
//! decorrelated short-circuit) is read off the plan:
//!
//! * [`JoinAlgo::Hash`](crate::plan::physical::JoinAlgo::Hash) /
//!   [`SemiAlgo::Hash`](crate::plan::physical::SemiAlgo::Hash) run as **hash
//!   joins** with a residual predicate; join keys are resolved to positions
//!   at compile time. The keys may be *null-aware* — the translation's
//!   `A = B OR A IS NULL` — see "What the hash matcher decides" below;
//! * [`JoinAlgo::NestedLoop`](crate::plan::physical::JoinAlgo::NestedLoop) /
//!   [`SemiAlgo::NestedLoop`](crate::plan::physical::SemiAlgo::NestedLoop)
//!   compare every pair (the fate of conditions with no key at all, such as
//!   `A = B OR C IS NULL`) — predicates read the pair of input rows in
//!   place, so no row is built for a pair;
//! * [`SemiAlgo::Decorrelated`](crate::plan::physical::SemiAlgo::Decorrelated)
//!   evaluates the inner side once and short-circuits the whole branch — for
//!   a `NOT EXISTS` that found a witness the outer side is never touched,
//!   which is what makes the translated query Q⁺2 orders of magnitude faster
//!   than Q2, as in the paper;
//! * δ, ∪ and the deduplicating pipelines keep the first row of each key
//!   over ids, and γ groups over ids, through the hash operators' key sets
//!   (nulls as key values: a marked null equals only itself); ∩, − and the
//!   unification semijoins run natively on the relations their inputs are
//!   built into.
//!
//! [`Engine::execute`] is the convenience entry point for logical plans: it
//! plans them as given — no rewrite passes, no statistics; see
//! [`crate::plan::physical::heuristic_plan_with`] — and executes the result. The semantics oracle is the reference evaluator,
//! `algebra::eval`; the differential suites compare against it.
//!
//! # One driver per join operator
//!
//! Hash join, hash (anti-)semijoin, nested-loop join and nested-loop
//! (anti-)semijoin each prepare a matcher — a hash operator's
//! `vector::HashMatcher`, a nested loop's predicate — and hand it runs of
//! outer rows through one driver, `for_each_outer` ("append what outer rows
//! `range` produce"). The driver owns the serial-vs-morsel-parallel split,
//! the cancellation check before each run of a few hundred rows and the
//! output order. A hash operator's probe hits are counted once, from what
//! the driver returns.
//!
//! * **One typed probe loop under every hash operator.** A run of probe rows
//!   is hashed, then each valid row walks its bucket's chain in a loop
//!   monomorphised on the key column type; pairs go straight into the
//!   output, a semijoin stops at the first partner, a constant-`TRUE`
//!   residual is not evaluated. Keys that cannot be typed (mixed variants,
//!   all null), a cross-side type mismatch under naive semantics, and
//!   everything under `vectorized = false` are *row-valued* — `Value` hash
//!   and `Value ==` — in the same loop; the profile says which ran
//!   (`vec_runs` vs `row_fallbacks`). The table is always over the build
//!   side, so every probe run is cancellable and morsel-parallel.
//! * **What the hash matcher decides by hash, and what by the full
//!   condition.** The hash table decides the pairs of rows whose null-aware
//!   key columns are non-null on both sides: equal keys, then the residual.
//!   A key `A = B OR A IS NULL` is also satisfied by any row with `A` null,
//!   whatever `B` — no bucket holds those partners. Such a *wild* probe row
//!   is matched once against the whole build side by the operator's
//!   compiled **full condition**, the very predicate the nested loop
//!   evaluates (through the nested loop's column-wise evaluator when
//!   vectorized); wild build rows, when there are any, are merged into every
//!   other probe row's partners in build order. A `NULL` in a key that is
//!   not null-ok keeps its plain meaning: it never matches under SQL
//!   semantics and is an ordinary key value under naive semantics. Cost:
//!   `O(n + m + matches + nulls × other side)` instead of `O(n × m)`.
//! * **What [`EngineConfig::vectorized`] selects** is the *evaluator*, never
//!   the algorithm: typed-column vs row-valued keys, truth masks over the
//!   gathered inner columns vs per-pair scalar evaluation in nested loops,
//!   column-wise vs row-at-a-time filters in fused pipelines. Each pairing
//!   computes the same result in the same order, which is what lets the
//!   differential tests and the benchmark's cross-check use the row side as
//!   the reference for the vectorized one.
//! * **Probe order, always.** Joins emit in outer (left) input order, each
//!   outer row's partners in inner (build) input order — chains ascend;
//!   semijoins keep the survivors' input order. Morsels are contiguous
//!   index ranges concatenated in order, so this holds for every thread
//!   count, both key representations and both settings of `vectorized` —
//!   and it is the order the nested loop emits, so a plan that moves a node
//!   from nested loop to hash returns the identical relation.
//!
//! # What an operator emits
//!
//! Operators hand each other **row-id sets** (`rows.rs`), not rows: the
//! relations the rows come from — base relations borrowed in place,
//! whatever their alias, or intermediates a consumer built — per source the
//! ids of the rows, and a compile-time layout from each output position to
//! a (source, column) pair. So a join costs one id per source per output
//! row, whatever its width:
//!
//! * a scan is its relation, every row; a filter-only pipeline keeps the
//!   ids its masks select; a hash or nested-loop join appends each joining
//!   pair's ids, in probe order; a hash, nested-loop or decorrelated
//!   (anti-)semijoin keeps its left side's ids; a rename passes the set on;
//! * filters and nested-loop inner columns read typed columns gathered by id
//!   from the sources' own caches ([`Relation::column`]), and hash and dedup
//!   keys read those caches through the ids in place, so a base relation is
//!   extracted once per snapshot, not once per operator per execution;
//!   residuals, null-aware full conditions, the decorrelated predicate and
//!   row-valued keys read single values through the layout;
//! * δ and a deduplicating pipeline keep the first row of each key over
//!   ids, so tuples are built for the survivors only;
//! * tuples are built only where a consumer needs whole rows — the plan
//!   root, a projecting pipeline, union arms, ∩, −, ⋉⇑ and γ — and of
//!   the columns it reads (a projection's, γ's group and aggregate
//!   columns). Rows are `Arc<[Value]>`: one relation's rows read whole are passed on by
//!   pointer, as the answer of a filter over a scan is. The profile's
//!   `values_out` counts the values built, so it is zero wherever rows were
//!   only selected, paired or passed on.
//!
//! # Parallel execution
//!
//! Plans may contain [`PhysicalExpr::Exchange`] operators (inserted by the
//! planner when configured with a [`Parallelism`]); the compiler absorbs
//! them into the owning operator and the engine turns them into tasks
//! submitted to the process-wide work-stealing worker pool
//! ([`crate::exec::Pool`]) — no per-exchange thread spawning:
//!
//! * an exchange under a join-like operator (on a hash operator's build
//!   side, on a nested loop's outer side) marks it for a **morsel-parallel
//!   probe**: one shared build table or bound predicate, the outer side
//!   split into contiguous morsels;
//! * exchanges under a union mark its branches (the translation's split-union
//!   `Q⁺` arms) for **concurrent evaluation**;
//! * an exchange under a filter splits the input into contiguous morsels —
//!   sub-ranges of its row ids, whose columns are gathered from the cached
//!   ones — filtered in parallel.
//!
//! Nothing is hash-partitioned: every fan-out is over contiguous index
//! ranges (or whole union arms) concatenated in order. Deduplication,
//! intersection, difference and aggregation run on the calling thread —
//! one pass over a hash set or a keyed table is faster than hashing every
//! row first to route it — and so do the unification semijoins.
//!
//! With [`EngineConfig::threads`] `== 1` (or on plans without exchanges)
//! every operator runs inline on the calling thread. All parallel paths are
//! deterministic: how work is split is a pure function of the plan and
//! [`EngineConfig::threads`] (part of the plan-cache key), and results are
//! merged in input order. How many OS threads actually run the tasks is the
//! pool's width, fixed process-wide at first use (`CERTUS_THREADS`, falling
//! back to the machine's parallelism). Nested regions and concurrent queries
//! share that one pool, so the machine is never oversubscribed no matter how
//! many exchanges are in flight.

pub(crate) use crate::analyze;
pub mod compile {
    pub use crate::compile::*;
}
pub(crate) use crate::rows;
pub(crate) use crate::vector;

pub use compile::CompiledPlan;

use crate::algebra::eval::Evaluator;
use crate::algebra::expr::{AggFunc, RaExpr};
use crate::algebra::NullSemantics;
use crate::data::{Database, Relation, Schema, Tuple, Value};
use crate::obs::metrics::{registry, Counter};
use crate::obs::names;
use crate::obs::profile::NodeStats;
use crate::obs::{QueryProfile, Timer};
use crate::plan::physical::{heuristic_plan_with, Parallelism, PhysicalExpr};
use crate::{Error, Result};
use compile::{CompiledExpr, CompiledPredicate, HashKeys, Op, ScalarValues, Step};
use rows::{RowView, Rows, Slot};
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use vector::{BoundPred, Groups, HashMatcher, KeySet};

/// Runtime configuration of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads exchange operators may fan out to
    /// (1 = serial execution, and the planner inserts no exchanges).
    pub threads: usize,
    /// Minimum input work (rows for hash/filter operators, pairs for nested
    /// loops) before a parallel operator actually spawns threads; smaller
    /// inputs run inline so tiny queries never pay the scope overhead. The
    /// planner exchanges every eligible site whatever its estimated size,
    /// so this floor on actual rows is what keeps exchanges harmless on
    /// small data.
    pub parallel_floor: usize,
    /// Whether predicates and hash keys evaluate batch-at-a-time over typed
    /// columns (the default) or row-at-a-time over `Value`s. This selects
    /// the *evaluator* inside each operator, never a different algorithm or
    /// output order — kept selectable so the differential tests and
    /// benchmarks can use the row side as the reference on identical
    /// compiled plans (`CERTUS_VECTOR=0` flips the environment-driven
    /// default).
    pub vectorized: bool,
}

impl EngineConfig {
    /// Default [`EngineConfig::parallel_floor`].
    pub(crate) const DEFAULT_PARALLEL_FLOOR: usize = 1024;

    /// Serial execution: one thread, no exchange operators.
    pub fn serial() -> Self {
        EngineConfig::with_threads(1)
    }

    /// A configuration with an explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads: threads.max(1),
            parallel_floor: Self::DEFAULT_PARALLEL_FLOOR,
            vectorized: true,
        }
    }

    /// The environment-driven default: [`threads_from_env`] threads (the pool's
    /// width too), and `CERTUS_VECTOR=0` (or `false`/`off`) selects the
    /// row-at-a-time paths.
    ///
    /// [`threads_from_env`]: crate::exec::threads_from_env
    pub fn from_env() -> Self {
        let vectorized = Self::parse_vector_flag(std::env::var("CERTUS_VECTOR").ok().as_deref());
        EngineConfig::with_threads(crate::exec::threads_from_env()).with_vectorized(vectorized)
    }

    /// Interpret a `CERTUS_VECTOR` value: `0`/`false`/`off` select the
    /// row-at-a-time paths, anything else (or unset) keeps the vectorized
    /// default. Public so tests can check the parsing without mutating the
    /// process environment.
    pub fn parse_vector_flag(value: Option<&str>) -> bool {
        !value
            .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "false" | "off"))
            .unwrap_or(false)
    }

    /// Replace the parallel floor (0 forces every exchange to fan out, used
    /// by the differential tests to exercise the parallel paths on small
    /// instances).
    pub fn with_parallel_floor(mut self, rows: usize) -> Self {
        self.parallel_floor = rows;
        self
    }

    /// Select vectorized (`true`, the default) or row-at-a-time execution.
    pub fn with_vectorized(mut self, vectorized: bool) -> Self {
        self.vectorized = vectorized;
        self
    }

    /// The [`Parallelism`] the planner should plan for.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

/// The physical query engine. Holds a reference to the database, the null
/// semantics applied to conditions (SQL 3VL by default), and the runtime
/// configuration (thread count).
pub struct Engine<'a> {
    db: &'a Database,
    semantics: NullSemantics,
    config: EngineConfig,
    /// Worker pool parallel regions submit their tasks to. `None` uses the
    /// process-wide [`crate::exec::global`] pool; tests and embedders that
    /// want an isolated width inject a private pool.
    pool: Option<Arc<crate::exec::Pool>>,
    /// Cooperative cancellation, checked at morsel boundaries (operator
    /// entry and parallel partition starts). `None` means uncancellable.
    cancel: Option<crate::exec::CancelToken>,
}

impl<'a> Engine<'a> {
    /// An engine with explicit semantics and configuration — the one
    /// constructor. (`NullSemantics::Sql` with `EngineConfig::default()` is
    /// the environment-driven SQL engine.)
    ///
    /// For new code, prefer the `certus::Session` facade: it owns the
    /// database, prepares (translates + plans + compiles) queries once,
    /// caches the compiled plans, and constructs engines like this one
    /// internally per execution.
    pub fn configured(db: &'a Database, semantics: NullSemantics, config: EngineConfig) -> Self {
        Engine { db, semantics, config, pool: None, cancel: None }
    }

    /// Submit this engine's parallel tasks to `pool` instead of the
    /// process-wide [`crate::exec::global`] pool. The pool only decides
    /// *scheduling*; how work is split into morsels is a function of
    /// [`EngineConfig::threads`] alone, and output order depends on neither.
    pub(crate) fn with_worker_pool(mut self, pool: Arc<crate::exec::Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Check `token` at morsel boundaries and abandon execution with
    /// [`Error::Cancelled`] once it trips. Cancellation is
    /// cooperative: a running query stops at the next operator entry or
    /// partition start, so a tripped token bounds wasted work by roughly
    /// one morsel. Tokens carry the server's per-request deadline.
    pub(crate) fn with_cancel_token(mut self, token: crate::exec::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The morsel-boundary cancellation check.
    #[inline]
    fn check_cancelled(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(Error::Cancelled),
            _ => Ok(()),
        }
    }

    /// The worker pool parallel regions run on.
    fn pool(&self) -> &crate::exec::Pool {
        match &self.pool {
            Some(pool) => pool,
            None => crate::exec::global(),
        }
    }

    /// The engine's runtime configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The physical plan [`Engine::execute`] would run, with exchange
    /// operators iff `threads > 1`.
    pub fn plan(&self, expr: &RaExpr) -> Result<PhysicalExpr> {
        heuristic_plan_with(expr, self.db, &self.config.parallelism())
    }

    /// Execute a logical query: plan it as given (inserting exchanges when
    /// this engine is multi-threaded), then compile and execute the
    /// physical plan.
    pub fn execute(&self, expr: &RaExpr) -> Result<Relation> {
        let plan = self.plan(expr)?;
        self.execute_physical(&plan)
    }

    /// Compile a physical plan into the native operator runtime. All schema
    /// inference and column-name resolution happens here; the returned
    /// [`CompiledPlan`] owns everything it needs and can be executed any
    /// number of times, over any state of the rows (it stays valid as long
    /// as the database's schema epoch does).
    pub fn compile(&self, plan: &PhysicalExpr) -> Result<CompiledPlan> {
        CompiledPlan::compile(plan, self.db)
    }

    /// Compile and execute a physical plan, materialising its result.
    pub fn execute_physical(&self, plan: &PhysicalExpr) -> Result<Relation> {
        let compiled = self.compile(plan)?;
        self.execute_compiled(&compiled)
    }

    /// Execute an already compiled plan. Performs zero compilation work: the
    /// compiled operator tree runs with purely positional per-row work, and
    /// uncorrelated scalar subqueries are evaluated lazily, at most once per
    /// execution.
    pub fn execute_compiled(&self, plan: &CompiledPlan) -> Result<Relation> {
        self.run(plan, None)
    }

    /// Execute an already compiled plan under instrumentation: alongside the
    /// result, return a [`QueryProfile`] mirroring the compiled operator
    /// tree, with per-operator actuals — output rows, wall time, batch and
    /// morsel counts, vectorized-vs-row-fallback decisions, hash build sizes
    /// and probe hit rates, and per-filter survivor counts inside fused
    /// pipelines. The un-instrumented [`Engine::execute_compiled`] path is
    /// untouched: profiling work only happens on this call.
    ///
    /// Wall times are monotonic and inclusive (a node's time contains its
    /// children's; [`QueryProfile::self_wall_ns`] subtracts them).
    pub fn execute_compiled_profiled(
        &self,
        plan: &CompiledPlan,
    ) -> Result<(Relation, QueryProfile)> {
        let (rel, stats) = self.execute_recorded(plan)?;
        Ok((rel, analyze::profile(&plan.root, &stats)))
    }

    /// The one instrumented execution: every operator records its actuals
    /// into a table indexed by plan node id, one [`NodeStats`] per node.
    pub(crate) fn execute_recorded(
        &self,
        plan: &CompiledPlan,
    ) -> Result<(Relation, Vec<NodeStats>)> {
        let stats: Vec<NodeStats> = plan.reports.iter().map(|_| NodeStats::default()).collect();
        let rel = self.run(plan, Some(&stats))?;
        Ok((rel, stats))
    }

    /// Execute the plan's root and build the answer's rows, all of them on
    /// the root's counters (time, rows, values built).
    fn run(&self, plan: &CompiledPlan, stats: Option<&[NodeStats]>) -> Result<Relation> {
        let scalars =
            ScalarCtx { exprs: &plan.scalars, values: ScalarValues::new(plan.scalars.len()) };
        let timer = stats.map(|_| Timer::start());
        let root = stats.map(|s| &s[plan.root.id]);
        let rows = self.exec_node(&plan.root, &scalars, stats)?;
        let answer = Relation::from_parts(plan.schema().clone(), tuples(rows, None, root));
        if let (Some(p), Some(timer)) = (root, timer) {
            p.record_invocation(answer.len() as u64, timer.elapsed_ns());
        }
        Ok(answer)
    }

    /// Ensure the scalar subqueries a predicate reads have been evaluated.
    /// Called right before an operator's per-row loop, and only when that
    /// loop will actually run — so a branch the decorrelated short-circuit
    /// skips never evaluates (or surfaces errors from) its subqueries,
    /// matching the reference evaluator's lazy behaviour. The subqueries are
    /// opaque to the planner; the reference evaluator computes them.
    fn ensure_scalars(&self, scalars: &ScalarCtx<'_>, refs: &[usize]) -> Result<()> {
        for &i in refs {
            if scalars.values.is_set(i) {
                continue;
            }
            static SUBQ: OnceLock<Arc<Counter>> = OnceLock::new();
            SUBQ.get_or_init(|| registry().counter(names::ENGINE_SUBQUERY_EVALS)).incr();
            let rel = Evaluator::new(self.db, self.semantics).eval(&scalars.exprs[i])?;
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
            scalars.values.set(i, rel.tuples().first().map(|t| t[0].clone()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Native compiled execution
    // ------------------------------------------------------------------

    /// Execute one node, recording its invocation (output rows + inclusive
    /// wall time) at its id when instrumented. All recursion goes through
    /// here, so every operator gets its actuals exactly once per execution.
    fn exec<'p>(
        &'p self,
        node: &'p CompiledExpr,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
    ) -> Result<Rows<'p>> {
        match stats {
            None => self.exec_node(node, scalars, None),
            Some(s) => {
                let timer = Timer::start();
                let rows = self.exec_node(node, scalars, stats)?;
                s[node.id].record_invocation(rows.len() as u64, timer.elapsed_ns());
                Ok(rows)
            }
        }
    }

    fn exec_node<'p>(
        &'p self,
        node: &'p CompiledExpr,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
    ) -> Result<Rows<'p>> {
        // Operator entry is a morsel boundary: a cancelled query stops here
        // instead of descending into more work.
        self.check_cancelled()?;
        let prof = stats.map(|s| &s[node.id]);
        let owned = |rel: Relation| Rows::whole(Cow::Owned(rel));
        match &node.op {
            Op::Scan { name, .. } => Ok(Rows::whole(Cow::Borrowed(self.db.relation(name)?))),
            Op::Values { rel } => Ok(Rows::whole(Cow::Borrowed(rel))),
            Op::Fused { source, steps, project, schema, dedup, partitions } => {
                let input = self.exec(source, scalars, stats)?;
                let mut rows =
                    self.exec_filters(input, steps, *partitions, scalars, stats, prof)?;
                if *dedup {
                    rows = self.dedup(rows, project.as_deref());
                }
                match project {
                    None => Ok(rows),
                    Some(cols) => Ok(owned(Relation::from_parts(
                        schema.clone(),
                        tuples(rows, Some(cols), prof),
                    ))),
                }
            }
            Op::HashJoin { left, right, keys, slots, partitions, .. } => {
                let (l, r) = (self.exec(left, scalars, stats)?, self.exec(right, scalars, stats)?);
                self.hash_join(l, r, keys, slots, *partitions, scalars, prof)
            }
            Op::NlJoin { left, right, pred, slots, partitions, .. } => {
                let (l, r) = (self.exec(left, scalars, stats)?, self.exec(right, scalars, stats)?);
                self.nl_join(l, r, pred, slots, *partitions, scalars, prof)
            }
            Op::HashSemi { left, right, keys, keep_matching, partitions } => {
                let (l, r) = (self.exec(left, scalars, stats)?, self.exec(right, scalars, stats)?);
                let keep =
                    self.hash_semi(&l, &r, keys, *keep_matching, *partitions, scalars, prof)?;
                Ok(l.select(keep))
            }
            Op::NlSemi { left, right, pred, keep_matching, partitions } => {
                let (l, r) = (self.exec(left, scalars, stats)?, self.exec(right, scalars, stats)?);
                let keep =
                    self.nl_semi(&l, &r, pred, *keep_matching, *partitions, scalars, prof)?;
                Ok(l.select(keep))
            }
            Op::DecorrelatedSemi { left, right, pred, keep_matching, .. } => {
                // The predicate never looks at the outer side, so the inner
                // side decides the fate of *all* outer rows at once: the
                // witness search reads the values it inspects and nothing
                // else.
                let r = self.exec(right, scalars, stats)?;
                if let Some(p) = prof {
                    p.record_rows_in(r.len() as u64);
                }
                if !r.is_empty() {
                    self.ensure_scalars(scalars, pred.scalar_refs())?;
                }
                let exists = (0..r.len()).any(|j| {
                    pred.eval(RowView::one(&r, j), &scalars.values, self.semantics).is_true()
                });
                if exists == *keep_matching {
                    self.exec(left, scalars, stats)
                } else {
                    // Short-circuit: for a NOT EXISTS that found a witness
                    // the answer is empty and the outer side never runs.
                    Ok(Rows::empty())
                }
            }
            Op::Union { arms, schema, parallel } => {
                self.exec_union(arms, schema, *parallel, scalars, stats, prof)
            }
            Op::Intersect { left, right } => {
                let (l, r) = self.exec_both(left, right, scalars, stats, prof)?;
                Ok(owned(set_filter(l, &r, true)))
            }
            Op::Difference { left, right } => {
                let (l, r) = self.exec_both(left, right, scalars, stats, prof)?;
                Ok(owned(set_filter(l, &r, false)))
            }
            Op::UnifySemi { left, right, keep_matching } => {
                let (l, r) = self.exec_both(left, right, scalars, stats, prof)?;
                let keep = self.unify_semi(&l, &r, *keep_matching)?;
                Ok(owned(l).select(keep))
            }
            Op::Rename { input, .. } => {
                let rows = self.exec(input, scalars, stats)?;
                if let Some(p) = prof {
                    p.record_rows_in(rows.len() as u64);
                }
                Ok(rows)
            }
            Op::Distinct { input } => {
                let rows = self.exec(input, scalars, stats)?;
                if let Some(p) = prof {
                    p.record_rows_in(rows.len() as u64);
                }
                Ok(self.dedup(rows, None))
            }
            Op::Aggregate { input, group_pos, aggs, schema } => {
                let rows = self.exec(input, scalars, stats)?;
                if let Some(p) = prof {
                    p.record_rows_in(rows.len() as u64);
                }
                let groups = self.groups(&rows, group_pos);
                // A join's rows are built of the columns γ reads; one
                // relation's rows are taken whole.
                let reads = (!rows.is_one_relation()).then(|| {
                    let mut reads: Vec<usize> =
                        group_pos.iter().copied().chain(aggs.iter().filter_map(|a| a.1)).collect();
                    reads.sort_unstable();
                    reads.dedup();
                    reads
                });
                let at =
                    |p: usize| reads.as_ref().map_or(p, |r| r.binary_search(&p).expect("read"));
                let group: Vec<usize> = group_pos.iter().map(|&p| at(p)).collect();
                let aggs: Vec<_> = aggs.iter().map(|&(func, pos)| (func, pos.map(at))).collect();
                let built_schema = match &reads {
                    Some(reads) => input.schema().project(reads).shared(),
                    None => input.schema().clone(),
                };
                let rel = Relation::from_parts(built_schema, tuples(rows, reads.as_deref(), prof));
                Ok(owned(aggregate(&rel, &group, &aggs, &groups, schema)))
            }
        }
    }

    /// Execute `node` and build its rows, every column: the input of an
    /// operator that needs whole rows. The values built count on `prof`,
    /// the consumer's counters, as the rows do in its `rows_in`.
    fn exec_whole(
        &self,
        node: &CompiledExpr,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
        prof: Option<&NodeStats>,
    ) -> Result<Relation> {
        let rows = self.exec(node, scalars, stats)?;
        if let Some(p) = prof {
            p.record_rows_in(rows.len() as u64);
        }
        Ok(Relation::from_parts(node.schema().clone(), tuples(rows, None, prof)))
    }

    /// Execute both inputs of an operator that consumes them whole (the set
    /// operations, the unification semijoins), left first.
    fn exec_both(
        &self,
        left: &CompiledExpr,
        right: &CompiledExpr,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
        prof: Option<&NodeStats>,
    ) -> Result<(Relation, Relation)> {
        let l = self.exec_whole(left, scalars, stats, prof)?;
        let r = self.exec_whole(right, scalars, stats, prof)?;
        Ok((l, r))
    }

    /// Unification (anti-)semijoin: the positions of `l` that (do not)
    /// unify with a row of `r`. It compares every pair, so it runs on the
    /// probe driver and stays cancellable.
    fn unify_semi(&self, l: &Relation, r: &Relation, keep_matching: bool) -> Result<Vec<u32>> {
        self.probe_keep(l.len(), 1, keep_matching, |i| {
            r.iter().any(|rt| crate::data::unify::tuples_unify(&l.tuples()[i], rt))
        })
    }

    /// The groups of the keys of `rows` at `pos`, nulls as key values (a
    /// marked null equals only itself, as `Relation::dedup` compares
    /// tuples). The keys are typed when vectorized and every key column is
    /// already cached typed by its source (an operator below read it);
    /// others are compared by value rather than extracted to be hashed
    /// once.
    fn groups(&self, rows: &Rows<'_>, pos: &[usize]) -> Groups {
        let typed = self.config.vectorized && rows.cached(pos, self.db.str_pool());
        KeySet::build(rows, pos, true, typed, self.db.str_pool()).groups()
    }

    /// Deduplication over ids: the rows of `rows` that are the first of
    /// their key — the columns `cols`, every one for `None` — in order, so
    /// tuples are built only for the survivors. A set of at most one row is
    /// passed on untouched.
    fn dedup<'p>(&self, rows: Rows<'p>, cols: Option<&[usize]>) -> Rows<'p> {
        if rows.len() <= 1 {
            return rows;
        }
        let all: Vec<usize>;
        let pos = match cols {
            Some(cols) => cols,
            None => {
                all = (0..rows.width()).collect();
                &all
            }
        };
        let keep = self.groups(&rows, pos).firsts;
        rows.select(keep)
    }

    /// The filters of a fused pipeline over its input: the rows every filter
    /// holds on, in order — found column-wise when vectorized, row by row
    /// through [`RowView`] otherwise, in morsels (contiguous sub-ranges of
    /// the input) only when the plan carried an exchange under a filter.
    #[allow(clippy::too_many_arguments)]
    fn exec_filters<'p>(
        &self,
        input: Rows<'p>,
        steps: &[Step],
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
        prof: Option<&NodeStats>,
    ) -> Result<Rows<'p>> {
        if let Some(p) = prof {
            p.record_rows_in(input.len() as u64);
        }
        let filters: Vec<(usize, &CompiledPredicate)> = steps
            .iter()
            .filter_map(|step| match step {
                Step::Filter { id, pred } => Some((*id, pred)),
                Step::Project { .. } => None,
            })
            .collect();
        if filters.is_empty() {
            return Ok(input);
        }
        if !input.is_empty() {
            for (_, pred) in &filters {
                self.ensure_scalars(scalars, pred.scalar_refs())?;
            }
        }
        let (vectorized, semantics, values) =
            (self.config.vectorized, self.semantics, &scalars.values);
        let run_morsel = |range: &Range<usize>| -> Result<Vec<u32>> {
            if vectorized {
                let pool = self.db.str_pool();
                return Ok(vector::select(
                    &input,
                    range.clone(),
                    &filters,
                    values,
                    semantics,
                    pool,
                    stats,
                ));
            }
            let holds = |i: usize, &(id, pred): &(usize, &CompiledPredicate)| {
                let holds = pred.eval(RowView::one(&input, i), values, semantics).is_true();
                if let (true, Some(s)) = (holds, stats) {
                    s[id].record_step_rows(1);
                }
                holds
            };
            Ok(range
                .clone()
                .filter(|&i| filters.iter().all(|f| holds(i, f)))
                .map(|i| i as u32)
                .collect())
        };
        let morsels = index_ranges(input.len(), self.workers(partitions, input.len()));
        if let Some(p) = prof {
            p.record_batches(morsels.len() as u64);
            if vectorized {
                p.record_vec_run();
            }
            if morsels.len() > 1 {
                let workers = self.pool().width().min(morsels.len());
                p.record_parallel(morsels.len() as u64, workers as u64);
            }
        }
        let keep = self.parallel_flat(&morsels, run_morsel)?;
        Ok(input.select(keep))
    }

    // ------------------------------------------------------------------
    // Join-like operators: prepare the matcher, call the probe driver
    // ------------------------------------------------------------------

    /// Common entry of the four join-like operators. Ensures the predicate's
    /// scalar subqueries — only when pairs will actually be compared, so an
    /// empty side never evaluates (or surfaces errors from) them — and sizes
    /// the fan-out for `work` (rows touched by a hash operator, pairs by a
    /// nested loop).
    #[allow(clippy::too_many_arguments)]
    fn join_workers(
        &self,
        l: &Rows<'_>,
        r: &Rows<'_>,
        pred: &CompiledPredicate,
        work: usize,
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Result<usize> {
        if !l.is_empty() && !r.is_empty() {
            self.ensure_scalars(scalars, pred.scalar_refs())?;
        }
        let n = self.workers(partitions, work);
        if let Some(p) = prof {
            p.record_rows_in((l.len() + r.len()) as u64);
            if n > 1 {
                p.record_parallel(n as u64, self.pool().width().min(n) as u64);
            }
        }
        Ok(n)
    }

    /// Prepare the matcher of a hash operator ([`HashMatcher::new`]). The
    /// profile records which key representation ran (typed columns are a
    /// vectorized run, row-valued keys a row fallback when the vectorized
    /// evaluator was asked for) and how long the matcher took to build,
    /// apart from the probes.
    fn hash_matcher<'r>(
        &self,
        l: &'r Rows<'r>,
        r: &'r Rows<'r>,
        keys: &'r HashKeys,
        scalars: &'r ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> HashMatcher<'r>
    where
        'a: 'r,
    {
        let profiled = prof.map(|p| (p, Timer::start()));
        let (semantics, vectorized) = (self.semantics, self.config.vectorized);
        let pool = self.db.str_pool();
        let values = &scalars.values;
        let matcher = HashMatcher::new((l, r), keys, values, semantics, vectorized, pool);
        if let Some((p, timer)) = profiled {
            p.record_build_ns(timer.elapsed_ns());
            if matcher.is_typed() {
                p.record_vec_run();
            } else if vectorized {
                p.record_row_fallback();
            }
            p.record_build_rows(matcher.build_rows() as u64);
        }
        matcher
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join<'p>(
        &self,
        l: Rows<'p>,
        r: Rows<'p>,
        keys: &HashKeys,
        slots: &'p [Slot],
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Result<Rows<'p>> {
        let work = l.len() + r.len();
        let n =
            self.join_workers(&l, &r, keys.widest_predicate(), work, partitions, scalars, prof)?;
        let matcher = self.hash_matcher(&l, &r, keys, scalars, prof);
        let pairs = self.for_each_outer(l.len(), n, |range, out| matcher.join(range, out))?;
        drop(matcher);
        if let Some(p) = prof {
            // Pairs come in probe order: each outer row that joined heads
            // one run of them.
            let hits = pairs.chunk_by(|a, b| a.0 == b.0).count() as u64;
            p.record_probes(hits, l.len() as u64 - hits);
        }
        Ok(Rows::join(l, r, &pairs, slots))
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_semi(
        &self,
        l: &Rows<'_>,
        r: &Rows<'_>,
        keys: &HashKeys,
        keep_matching: bool,
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Result<Vec<u32>> {
        let work = l.len() + r.len();
        let n =
            self.join_workers(l, r, keys.widest_predicate(), work, partitions, scalars, prof)?;
        let matcher = self.hash_matcher(l, r, keys, scalars, prof);
        let keep = self
            .for_each_outer(l.len(), n, |range, keep| matcher.semi(range, keep_matching, keep))?;
        if let Some(p) = prof {
            let kept = keep.len() as u64;
            let hits = if keep_matching { kept } else { l.len() as u64 - kept };
            p.record_probes(hits, l.len() as u64 - hits);
        }
        Ok(keep)
    }

    /// The vectorized evaluator of a nested loop's predicate, when this
    /// execution uses one: the inner columns the predicate reads, gathered
    /// once from the inner sources' caches, its outer-independent subtrees
    /// hoisted into cached masks, so each outer row evaluates against *all*
    /// inner rows at once. `None`
    /// selects per-pair scalar evaluation: `vectorized = false`, or an empty
    /// side — there are no pairs then, and preparing eagerly evaluates the
    /// hoisted subtrees, whose scalar subqueries are only ensured when both
    /// inputs are non-empty.
    fn bind_inner<'r>(
        &self,
        pred: &CompiledPredicate,
        l: &Rows<'_>,
        r: &'r Rows<'r>,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Option<BoundPred<'r>> {
        if !self.config.vectorized || l.is_empty() || r.is_empty() {
            return None;
        }
        if let Some(p) = prof {
            p.record_vec_run();
        }
        Some(BoundPred::prepare(
            pred,
            r,
            l.width(),
            &scalars.values,
            self.semantics,
            self.db.str_pool(),
        ))
    }

    /// Call `hit(j)` for every inner row `j` outer row `i` satisfies a
    /// nested loop's predicate with, in inner order, until `hit` returns
    /// `false`: evaluated per pair, or with `bound` for all inner rows at
    /// once (the mask is whole then, so every true row is visited).
    fn nl_partners(
        &self,
        (l, i): (&Rows<'_>, usize),
        r: &Rows<'_>,
        pred: &CompiledPredicate,
        bound: Option<&BoundPred<'_>>,
        values: &ScalarValues,
        mut hit: impl FnMut(usize) -> bool,
    ) {
        match bound {
            Some(bound) => {
                let context = (values, self.semantics, self.db.str_pool());
                bound.for_each_true(RowView::one(l, i), context, |j| {
                    hit(j);
                })
            }
            None => {
                for j in 0..r.len() {
                    let holds = pred.eval(RowView::pair(l, i, r, j), values, self.semantics);
                    if holds.is_true() && !hit(j) {
                        return;
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn nl_join<'p>(
        &self,
        l: Rows<'p>,
        r: Rows<'p>,
        pred: &CompiledPredicate,
        slots: &'p [Slot],
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Result<Rows<'p>> {
        let pairs = l.len().saturating_mul(r.len());
        let n = self.join_workers(&l, &r, pred, pairs, partitions, scalars, prof)?;
        let bound = self.bind_inner(pred, &l, &r, scalars, prof);
        let pairs = self.for_each_outer(l.len(), n, |range, out| {
            for i in range {
                let hit = |j: usize| {
                    out.push((i as u32, j as u32));
                    true
                };
                self.nl_partners((&l, i), &r, pred, bound.as_ref(), &scalars.values, hit);
            }
        })?;
        drop(bound);
        Ok(Rows::join(l, r, &pairs, slots))
    }

    #[allow(clippy::too_many_arguments)]
    fn nl_semi(
        &self,
        l: &Rows<'_>,
        r: &Rows<'_>,
        pred: &CompiledPredicate,
        keep_matching: bool,
        partitions: usize,
        scalars: &ScalarCtx<'_>,
        prof: Option<&NodeStats>,
    ) -> Result<Vec<u32>> {
        let pairs = l.len().saturating_mul(r.len());
        let n = self.join_workers(l, r, pred, pairs, partitions, scalars, prof)?;
        let bound = self.bind_inner(pred, l, r, scalars, prof);
        self.probe_keep(l.len(), n, keep_matching, |i| {
            let mut matched = false;
            self.nl_partners((l, i), r, pred, bound.as_ref(), &scalars.values, |_| {
                matched = true;
                false
            });
            matched
        })
    }

    /// Execute a union: evaluate the arms (concurrently when the plan marked
    /// them and the thread budget allows it), build their rows, concatenate
    /// in arm order and deduplicate once.
    fn exec_union(
        &self,
        arms: &[CompiledExpr],
        schema: &Arc<Schema>,
        parallel: bool,
        scalars: &ScalarCtx<'_>,
        stats: Option<&[NodeStats]>,
        prof: Option<&NodeStats>,
    ) -> Result<Rows<'static>> {
        // Arm sizes are unknown before execution, so the runtime floor is
        // checked against the base rows actually feeding the arms — not the
        // whole database, which went parallel for tiny operator inputs
        // whenever the database happened to be large.
        let fan_out = parallel
            && self.config.threads > 1
            && arms.len() > 1
            && arms.iter().map(|a| self.input_rows_hint(a)).sum::<usize>()
                >= self.config.parallel_floor;
        let run = |arm: &CompiledExpr| {
            let rows = self.exec(arm, scalars, stats)?;
            Ok(tuples(rows, None, prof))
        };
        let tuples = if fan_out {
            // One pool task per arm, concatenated in arm order.
            if let Some(p) = prof {
                p.record_parallel(arms.len() as u64, self.pool().width().min(arms.len()) as u64);
            }
            self.parallel_flat(arms, run)?
        } else {
            let mut tuples = Vec::new();
            for arm in arms {
                tuples.extend(run(arm)?);
            }
            tuples
        };
        if let Some(p) = prof {
            p.record_rows_in(tuples.len() as u64);
            p.record_batches(arms.len() as u64);
        }
        // The built tuples are keyed by value: an owned relation's columns
        // are not cached.
        let rows = Rows::whole(Cow::Owned(Relation::from_parts(schema.clone(), tuples)));
        Ok(self.dedup(rows, None))
    }

    // ------------------------------------------------------------------
    // Parallel plumbing
    // ------------------------------------------------------------------

    /// Upper-bound estimate of the base rows feeding a compiled subtree: the
    /// row counts of its scans and literal relations. Used by runtime
    /// parallelism gates when an operator's true input size is unknown
    /// before execution (union arms).
    fn input_rows_hint(&self, node: &CompiledExpr) -> usize {
        match &node.op {
            Op::Scan { name, .. } => self.db.relation(name).map(|r| r.len()).unwrap_or(0),
            Op::Values { rel } => rel.len(),
            _ => node.children().into_iter().map(|c| self.input_rows_hint(c)).sum(),
        }
    }

    /// Number of workers an operator with the given plan-side partition
    /// count and input work (rows or pairs touched) actually fans out to:
    /// never more than the engine's configured threads, and 1 (inline, no
    /// thread spawned) below the configured floor — tiny inputs are not
    /// worth a scope.
    fn workers(&self, partitions: usize, work: usize) -> usize {
        if work < self.config.parallel_floor {
            1
        } else {
            // Deliberately a pure function of plan and config: this value is
            // the morsel count, so the split (and the profile reporting it)
            // is the same on every machine. How many OS threads run the
            // resulting tasks is the pool's concern — its fixed width bounds
            // oversubscription across nested regions and concurrent queries
            // alike.
            partitions.clamp(1, self.config.threads.max(1))
        }
    }

    /// The one serial-vs-parallel split of the join-like operators: run
    /// `rows` over the outer indices `0..len` — inline, or with
    /// `workers > 1` as contiguous index morsels on the pool — and return
    /// what the calls appended, in index order. Output is therefore in
    /// probe (outer input) order in every configuration. Long loops stay
    /// cancellable: `rows` is called on runs of a few hundred outer rows,
    /// and the token is checked before each. A join's `rows` appends the
    /// pairs (outer position, inner position) its outer rows join in.
    fn for_each_outer<R, F>(&self, len: usize, workers: usize, rows: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(Range<usize>, &mut Vec<R>) + Sync,
    {
        const MORSEL_ROWS: usize = 256;
        let run_morsel = |range: &Range<usize>| {
            let mut out = Vec::new();
            for start in range.clone().step_by(MORSEL_ROWS) {
                self.check_cancelled()?;
                rows(start..(start + MORSEL_ROWS).min(range.end), &mut out);
            }
            Ok(out)
        };
        if workers > 1 {
            self.parallel_flat(&index_ranges(len, workers), run_morsel)
        } else {
            run_morsel(&(0..len))
        }
    }

    /// (Anti-)semijoin driver: `matched(i)` decides whether outer row `i`
    /// has a partner, and the row is kept iff that equals `keep_matching`.
    /// Returns the kept positions, in input order.
    fn probe_keep<F>(
        &self,
        len: usize,
        workers: usize,
        keep_matching: bool,
        matched: F,
    ) -> Result<Vec<u32>>
    where
        F: Fn(usize) -> bool + Sync,
    {
        self.for_each_outer(len, workers, |range, keep| {
            keep.extend(range.filter(|&i| matched(i) == keep_matching).map(|i| i as u32));
        })
    }

    /// Run `worker` over every item. A single item (or none) runs inline on
    /// the current thread — single-partition exchanges never pay a task
    /// submission. More items become one pool task each; outputs are
    /// concatenated in item order, so callers are deterministic no matter
    /// which workers ran what.
    ///
    /// One pool task per item: the shared pool bounds how many run at once
    /// (across nested regions and concurrent queries alike), and the
    /// submitting thread helps execute tasks while it waits, so nesting
    /// cannot deadlock and idle time is spent on someone's morsels.
    fn parallel_flat<T, R, W>(&self, items: &[T], worker: W) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        W: Fn(&T) -> Result<Vec<R>> + Sync,
    {
        let mut out = Vec::new();
        if items.len() <= 1 {
            for item in items {
                out.extend(worker(item)?);
            }
            return Ok(out);
        }
        let mut slots: Vec<Option<Result<Vec<R>>>> = Vec::new();
        slots.resize_with(items.len(), || None);
        self.pool().scope(|s| {
            for (item, slot) in items.iter().zip(slots.iter_mut()) {
                let worker = &worker;
                // A partition start is a morsel boundary: once the token
                // trips, remaining partitions fail fast instead of running.
                let cancel = self.cancel.as_ref();
                s.spawn(move || {
                    *slot = Some(match cancel {
                        Some(token) if token.is_cancelled() => Err(Error::Cancelled),
                        _ => worker(item),
                    });
                });
            }
        });
        for slot in slots {
            out.extend(slot.expect("pool scope ran every task")?);
        }
        Ok(out)
    }
}

/// γ over the rows of `rel`, grouped as `groups` says: per group, in
/// first-occurrence order, its key — its first row's group columns — then
/// the aggregates over its rows, in input order. The fresh nulls of empty
/// aggregates are therefore allocated in first-occurrence order.
fn aggregate(
    rel: &Relation,
    group_pos: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    groups: &Groups,
    schema: &Arc<Schema>,
) -> Relation {
    let rows = rel.tuples();
    let mut members: Vec<Vec<&Tuple>> = vec![Vec::new(); groups.firsts.len()];
    for (row, &g) in rows.iter().zip(&groups.of_row) {
        members[g as usize].push(row);
    }
    let mut tuples: Vec<Tuple> = (groups.firsts.iter().zip(&members))
        .map(|(&first, members)| {
            let key = group_pos.iter().map(|&p| &rows[first as usize][p]);
            aggregate_row(key, aggs, members)
        })
        .collect();
    // A global aggregate over an empty input still yields a row.
    if group_pos.is_empty() && rows.is_empty() {
        tuples.push(aggregate_row(std::iter::empty(), aggs, &[]));
    }
    Relation::from_parts(schema.clone(), tuples)
}

/// Per-execution scalar-subquery context: the plan's subquery expressions
/// plus their lazily filled values (see [`ScalarValues`]).
struct ScalarCtx<'p> {
    exprs: &'p [RaExpr],
    values: ScalarValues,
}

/// The output row of one group: the group key, then the aggregates over the
/// group's `rows` — built in one allocation.
fn aggregate_row<'k>(
    key: impl Iterator<Item = &'k Value>,
    aggs: &[(AggFunc, Option<usize>)],
    rows: &[&Tuple],
) -> Tuple {
    let aggregates =
        aggs.iter().map(|(func, pos)| crate::algebra::eval::compute_aggregate(*func, *pos, rows));
    key.cloned().chain(aggregates).collect()
}

/// The tuples of `rows` — the columns `cols`, every one for `None` — with
/// the values built for them counted on `prof`.
fn tuples(rows: Rows<'_>, cols: Option<&[usize]>, prof: Option<&NodeStats>) -> Vec<Tuple> {
    let (tuples, built) = rows.into_tuples(cols);
    if let Some(p) = prof {
        p.record_values_out(built as u64);
    }
    tuples
}

/// Intersection (`want_member == true`) or difference (`false`) against the
/// right side, positionally, keeping the left schema — matching the schema
/// alignment the reference evaluator applies to set operations.
fn set_filter(l: Relation, r: &Relation, want_member: bool) -> Relation {
    let right: HashSet<&Tuple> = r.iter().collect();
    let schema = l.schema().clone();
    let mut tuples = l.into_tuples();
    tuples.retain(|t| right.contains(t) == want_member);
    Relation::from_parts(schema, tuples).into_distinct()
}

/// Split `0..len` into at most `workers` contiguous index ranges, in order
/// (the morsels of the filters and of the probe loops).
fn index_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let size = len.div_ceil(workers.max(1)).max(1);
    (0..len).step_by(size).map(|start| start..(start + size).min(len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, eq_const, is_null, neq};
    use crate::algebra::eval::eval;
    use crate::core::{CertainRewriter, ConditionDialect};
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::plan::{PassManager, PhysicalPlanner, StatisticsCatalog};
    use crate::tpch::{q1, q2, q3, q4, DbGen, QueryParams};

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    /// The environment-driven SQL engine most tests run on.
    fn sql_engine(db: &Database) -> Engine<'_> {
        Engine::configured(db, NullSemantics::Sql, EngineConfig::default())
    }

    fn assert_same_as_reference(q: &RaExpr, db: &Database) {
        let engine = sql_engine(db).execute(q).unwrap().sorted().distinct();
        let reference = eval(q, db, NullSemantics::Sql).unwrap().sorted().distinct();
        assert_eq!(engine.tuples(), reference.tuples(), "query: {q}");
    }

    #[test]
    fn the_quadratic_loop_of_unification_honours_a_tripped_token() {
        // Operator entry checks the token too, so the loop is entered
        // directly: the token trips after the inputs were computed.
        let db = Database::new();
        let l = rel(&["a", "b"], vec![vec![Value::Int(1), null(1)], vec![Value::Int(2), null(2)]]);
        let token = crate::exec::CancelToken::new();
        let engine = sql_engine(&db).with_cancel_token(token.clone());
        assert!(engine.unify_semi(&l, &l, true).is_ok());
        token.cancel();
        for keep_matching in [true, false] {
            let out = engine.unify_semi(&l, &l, keep_matching);
            assert!(matches!(out, Err(Error::Cancelled)), "{out:?}");
        }
    }

    #[test]
    fn hash_join_matches_reference() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), null(1)],
                    vec![Value::Int(3), Value::Int(30)],
                ],
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["c", "d"],
                vec![
                    vec![Value::Int(1), Value::Int(100)],
                    vec![Value::Int(1), Value::Int(200)],
                    vec![null(2), Value::Int(300)],
                ],
            ),
        );
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c"));
        assert_same_as_reference(&q, &db);
        let nl = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        assert_same_as_reference(&nl, &db);
        let with_residual =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d")));
        assert_same_as_reference(&with_residual, &db);
    }

    #[test]
    fn semi_and_anti_join_match_reference() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![null(5)]]),
        );
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![null(1)]]));
        for cond in [eq("a", "b"), eq("a", "b").or(is_null("b")), neq("a", "b")] {
            let semi = RaExpr::relation("r").semi_join(RaExpr::relation("s"), cond.clone());
            assert_same_as_reference(&semi, &db);
            let anti = RaExpr::relation("r").anti_join(RaExpr::relation("s"), cond);
            assert_same_as_reference(&anti, &db);
        }
    }

    #[test]
    fn decorrelated_not_exists_short_circuits() {
        let mut db = Database::new();
        db.insert_relation("big", rel(&["x"], (0..100).map(|i| vec![Value::Int(i)]).collect()));
        db.insert_relation("orders", rel(&["o_custkey"], vec![vec![null(1)], vec![Value::Int(1)]]));
        // NOT EXISTS (orders with null custkey) — uncorrelated, witness present.
        let q = RaExpr::relation("big").anti_join(RaExpr::relation("orders"), is_null("o_custkey"));
        let out = sql_engine(&db).execute(&q).unwrap();
        assert!(out.is_empty());
        assert_same_as_reference(&q, &db);
        // Same query but no witness: everything survives.
        let q2 = RaExpr::relation("big")
            .anti_join(RaExpr::relation("orders"), eq_const("o_custkey", 999i64));
        assert_eq!(sql_engine(&db).execute(&q2).unwrap().len(), 100);
        assert_same_as_reference(&q2, &db);
    }

    #[test]
    fn decorrelated_semi_borrows_a_base_scan_and_evaluates_anything_else() {
        let mut db = Database::new();
        db.insert_relation("big", rel(&["x"], (0..100).map(|i| vec![Value::Int(i)]).collect()));
        db.insert_relation(
            "orders",
            rel(
                &["o_orderkey", "o_custkey"],
                vec![vec![Value::Int(1), Value::Int(7)], vec![Value::Int(2), null(1)]],
            ),
        );
        db.insert_relation("none", rel(&["o_orderkey", "o_custkey"], vec![]));
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let big = || RaExpr::relation("big");
        // Over a base scan — aliased or not — the witness search reads the
        // relation in place: the scan reports its rows, and no values.
        for inner in [RaExpr::relation("orders"), RaExpr::relation_as("orders", "o")] {
            let q = big().anti_join(inner, is_null("o_custkey"));
            let compiled = engine.compile(&engine.plan(&q).unwrap()).unwrap();
            let (out, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
            assert!(out.is_empty());
            assert_eq!(profile.op, "decorrelated_semi");
            let scan = &profile.children[1];
            assert_eq!((scan.op.as_str(), scan.rows_out, scan.values_out), ("scan(orders)", 2, 0));
            assert_same_as_reference(&q, &db);
        }
        // Over anything else the inner side is executed: a filtered
        // relation (with and without a witness), an empty one.
        let filtered = |key: i64| RaExpr::relation("orders").select(eq_const("o_orderkey", key));
        for inner in [filtered(2), filtered(1), filtered(9), RaExpr::relation("none")] {
            for q in [
                big().anti_join(inner.clone(), is_null("o_custkey")),
                big().semi_join(inner, is_null("o_custkey")),
            ] {
                let plan = engine.plan(&q).unwrap();
                assert!(plan.label().contains("Decorrelated"), "{}", plan.label());
                assert_eq!(
                    engine.execute_physical(&plan).unwrap(),
                    eval(&q, &db, NullSemantics::Sql).unwrap(),
                    "query: {q}"
                );
            }
        }
    }

    #[test]
    fn semijoin_borrows_its_preserved_scan_whatever_the_alias() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..20).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect()),
        );
        db.insert_relation("s", rel(&["c"], vec![vec![Value::Int(3)], vec![null(1)]]));
        let base = db.relation("r").unwrap();
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let l1 = || RaExpr::relation_as("r", "l1");
        // Hash and nested-loop, semi and anti: the aliased scan reports its
        // rows and no values, and the answer is the base relation's rows —
        // by pointer — under the alias's schema.
        for (q, op) in [
            (l1().semi_join(RaExpr::relation("s"), eq("l1.a", "c")), "hash_semi"),
            (l1().anti_join(RaExpr::relation("s"), eq("l1.a", "c")), "hash_semi"),
            (l1().semi_join(RaExpr::relation("s"), neq("l1.a", "c")), "nl_semi"),
        ] {
            let compiled = engine.compile(&engine.plan(&q).unwrap()).unwrap();
            let (out, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
            assert_eq!(profile.op, op, "{q}");
            let scan = &profile.children[0];
            assert_eq!((scan.op.as_str(), scan.rows_out, scan.values_out), ("scan(r)", 20, 0));
            assert_eq!(out.schema().names(), vec!["l1.a", "l1.b"]);
            assert!(!out.is_empty());
            for answer in out.iter() {
                assert!(base.iter().any(|t| std::ptr::eq(answer.values(), t.values())), "{q}");
            }
            assert_same_as_reference(&q, &db);
        }
    }

    #[test]
    fn a_filter_only_answer_shares_its_rows_with_the_base_relation() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..20).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect()),
        );
        let base = db.relation("r").unwrap();
        for vectorized in [true, false] {
            let config = EngineConfig::serial().with_vectorized(vectorized);
            let engine = Engine::configured(&db, NullSemantics::Sql, config);
            let out = engine.execute(&RaExpr::relation("r").select(eq_const("a", 3i64))).unwrap();
            let survivors: Vec<_> = base.iter().filter(|t| t[0] == Value::Int(3)).collect();
            assert_eq!(out.len(), 5);
            for (answer, stored) in out.iter().zip(survivors) {
                assert!(std::ptr::eq(answer.values().as_ptr(), stored.values().as_ptr()));
            }
        }
    }

    #[test]
    fn cost_based_physical_plans_execute_identically() {
        let complete = DbGen::new(0.0002, 11).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 3).inject(&complete);
        let params = QueryParams::random(&db, 2);
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let engine = sql_engine(&db);
        for q in [q1(&params), q3(&params), q4(&params)] {
            let plan = planner.plan(&q).unwrap();
            let planned = engine.execute_physical(&plan).unwrap().sorted().distinct();
            let heuristic = engine.execute(&q).unwrap().sorted().distinct();
            assert_eq!(planned.tuples(), heuristic.tuples(), "query: {q}");
        }
    }

    #[test]
    fn full_planner_pipeline_matches_unplanned_execution() {
        let complete = DbGen::new(0.0002, 12).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 7).inject(&complete);
        let params = QueryParams::random(&db, 4);
        let engine = sql_engine(&db);
        let rewriter = CertainRewriter::unoptimized();
        for q in [q3(&params), q4(&params)] {
            let raw = rewriter.rewrite_plus(&q, &db).unwrap();
            let optimized = PassManager::standard().run(&raw, &db).unwrap();
            let a = engine.execute(&raw).unwrap().sorted().distinct();
            let b = engine.execute(&optimized).unwrap().sorted().distinct();
            assert_eq!(a.tuples(), b.tuples(), "Q pipeline changed results");
        }
    }

    #[test]
    fn tpch_queries_match_reference_on_incomplete_data() {
        let complete = DbGen::new(0.0002, 5).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 9).inject(&complete);
        let params = QueryParams::random(&db, 3);
        for q in [q1(&params), q2(&params), q3(&params), q4(&params)] {
            assert_same_as_reference(&q, &db);
        }
    }

    #[test]
    fn translated_queries_match_reference_and_stay_certain() {
        let complete = DbGen::new(0.0002, 6).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 4).inject(&complete);
        let params = QueryParams::random(&db, 1);
        let rewriter = CertainRewriter::new();
        for q in [q3(&params), q2(&params)] {
            let plus = rewriter.rewrite_plus(&q, &db).unwrap();
            assert_same_as_reference(&plus, &db);
            // Q+ answers are a subset of SQL answers for these queries.
            let sql = sql_engine(&db).execute(&q).unwrap();
            let certain = sql_engine(&db).execute(&plus).unwrap();
            for t in certain.iter() {
                assert!(sql.contains(t));
            }
        }
        assert_eq!(rewriter.dialect, ConditionDialect::Sql);
    }

    #[test]
    fn naive_semantics_engine_matches_reference() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![null(1)], vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b"));
        let engine = Engine::configured(&db, NullSemantics::Naive, EngineConfig::default())
            .execute(&q)
            .unwrap();
        let reference = eval(&q, &db, NullSemantics::Naive).unwrap();
        assert_eq!(engine.sorted().tuples(), reference.sorted().tuples());
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn compiled_runtime_matches_reference_on_the_translated_workload() {
        // The compiled runtime must agree with the reference evaluator on
        // the full translated workload, under both semantics.
        let complete = DbGen::new(0.00025, 19).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 23).inject(&complete);
        let params = QueryParams::random(&db, 8);
        let rewriter = CertainRewriter::new();
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let engine = Engine::configured(&db, semantics, EngineConfig::serial());
            for q in [q1(&params), q2(&params), q3(&params), q4(&params)] {
                let plus = rewriter.rewrite_plus(&q, &db).unwrap();
                for query in [&q, &plus] {
                    let compiled = engine.execute(query).unwrap().sorted().distinct();
                    let reference = eval(query, &db, semantics).unwrap().sorted().distinct();
                    assert_eq!(
                        compiled.tuples(),
                        reference.tuples(),
                        "{} semantics, query {query}",
                        semantics.label()
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_plans_re_execute_without_recompilation() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..20).map(|i| vec![Value::Int(i % 5), Value::Int(i)]).collect()),
        );
        db.insert_relation("s", rel(&["c"], (0..10).map(|i| vec![Value::Int(i % 4)]).collect()));
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(neq("b", "c"))
            .project(&["b"]);
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let plan = engine.plan(&q).unwrap();
        let compiled = engine.compile(&plan).unwrap();
        let first = engine.execute_compiled(&compiled).unwrap();
        let second = engine.execute_compiled(&compiled).unwrap();
        assert_eq!(first.tuples(), second.tuples());
        assert_eq!(first.sorted().distinct().tuples(), {
            let r = eval(&q, &db, NullSemantics::Sql).unwrap().sorted().distinct();
            r.tuples().to_vec()
        });
        assert_eq!(compiled.schema().names(), vec!["b"]);
    }

    #[test]
    fn fused_scan_filter_project_pipelines_match_reference() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                (0..30)
                    .map(|i| {
                        let b = if i % 6 == 0 { null(i as u64) } else { Value::Int(i) };
                        vec![Value::Int(i % 7), b]
                    })
                    .collect(),
            ),
        );
        // Filter → Project → Filter → Rename over a scan: one fused pass.
        let q = RaExpr::relation("r")
            .select(eq_const("a", 3i64).or(is_null("b")))
            .project(&["b"])
            .rename(&["x"])
            .select(is_null("x"));
        assert_same_as_reference(&q, &db);
        let distinct = RaExpr::relation("r").project(&["a"]).distinct();
        assert_same_as_reference(&distinct, &db);
    }

    #[test]
    fn partitioned_hash_join_matches_serial_under_both_semantics() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                (0..60)
                    .map(|i| {
                        let b = if i % 7 == 0 { null(i as u64) } else { Value::Int(i * 2) };
                        vec![Value::Int(i % 13), b]
                    })
                    .collect(),
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["c", "d"],
                (0..45)
                    .map(|i| {
                        let c = if i % 5 == 0 { null(100 + i as u64) } else { Value::Int(i % 13) };
                        vec![c, Value::Int(i)]
                    })
                    .collect(),
            ),
        );
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d")));
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let serial = Engine::configured(&db, semantics, EngineConfig::serial());
            let parallel = Engine::configured(
                &db,
                semantics,
                EngineConfig::with_threads(4).with_parallel_floor(0),
            );
            assert!(parallel.plan(&q).unwrap().has_exchange());
            assert_eq!(
                parallel.execute(&q).unwrap().sorted().distinct().tuples(),
                serial.execute(&q).unwrap().sorted().distinct().tuples(),
                "{} semantics",
                semantics.label()
            );
        }
    }

    #[test]
    fn partitioned_anti_join_keeps_null_keyed_tuples() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![null(9)], vec![Value::Int(3)]]),
        );
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(1)], vec![null(8)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let parallel = Engine::configured(
            &db,
            NullSemantics::Sql,
            EngineConfig::with_threads(4).with_parallel_floor(0),
        );
        let out = parallel.execute(&q).unwrap().sorted();
        // 1 matches; 3 and the null-keyed tuple survive (a null key never
        // matches a pure equality under SQL semantics).
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Tuple::new(vec![Value::Int(3)])));
        assert!(out.contains(&Tuple::new(vec![null(9)])));
        assert_same_as_reference(&q, &db);
    }

    #[test]
    fn parallel_union_arms_and_filters_match_reference() {
        let complete = DbGen::new(0.0002, 21).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 13).inject(&complete);
        let params = QueryParams::random(&db, 6);
        let rewriter = CertainRewriter::new();
        let serial = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let parallel = Engine::configured(
            &db,
            NullSemantics::Sql,
            EngineConfig::with_threads(3).with_parallel_floor(0),
        );
        // The optimized Q4+ carries split-union arms; Q3+ carries the
        // hash anti-joins. Both must agree with the serial engine.
        for q in [q3(&params), q4(&params)] {
            let plus = rewriter.rewrite_plus(&q, &db).unwrap();
            assert_eq!(
                parallel.execute(&plus).unwrap().sorted().distinct().tuples(),
                serial.execute(&plus).unwrap().sorted().distinct().tuples(),
                "query {q}"
            );
        }
        // A morsel-parallel filter via an explicitly planned exchange.
        let stats = StatisticsCatalog::analyze(&db);
        let planner =
            PhysicalPlanner::with_parallelism(&db, &stats, crate::plan::Parallelism::new(3));
        let q = RaExpr::relation("lineitem").select(is_null("l_commitdate"));
        let plan = planner.plan(&q).unwrap();
        assert!(plan.has_exchange());
        assert_eq!(
            parallel.execute_physical(&plan).unwrap().sorted().tuples(),
            serial.execute(&q).unwrap().sorted().tuples()
        );
    }

    #[test]
    fn engine_config_thread_counts_are_clamped() {
        assert_eq!(EngineConfig::serial().threads, 1);
        assert_eq!(EngineConfig::with_threads(0).threads, 1);
        assert_eq!(EngineConfig::with_threads(6).threads, 6);
        assert_eq!(EngineConfig::serial().parallel_floor, EngineConfig::DEFAULT_PARALLEL_FLOOR);
        assert_eq!(EngineConfig::with_threads(2).with_parallel_floor(0).parallel_floor, 0);
        assert!(!EngineConfig::serial().parallelism().enabled());
        assert!(EngineConfig::with_threads(2).parallelism().enabled());
    }

    #[test]
    fn aggregates_and_scalar_subqueries_run_through_the_engine() {
        let db = DbGen::new(0.0002, 2).generate();
        let params = QueryParams::random(&db, 2);
        let out = sql_engine(&db).execute(&q2(&params)).unwrap();
        let reference = eval(&q2(&params), &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.sorted().tuples(), reference.sorted().tuples());
    }

    #[test]
    fn scalar_subqueries_evaluate_lazily() {
        use crate::algebra::condition::{Condition, Operand};
        use crate::data::compare::CmpOp;
        let mut db = Database::new();
        db.insert_relation("empty", rel(&["x"], vec![]));
        db.insert_relation("two", rel(&["y"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
        db.insert_relation("witness", rel(&["w"], vec![vec![null(1)]]));
        // `two` has two rows, so using it as a scalar subquery is invalid —
        // but only if the subquery is actually evaluated.
        let invalid_scalar = |col: &str| Condition::Cmp {
            left: Operand::Col(col.into()),
            op: CmpOp::Gt,
            right: Operand::Scalar(Box::new(RaExpr::relation("two"))),
        };
        let engine = sql_engine(&db);
        // A filter over an empty input never evaluates its condition, hence
        // never the subquery — like the reference evaluator's per-row path.
        let q = RaExpr::relation("empty").select(invalid_scalar("x"));
        assert!(engine.execute(&q).unwrap().is_empty());
        // A branch skipped by the decorrelated NOT-EXISTS short-circuit
        // never evaluates its subqueries either.
        let skipped = RaExpr::relation("empty")
            .select(invalid_scalar("x"))
            .anti_join(RaExpr::relation("witness"), is_null("w"));
        let plan = engine.plan(&skipped).unwrap();
        assert!(engine.execute_physical(&plan).unwrap().is_empty());
        // On a non-empty input the invalid subquery must surface its error.
        let bad = RaExpr::relation("two").select(invalid_scalar("y"));
        assert!(engine.execute(&bad).is_err());
        // A nested-loop join whose *outer* side is empty never evaluates
        // its condition — the vectorized path must not eagerly evaluate the
        // hoisted outer-independent subtree (which reads the unensured
        // scalar) before noticing the loop is empty.
        let empty_outer = RaExpr::relation("empty")
            .join(RaExpr::relation("two"), invalid_scalar("y").or(is_null("x")));
        assert!(engine.execute(&empty_outer).unwrap().is_empty());
        let empty_outer_semi = RaExpr::relation("empty")
            .semi_join(RaExpr::relation("two"), invalid_scalar("y").or(is_null("x")));
        assert!(engine.execute(&empty_outer_semi).unwrap().is_empty());
    }

    #[test]
    fn profiled_execution_matches_and_records_actuals() {
        let complete = DbGen::new(0.0002, 31).generate();
        let db = crate::data::inject::NullInjector::new(0.05, 17).inject(&complete);
        let params = QueryParams::random(&db, 5);
        let plus = CertainRewriter::new().rewrite_plus(&q4(&params), &db).unwrap();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let phys = planner.plan(&plus).unwrap();
        let explain = planner.explain(&plus).unwrap();
        let compiled = engine.compile(&phys).unwrap();
        let plain = engine.execute_compiled(&compiled).unwrap();
        let (out, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
        // Instrumentation must not change results.
        assert_eq!(out.sorted().tuples(), plain.sorted().tuples());
        assert_eq!(profile.rows_out, out.len() as u64);
        // Wall times are inclusive: children sum to at most their parent.
        for node in profile.flatten() {
            let children: u64 = node.children.iter().map(|c| c.wall_ns).sum();
            assert!(node.wall_ns >= children, "non-inclusive wall at {}", node.op);
        }
        // The recorded table gives every plan node its actuals.
        let (_, stats) = engine.execute_recorded(&compiled).unwrap();
        let actuals = analyze::actuals(&compiled, &stats);
        assert_eq!(actuals.len(), phys.size());
        assert_eq!(explain.node_count(), phys.size());
        assert_eq!(actuals[0].rows, out.len() as u64);
        assert!(actuals.iter().all(|a| a.executed));
    }

    #[test]
    fn profiles_tag_vectorized_and_row_paths() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..50).map(|i| vec![Value::Int(i % 5), Value::Int(i)]).collect()),
        );
        let q = RaExpr::relation("r").select(eq_const("a", 3i64)).project(&["b"]);
        for vectorized in [true, false] {
            let engine = Engine::configured(
                &db,
                NullSemantics::Sql,
                EngineConfig::serial().with_vectorized(vectorized),
            );
            let plan = engine.plan(&q).unwrap();
            let compiled = engine.compile(&plan).unwrap();
            let (out, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
            let fused =
                profile.flatten().into_iter().find(|n| n.op == "fused").expect("fused node");
            assert_eq!(fused.vec_runs > 0, vectorized);
            assert_eq!(fused.rows_in, 50);
            // Both paths agree on per-filter survivor counts; the projection
            // here keeps cardinality, so they equal the pipeline's output.
            let filter_rows: Vec<u64> =
                fused.steps.iter().filter(|s| s.op == "filter").map(|s| s.rows_out).collect();
            assert_eq!(filter_rows, vec![out.len() as u64]);
        }
    }

    #[test]
    fn profiled_hash_join_records_build_and_probe_stats() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..20).map(|i| vec![Value::Int(i % 5), Value::Int(i)]).collect()),
        );
        db.insert_relation("s", rel(&["c"], (0..10).map(|i| vec![Value::Int(i % 4)]).collect()));
        let r = || RaExpr::relation("r");
        let s = || RaExpr::relation("s");
        for config in [EngineConfig::serial(), EngineConfig::with_threads(4).with_parallel_floor(0)]
        {
            let engine = Engine::configured(&db, NullSemantics::Sql, config);
            // Join, semijoin and anti-semijoin on the same key: the probe
            // side is the left input, one probe per row, hits for the keys
            // 0..=3 (16 of 20 rows) — counted once per operator, whatever
            // the morsels.
            for (q, op, rows) in [
                (r().join(s(), eq("a", "c")), "hash_join", 16 * 10 / 4),
                (r().semi_join(s(), eq("a", "c")), "hash_semi", 16),
                (r().anti_join(s(), eq("a", "c")), "hash_semi", 4),
            ] {
                let compiled = engine.compile(&engine.plan(&q).unwrap()).unwrap();
                let (_, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
                let node = profile.flatten().into_iter().find(|n| n.op == op).expect("hash node");
                let at = format!("{} threads, {q}", engine.config().threads);
                assert_eq!((node.rows_in, node.build_rows, node.rows_out), (30, 10, rows), "{at}");
                assert_eq!((node.probe_hits, node.probe_misses), (16, 4), "{at}");
                // Both scan children got their actuals.
                assert_eq!(node.children[0].rows_out, 20);
                assert_eq!(node.children[1].rows_out, 10);
            }
        }
    }
}
