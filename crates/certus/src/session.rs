//! The `Session` / `PreparedQuery` facade: one object that owns the
//! database and the whole pipeline.
//!
//! The paper's pipeline — translate `Q ↦ (Q⁺, Q★)`, run the rewrite passes,
//! plan, execute — is one road here, the same for `Q`, `Q⁺` and `Q★`: the
//! translation the [`Certainty`] selects (none for the query as written),
//! the pass list run once, the one physical planner, operator compilation.
//!
//! * [`Session::prepare`] walks that road **once** and returns a
//!   [`PreparedQuery`] that can be executed many times; prepared plans live
//!   in an LRU [plan cache](crate::plan::cache) keyed on `(expression
//!   fingerprint, certainty, schema epoch, thread count)` with hit/miss
//!   counters ([`Session::cache_stats`]); [`Session::explain`] and
//!   [`Session::explain_analyze`] walk the same road, so they show the plan
//!   `prepare` compiles, with estimates from the session's statistics;
//! * [`Certainty`] selects which translation(s) run: the plain SQL query,
//!   the certain-answer rewriting `Q⁺`, the possible-answer rewriting `Q★`,
//!   or all of them ([`Certainty::Both`]), in which case the [`AnswerSet`]
//!   carries the certain/possible breakdown of the SQL answer;
//! * plans read the catalog, never the rows, so they key on the schema
//!   epoch, which writes leave alone: a [`PreparedQuery`] sees later inserts.
//!   After a schema change (via [`Session::database_mut`]) executing it
//!   fails with [`Error::StalePlan`]; the [`StatisticsCatalog`]
//!   follows the data version instead;
//! * every method returns [`certus::error::Result`](crate::error::Result), so
//!   callers handle one error type for all five layers.

use crate::algebra::{NullSemantics, RaExpr};
use crate::core::metrics::AnswerBreakdown;
use crate::core::ConditionDialect;
use crate::data::{Database, Relation};
use crate::engine::{CompiledPlan, Engine, EngineConfig};
use crate::error::{Error, Result};
use crate::obs::metrics::{registry, Counter, Histogram};
use crate::obs::{names, ExplainPlan, QueryProfile, Timer};
use crate::plan::cache::{CacheStats, PlanCache, PlanKey};
use crate::plan::physical::{heuristic_plan_with, PhysicalExpr};
use crate::plan::{PassManager, StatisticsCatalog};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

/// Which answers a query should be prepared to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Certainty {
    /// Evaluate the query as written, with plain SQL semantics — may return
    /// false positives on incomplete databases.
    Plain,
    /// Evaluate the certain-answer rewriting `Q⁺` (Theorem 1: every returned
    /// tuple is a certain answer).
    CertainPlus,
    /// Evaluate the possible-answer rewriting `Q★` (every tuple that could
    /// be an answer under some interpretation of the nulls).
    PossibleStar,
    /// Evaluate all three and break the SQL answer down into certain answers
    /// and mere possibilities ([`AnswerSet::breakdown`]).
    Both,
}

impl Certainty {
    /// Stable tag used in plan-cache keys.
    fn variant(self) -> u8 {
        match self {
            Certainty::Plain => 0,
            Certainty::CertainPlus => 1,
            Certainty::PossibleStar => 2,
            Certainty::Both => 3,
        }
    }

    /// The answers this certainty produces, in execution order.
    fn roles(self) -> &'static [AnswerRole] {
        match self {
            Certainty::Plain => &[AnswerRole::Plain],
            Certainty::CertainPlus => &[AnswerRole::Certain],
            Certainty::PossibleStar => &[AnswerRole::Possible],
            Certainty::Both => &[AnswerRole::Plain, AnswerRole::Certain, AnswerRole::Possible],
        }
    }

    /// The answer [`AnswerSet::relation`] returns and `EXPLAIN` shows: for
    /// [`Certainty::Both`] the certain answers — the arm the breakdown is
    /// about.
    fn primary(self) -> AnswerRole {
        match self {
            Certainty::Plain => AnswerRole::Plain,
            Certainty::CertainPlus | Certainty::Both => AnswerRole::Certain,
            Certainty::PossibleStar => AnswerRole::Possible,
        }
    }
}

/// Builder for a [`Session`]; obtained from [`Session::builder`] (owned
/// database) or [`Session::builder_over`] (shared snapshot).
#[derive(Debug)]
pub struct SessionBuilder {
    db: Arc<Database>,
    semantics: NullSemantics,
    config: EngineConfig,
    cache_capacity: usize,
    cache: Option<SharedPlanCache>,
    pool: Option<Arc<crate::exec::Pool>>,
    cancel: Option<crate::exec::CancelToken>,
}

impl SessionBuilder {
    /// The null semantics conditions are evaluated under. This also selects
    /// the matching condition-translation dialect: SQL three-valued
    /// semantics pair with the SQL-adjusted dialect (the paper's Section 7
    /// pairing), naive semantics with the theoretical dialect.
    pub fn semantics(mut self, semantics: NullSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Worker threads the engine may fan out to (1 = serial; plans carry no
    /// exchange operators). Leaves the rest of the engine configuration
    /// untouched.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Replace the whole engine configuration (thread count and parallel
    /// floor).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Capacity of the LRU plan cache (clamped to ≥ 1). Ignored when a
    /// shared cache is injected via [`SessionBuilder::plan_cache`].
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Share a plan cache with other sessions instead of using a private
    /// one. All sharers hit the same LRU, so N sessions preparing the same
    /// query compile it once. Cache keys carry the expression fingerprint,
    /// certainty, semantics, schema epoch and thread count, so sessions with
    /// different configurations, or over snapshots before and after a
    /// write, can safely share one cache — as long as they run over the
    /// same database *lineage* (epochs of unrelated databases are not
    /// comparable).
    pub fn plan_cache(mut self, cache: SharedPlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Worker pool executions schedule their parallel tasks on. Sessions
    /// share the process-wide `exec::global`
    /// pool by default — set this only to isolate a session onto a private
    /// pool (e.g. to cap its CPU share, or in tests that assert pool
    /// behavior). The pool's width bounds *scheduling*, not plan shapes;
    /// [`SessionBuilder::threads`] remains the planning-side fan-out.
    pub fn worker_pool(mut self, pool: Arc<crate::exec::Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Cooperative cancellation for every execution this session runs. The
    /// engine checks the token at morsel boundaries (operator entries and
    /// parallel partition starts) and fails with [`Error::Cancelled`] once it
    /// trips. The server builds one
    /// session per request and derives the token from the request's
    /// deadline; embedders can share a token across sessions to cancel a
    /// whole batch.
    pub fn cancel_token(mut self, token: crate::exec::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        let dialect = match self.semantics {
            NullSemantics::Sql => ConditionDialect::Sql,
            NullSemantics::Naive => ConditionDialect::Theoretical,
        };
        Session {
            db: self.db,
            semantics: self.semantics,
            config: self.config,
            dialect,
            cache: self.cache.unwrap_or_else(|| SharedPlanCache::new(self.cache_capacity)),
            stats: Mutex::new(None),
            pool: self.pool,
            cancel: self.cancel,
        }
    }
}

/// A plan + compiled-plan cache shareable across sessions (and threads).
///
/// Cloning is cheap and every clone refers to the same LRU. Inject into
/// sessions with [`SessionBuilder::plan_cache`]; a session built without one
/// gets a private instance, so single-session behavior is unchanged. Keys
/// include the certainty, null semantics, schema epoch and thread count
/// next to the expression fingerprint, so differently configured sessions
/// never collide — share one cache only across sessions
/// over the same database lineage, where schema epochs are comparable.
#[derive(Debug, Clone)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<PlanCache<Arc<PreparedPlans>>>>,
}

impl SharedPlanCache {
    /// A shared cache holding up to `capacity` prepared plans (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache { inner: Arc::new(Mutex::new(PlanCache::new(capacity))) }
    }

    /// Snapshot of the cache's counters (hits, misses, evictions, epoch
    /// invalidations, current entries) across *all* sharing sessions.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCache<Arc<PreparedPlans>>> {
        self.inner.lock().expect("plan cache lock poisoned")
    }
}

/// Internal: which answer a prepared physical plan produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnswerRole {
    Plain,
    Certain,
    Possible,
}

/// Internal: the cached product of one `prepare` call — every physical plan
/// the chosen [`Certainty`] needs, fully planned **and compiled** into the
/// engine's native operator runtime (schemas inferred, column names
/// resolved, conditions compiled to positional predicates).
#[derive(Debug)]
struct PreparedPlans {
    parts: Vec<(AnswerRole, CompiledPlan)>,
}

/// A query prepared by [`Session::prepare`]: translation, rewrite-pass
/// pipeline, physical planning and operator compilation already done.
/// Executing it ([`Session::execute_prepared`]) performs zero planning *and
/// zero compilation* work — the engine runs the stored compiled operator
/// trees directly, with no schema inference, no column-name resolution and
/// no logical-expression reconstruction per execution. Cloning is cheap (the
/// plans are shared), and a prepared query outlives cache eviction.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    certainty: Certainty,
    epoch: u64,
    plans: Arc<PreparedPlans>,
}

impl PreparedQuery {
    /// The certainty variant this query was prepared for.
    pub fn certainty(&self) -> Certainty {
        self.certainty
    }

    /// The schema epoch the plans were built against. Executing against a
    /// database at a different epoch fails with [`Error::StalePlan`].
    pub fn schema_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of physical plans behind this query (1, or 3 for
    /// [`Certainty::Both`]).
    pub fn plan_count(&self) -> usize {
        self.plans.parts.len()
    }
}

/// The answers produced by executing a query under a [`Certainty`]. Only the
/// relations the certainty asked for are present; [`AnswerSet::relation`]
/// returns the primary one.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// The certainty the query ran under.
    pub certainty: Certainty,
    /// The plain SQL answer ([`Certainty::Plain`] / [`Certainty::Both`]).
    pub plain: Option<Relation>,
    /// The certain answers from `Q⁺` ([`Certainty::CertainPlus`] /
    /// [`Certainty::Both`]).
    pub certain: Option<Relation>,
    /// The possible answers from `Q★` ([`Certainty::PossibleStar`] /
    /// [`Certainty::Both`]).
    pub possible: Option<Relation>,
    /// For [`Certainty::Both`]: the SQL answer broken down into certain
    /// answers and false positives (tuples that are merely possible).
    pub breakdown: Option<AnswerBreakdown>,
}

impl AnswerSet {
    /// The primary relation of this answer set: the plain answer for
    /// [`Certainty::Plain`], the certain answers for
    /// [`Certainty::CertainPlus`] and [`Certainty::Both`], the possible
    /// answers for [`Certainty::PossibleStar`].
    pub fn relation(&self) -> &Relation {
        let primary = match self.certainty.primary() {
            AnswerRole::Plain => &self.plain,
            AnswerRole::Certain => &self.certain,
            AnswerRole::Possible => &self.possible,
        };
        primary.as_ref().expect("answer set always carries its primary relation")
    }

    /// Number of tuples in the primary relation.
    pub fn len(&self) -> usize {
        self.relation().len()
    }

    /// Whether the primary relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relation().is_empty()
    }
}

/// A session over an incomplete database: owns the [`Database`], the null
/// semantics, the engine configuration, a lazily computed statistics catalog
/// (for `EXPLAIN` estimates) and an LRU plan cache.
///
/// ```
/// use certus::{Certainty, RaExpr, Session};
/// use certus::algebra::builder::eq;
/// use certus::data::{builder::rel, Database, Value};
/// use certus::data::null::NullId;
///
/// let mut db = Database::new();
/// db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
/// db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))]]));
/// let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
///
/// let session = Session::new(db);
/// // Plain SQL evaluation returns the false positive {1}…
/// assert_eq!(session.execute(&q, Certainty::Plain).unwrap().len(), 1);
/// // …the certainty-preserving rewriting returns only correct answers, and
/// // the prepared query re-executes without any planning work.
/// let prepared = session.prepare(&q, Certainty::CertainPlus).unwrap();
/// assert!(session.execute_prepared(&prepared).unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct Session {
    db: Arc<Database>,
    semantics: NullSemantics,
    config: EngineConfig,
    dialect: ConditionDialect,
    cache: SharedPlanCache,
    stats: Mutex<Option<(u64, Arc<StatisticsCatalog>)>>,
    pool: Option<Arc<crate::exec::Pool>>,
    cancel: Option<crate::exec::CancelToken>,
}

impl Session {
    /// A session with the default configuration: SQL semantics, the
    /// environment-driven engine configuration ([`EngineConfig::from_env`])
    /// and a plan cache of `PlanCache::<()>::DEFAULT_CAPACITY` entries.
    pub fn new(db: Database) -> Self {
        Session::builder(db).build()
    }

    /// Start building a session over an owned database.
    pub fn builder(db: Database) -> SessionBuilder {
        Session::builder_over(Arc::new(db))
    }

    /// Start building a session over a *shared* database handle — typically
    /// a pinned snapshot from
    /// [`certus::data::snapshot::SnapshotStore`](crate::data::snapshot::SnapshotStore).
    /// The session holds the `Arc` without copying any data; as long as it
    /// never calls [`Session::database_mut`], it shares every relation with
    /// the other holders.
    pub fn builder_over(db: Arc<Database>) -> SessionBuilder {
        SessionBuilder {
            db,
            semantics: NullSemantics::Sql,
            config: EngineConfig::from_env(),
            cache_capacity: PlanCache::<()>::DEFAULT_CAPACITY,
            cache: None,
            pool: None,
            cancel: None,
        }
    }

    /// The session's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database. Only a schema change (a new table,
    /// another schema for one) invalidates cached plans and every existing
    /// [`PreparedQuery`]. If the database handle is shared (built via
    /// [`Session::builder_over`]), this copies it first (copy-on-write), so
    /// the other holders never observe the mutation.
    pub fn database_mut(&mut self) -> &mut Database {
        Arc::make_mut(&mut self.db)
    }

    /// Consume the session, returning the database (copied only if the
    /// handle is still shared with another holder).
    pub fn into_database(self) -> Database {
        Arc::try_unwrap(self.db).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The null semantics conditions are evaluated under.
    pub fn semantics(&self) -> NullSemantics {
        self.semantics
    }

    /// The engine configuration executions run with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The database's current schema epoch.
    pub fn schema_epoch(&self) -> u64 {
        self.db.schema_epoch()
    }

    /// Snapshot of the plan cache's counters (hits, misses, evictions,
    /// epoch invalidations, current entries).
    ///
    /// The same counters are mirrored process-wide into the
    /// [`certus::obs`](crate::obs) metrics registry under the
    /// `plan_cache.*` names, so they also appear in
    /// [`registry().snapshot()`](crate::obs::metrics::registry) next to the
    /// engine and interner metrics:
    ///
    /// ```
    /// # use certus::{Certainty, RaExpr, Session};
    /// # use certus::data::{builder::rel, Database, Value};
    /// # let mut db = Database::new();
    /// # db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
    /// # let session = Session::new(db);
    /// let before = certus::obs::registry().snapshot();
    /// session.prepare(&RaExpr::relation("r"), Certainty::Plain).unwrap();
    /// let stats = session.cache_stats();
    /// assert_eq!(stats.misses, 1);
    /// let delta = certus::obs::registry().snapshot().delta_since(&before);
    /// assert_eq!(delta.counter(certus::obs::names::PLAN_CACHE_MISSES), 1);
    /// ```
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The statistics catalog for the database's current state, computed on
    /// first use and recomputed when the data version moves.
    pub fn statistics(&self) -> Arc<StatisticsCatalog> {
        let version = self.db.version();
        let mut guard = self.stats.lock().expect("statistics lock poisoned");
        match guard.as_ref() {
            Some((cached, stats)) if *cached == version => stats.clone(),
            _ => {
                let stats = Arc::new(StatisticsCatalog::analyze(&self.db));
                *guard = Some((version, stats.clone()));
                stats
            }
        }
    }

    /// Prepare a query: run the translation selected by `certainty`, the
    /// rewrite passes, physical planning and operator compilation — once.
    /// The result is cached (keyed on the expression, the certainty, the
    /// schema epoch and the thread count), so preparing the same query again
    /// is a cache hit that does no planning work at all.
    pub fn prepare(&self, query: &RaExpr, certainty: Certainty) -> Result<PreparedQuery> {
        let epoch = self.db.schema_epoch();
        let key =
            PlanKey::new(query.clone(), self.key_variant(certainty), epoch, self.config.threads);
        {
            let mut cache = self.cache.lock();
            cache.retain_epoch(epoch);
            if let Some(plans) = cache.get(&key) {
                return Ok(PreparedQuery { certainty, epoch, plans });
            }
        }
        // Plan outside the lock: concurrent sessions-sharers keep preparing
        // other queries in parallel, and a panicking pass cannot poison the
        // cache. Two threads racing on the same key plan twice and the later
        // insert wins — wasted work, never a wrong plan.
        let plans = Arc::new(self.build_plans(query, certainty)?);
        self.cache.lock().insert(key, plans.clone());
        Ok(PreparedQuery { certainty, epoch, plans })
    }

    /// The plan-cache variant tag for this session's configuration: the
    /// certainty in the low two bits and the null semantics in bit 2 — so
    /// sessions with different semantics sharing one [`SharedPlanCache`]
    /// never exchange plans.
    fn key_variant(&self, certainty: Certainty) -> u8 {
        let semantics = match self.semantics {
            NullSemantics::Sql => 0u8,
            NullSemantics::Naive => 1u8,
        };
        certainty.variant() | (semantics << 2)
    }

    /// Execute a prepared query. Performs **zero** rewrite or planning work:
    /// the engine runs the stored physical plans directly, over the rows
    /// the database holds now. Fails with [`Error::StalePlan`] if the
    /// database's schema epoch moved since the query was prepared.
    ///
    /// Every execution bumps the `session.executions` counter and records
    /// its wall time into the `session.execute_ns` histogram of the
    /// process-wide [`certus::obs`](crate::obs) metrics registry.
    pub fn execute_prepared(&self, prepared: &PreparedQuery) -> Result<AnswerSet> {
        Ok(self.run_prepared(prepared, false)?.0)
    }

    /// [`Session::execute_prepared`] with instrumentation: returns the
    /// answers together with one [`QueryProfile`] per physical plan, in the
    /// same order as the plans ran (plain, then certain, then possible —
    /// only the roles the prepared [`Certainty`] asked for). Use
    /// [`Session::explain_analyze`] instead when the estimate-vs-actual
    /// annotated plan tree is wanted rather than the raw profiles.
    pub fn execute_prepared_profiled(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<(AnswerSet, Vec<QueryProfile>)> {
        self.run_prepared(prepared, true)
    }

    /// Shared body of the prepared-execution paths. When `profiled`, every
    /// part runs through the engine's instrumented walk and its
    /// [`QueryProfile`] is collected; otherwise the profile vector comes
    /// back empty and execution pays no instrumentation cost.
    fn run_prepared(
        &self,
        prepared: &PreparedQuery,
        profiled: bool,
    ) -> Result<(AnswerSet, Vec<QueryProfile>)> {
        static EXECUTIONS: OnceLock<Arc<Counter>> = OnceLock::new();
        static EXECUTE_NS: OnceLock<Arc<Histogram>> = OnceLock::new();
        let current = self.db.schema_epoch();
        if prepared.epoch != current {
            return Err(Error::StalePlan {
                prepared_epoch: prepared.epoch,
                current_epoch: current,
            });
        }
        let timer = Timer::start();
        let engine = self.engine();
        let (mut plain, mut certain, mut possible) = (None, None, None);
        let mut profiles = Vec::new();
        for (role, plan) in &prepared.plans.parts {
            let rel = if profiled {
                let (rel, profile) = engine.execute_compiled_profiled(plan)?;
                profiles.push(profile);
                rel
            } else {
                engine.execute_compiled(plan)?
            };
            match role {
                AnswerRole::Plain => plain = Some(rel),
                AnswerRole::Certain => certain = Some(rel),
                AnswerRole::Possible => possible = Some(rel),
            }
        }
        let breakdown = match (&plain, &certain) {
            (Some(p), Some(c)) => Some(AnswerBreakdown::new(p, c)),
            _ => None,
        };
        EXECUTIONS.get_or_init(|| registry().counter(names::SESSION_EXECUTIONS)).incr();
        EXECUTE_NS
            .get_or_init(|| registry().histogram(names::SESSION_EXECUTE_NS))
            .record(timer.elapsed_ns());
        let answers =
            AnswerSet { certainty: prepared.certainty, plain, certain, possible, breakdown };
        Ok((answers, profiles))
    }

    /// An engine over the session's database, configuration, and (when one
    /// was injected via [`SessionBuilder::worker_pool`]) private worker pool.
    fn engine(&self) -> Engine<'_> {
        let mut engine = Engine::configured(&self.db, self.semantics, self.config.clone());
        if let Some(pool) = &self.pool {
            engine = engine.with_worker_pool(pool.clone());
        }
        if let Some(token) = &self.cancel {
            engine = engine.with_cancel_token(token.clone());
        }
        engine
    }

    /// Prepare (or fetch from the cache) and execute in one call.
    pub fn execute(&self, query: &RaExpr, certainty: Certainty) -> Result<AnswerSet> {
        let prepared = self.prepare(query, certainty)?;
        self.execute_prepared(&prepared)
    }

    /// The `EXPLAIN` tree of the plan [`Session::prepare`] compiles for the
    /// translation `certainty` selects — same passes, same planner — with
    /// per-node row/cost estimates from the session's statistics catalog
    /// (computed on first use, which scans every table once). For
    /// [`Certainty::Both`] this explains the certain-answer plan `Q⁺` — the
    /// arm the breakdown is about.
    pub fn explain(&self, query: &RaExpr, certainty: Certainty) -> Result<ExplainPlan> {
        let phys = self.physical(&self.logical(query, certainty.primary())?)?;
        Ok(ExplainPlan::new(&phys, &crate::plan::cost::explain(&phys, &self.statistics()), None))
    }

    /// `EXPLAIN ANALYZE`: plan the translation `certainty` selects, execute
    /// it instrumented, and return the plan tree with the planner's
    /// *estimates* and the execution's *actuals* side by side — per-operator
    /// output rows, wall time, and `vec` / `row-fallback` path tags. Like
    /// [`Session::explain`] this is the plan [`Session::prepare`] compiles,
    /// executed with the session's semantics and engine configuration. The
    /// result renders as text via `Display` and as JSON via
    /// [`ExplainPlan::to_json`]; nodes whose actual cardinality strays far
    /// from the estimate are flagged ([`ExplainNode::diverged`]).
    ///
    /// [`ExplainNode::diverged`]: crate::obs::ExplainNode::diverged
    ///
    /// ```
    /// use certus::{Certainty, RaExpr, Session};
    /// use certus::algebra::builder::eq;
    /// use certus::data::{builder::rel, Database, Value};
    /// use certus::data::null::NullId;
    ///
    /// let mut db = Database::new();
    /// db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
    /// db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))]]));
    /// let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
    ///
    /// let session = Session::new(db);
    /// let analyzed = session.explain_analyze(&q, Certainty::CertainPlus).unwrap();
    /// let rows = analyzed.root().actual.as_ref().unwrap().rows;
    /// assert_eq!(rows, 0); // no answer is certain with ⊥ in s
    /// assert!(analyzed.to_string().contains("act=")); // estimates + actuals
    /// ```
    pub fn explain_analyze(&self, query: &RaExpr, certainty: Certainty) -> Result<ExplainPlan> {
        let expr = self.logical(query, certainty.primary())?;
        self.analyze(&self.physical(&expr)?)
    }

    /// `EXPLAIN ANALYZE` of a physical plan: compile it, execute it
    /// instrumented, and put the actuals beside the estimates.
    fn analyze(&self, phys: &PhysicalExpr) -> Result<ExplainPlan> {
        let compiled = CompiledPlan::compile(phys, &self.db)?;
        let (_, stats) = self.engine().execute_recorded(&compiled)?;
        let actuals = crate::engine::analyze::actuals(&compiled, &stats);
        let estimates = crate::plan::cost::explain(phys, &self.statistics());
        Ok(ExplainPlan::new(phys, &estimates, Some(&actuals)))
    }

    /// Every part of a prepared query, planned and compiled: physical
    /// planning picks the algorithms, compilation resolves every schema and
    /// column name once so executions do neither. No statistics scan and no
    /// explain tree — the planner takes no statistics.
    fn build_plans(&self, query: &RaExpr, certainty: Certainty) -> Result<PreparedPlans> {
        let compile = |&role: &AnswerRole| {
            let phys = self.physical(&self.logical(query, role)?)?;
            Ok((role, CompiledPlan::compile(&phys, &self.db)?))
        };
        Ok(PreparedPlans { parts: certainty.roles().iter().map(compile).collect::<Result<_>>()? })
    }

    /// The logical plan behind one answer: the query as written, `Q⁺` or
    /// `Q★`, through the rewrite passes — the same list for all three, so
    /// the price of correctness compares like with like.
    fn logical(&self, query: &RaExpr, role: AnswerRole) -> Result<RaExpr> {
        let translated = match role {
            AnswerRole::Plain => Cow::Borrowed(query),
            AnswerRole::Certain => Cow::Owned(crate::core::translate_plus(query, self.dialect)?),
            AnswerRole::Possible => Cow::Owned(crate::core::translate_star(query, self.dialect)?),
        };
        PassManager::standard().run(&translated, &*self.db)
    }

    /// The physical plan of a logical one for the session's thread count.
    fn physical(&self, expr: &RaExpr) -> Result<PhysicalExpr> {
        heuristic_plan_with(expr, &*self.db, &self.config.parallelism())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
        );
        db.insert_relation(
            "s",
            rel(&["b"], vec![vec![Value::Int(2)], vec![Value::Null(NullId(1))]]),
        );
        db
    }

    fn query() -> RaExpr {
        RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"))
    }

    #[test]
    fn plain_and_certain_answers_differ_as_in_the_paper() {
        let session = Session::new(db());
        let plain = session.execute(&query(), Certainty::Plain).unwrap();
        assert_eq!(plain.len(), 2, "SQL returns the two false positives");
        let certain = session.execute(&query(), Certainty::CertainPlus).unwrap();
        assert!(certain.is_empty(), "no answer is certain with ⊥ in s");
    }

    #[test]
    fn both_reports_the_breakdown() {
        let session = Session::new(db());
        let both = session.execute(&query(), Certainty::Both).unwrap();
        let breakdown = both.breakdown.expect("Both carries a breakdown");
        assert_eq!(breakdown.total, 2);
        assert_eq!(breakdown.certain, 0);
        assert_eq!(breakdown.false_positives, 2);
        assert!(both.plain.is_some() && both.certain.is_some() && both.possible.is_some());
        // The possible answers cover everything SQL returned.
        let possible = both.possible.as_ref().unwrap();
        for t in both.plain.as_ref().unwrap().iter() {
            assert!(possible.contains(t), "SQL answer {t} must be possible");
        }
    }

    #[test]
    fn prepared_queries_hit_the_cache() {
        let session = Session::new(db());
        let first = session.prepare(&query(), Certainty::CertainPlus).unwrap();
        let second = session.prepare(&query(), Certainty::CertainPlus).unwrap();
        assert_eq!(first.plan_count(), 1);
        assert_eq!(second.plan_count(), 1);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different certainty is a different key.
        session.prepare(&query(), Certainty::Both).unwrap();
        assert_eq!(session.cache_stats().misses, 2);
    }

    #[test]
    fn builder_settings_are_exposed() {
        let session = Session::builder(db())
            .semantics(NullSemantics::Naive)
            .threads(3)
            .cache_capacity(2)
            .build();
        assert_eq!(session.semantics(), NullSemantics::Naive);
        assert_eq!(session.config().threads, 3);
        assert_eq!(session.cache_stats().capacity, 2);
        assert_eq!(session.schema_epoch(), session.database().schema_epoch());
        let out = session.execute(&query(), Certainty::Plain).unwrap();
        // Under naive semantics ⊥ matches nothing but itself: 1 and 3 survive
        // the anti-join, and 2 is matched outright.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn explain_produces_a_tree() {
        let session = Session::new(db());
        let plan = session.explain(&query(), Certainty::CertainPlus).unwrap();
        assert!(plan.node_count() >= 1);
        assert!(!plan.to_string().is_empty());
    }

    #[test]
    fn explain_shows_the_plan_prepare_compiles() {
        fn labels(plan: &PhysicalExpr, out: &mut Vec<String>) {
            out.push(plan.label());
            plan.children().into_iter().for_each(|c| labels(c, out));
        }
        // EXPLAIN's operators, checked against what `build_plans` compiles.
        fn explained(session: &Session, query: &RaExpr, certainty: Certainty) -> Vec<String> {
            let explain = session.explain(query, certainty).unwrap();
            let explained: Vec<String> = (explain.flatten().iter())
                .map(|node| node.op.trim_end_matches(" [vec]").to_string())
                .collect();
            let expr = session.logical(query, certainty.primary()).unwrap();
            let phys = session.physical(&expr).unwrap();
            let mut prepared = Vec::new();
            labels(&phys, &mut prepared);
            let threads = session.config().threads;
            assert_eq!(explained, prepared, "{threads} threads, {certainty:?}");
            assert_eq!(phys.has_exchange(), threads > 1);
            explained
        }
        let w = crate::tpch::Workload::new(0.0002, 0.03, 42);
        let q4 = crate::tpch::q4(&w.params(&w.incomplete_instance(), 0));
        for threads in [1, 4] {
            let session = Session::builder(db()).threads(threads).build();
            for certainty in [Certainty::Plain, Certainty::CertainPlus, Certainty::PossibleStar] {
                explained(&session, &query(), certainty);
            }
            // Under Q4⁺'s NOT EXISTS only `⋈ supplier` hands a column on: the
            // other two joins are planned, shown and run as semijoins.
            let session = Session::builder(w.incomplete_instance()).threads(threads).build();
            let ops = explained(&session, &q4, Certainty::CertainPlus);
            let count = |op: &str| ops.iter().filter(|o| o.starts_with(op)).count();
            let null_aware_semijoins = ops
                .iter()
                .filter(|o| o.starts_with("HashSemiJoin [") && o.contains("null matches"))
                .count();
            assert_eq!((null_aware_semijoins, count("HashJoin [")), (2, 1), "{ops:#?}");
        }
    }

    #[test]
    fn explain_analyze_mirrors_explain_and_carries_actuals() {
        let session = Session::new(db());
        let analyzed = session.explain_analyze(&query(), Certainty::CertainPlus).unwrap();
        let explain = session.explain(&query(), Certainty::CertainPlus).unwrap();
        assert_eq!(analyzed.node_count(), explain.node_count(), "one node per explain node");
        let expected = session.execute(&query(), Certainty::CertainPlus).unwrap().len() as u64;
        let rows = |plan: &ExplainPlan| plan.root().actual.as_ref().unwrap().rows;
        assert_eq!(rows(&analyzed), expected);
        assert!(analyzed.to_string().contains("act="));
        assert!(analyzed.to_json().contains("\"rows_act\""));
        // Plain evaluation returns the two false positives; the actuals see
        // them too.
        let plain = session.explain_analyze(&query(), Certainty::Plain).unwrap();
        assert_eq!(rows(&plain), 2);
    }

    /// What a node of a plan must report under `EXPLAIN ANALYZE`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        /// The rows its sub-plan returns, executed on its own.
        Answer,
        /// Nothing, and that it never ran: it sits in the preserved side of
        /// a decorrelated (anti-)semijoin that short-circuited.
        Skipped,
        /// The concatenation of its two inputs' rows: a union flattened into
        /// the union above it deduplicates nothing of its own.
        Concatenation,
        /// Its input's rows: an exchange.
        Input,
        /// Its input's rows, labelled `before dedup`: a projection, distinct
        /// or rename fused into a chain below its top (the chain
        /// deduplicates once, at its top).
        BeforeDedup,
    }

    /// Whether a node compiles into a fused pipeline: a filter or a
    /// projection starts or extends one, a rename, a distinct or an
    /// exchange joins its input's.
    fn fused(plan: &PhysicalExpr) -> bool {
        match plan {
            PhysicalExpr::Filter { .. } | PhysicalExpr::Project { .. } => true,
            PhysicalExpr::Rename { input, .. }
            | PhysicalExpr::Distinct { input }
            | PhysicalExpr::Exchange { input, .. } => fused(input),
            _ => false,
        }
    }

    /// The nodes of `plan` in pre-order, each with what it must report.
    fn expectations<'p>(
        plan: &'p PhysicalExpr,
        engine: &Engine<'_>,
        (skipped, under_union, in_chain): (bool, bool, bool),
        out: &mut Vec<(&'p PhysicalExpr, Expect)>,
    ) {
        use crate::plan::physical::SemiAlgo;
        let union = matches!(plan, PhysicalExpr::Union { .. });
        let filter = matches!(plan, PhysicalExpr::Filter { .. });
        let exchange = matches!(plan, PhysicalExpr::Exchange { .. });
        out.push((
            plan,
            if skipped {
                Expect::Skipped
            } else if union && under_union {
                Expect::Concatenation
            } else if exchange {
                Expect::Input
            } else if in_chain && !filter {
                Expect::BeforeDedup
            } else {
                Expect::Answer
            },
        ));
        // A decorrelated semijoin's condition reads only its right side: a
        // witness there decides every left row at once.
        let short_circuits = match plan {
            PhysicalExpr::Semi { right, condition, anti, algo: SemiAlgo::Decorrelated, .. } => {
                let witnesses =
                    PhysicalExpr::Filter { input: right.clone(), condition: condition.clone() };
                engine.execute_physical(&witnesses).unwrap().is_empty() != *anti
            }
            _ => false,
        };
        let passes_union = union || (under_union && exchange);
        let chains = filter || (fused(plan) && (in_chain || !exchange));
        for (i, child) in plan.children().into_iter().enumerate() {
            let skip = skipped || (short_circuits && i == 0);
            expectations(child, engine, (skip, passes_union, chains && fused(child)), out);
        }
    }

    /// Every node `EXPLAIN ANALYZE` shows reports the rows its own sub-plan
    /// returns when executed alone: Q1–Q4 as written and under both
    /// translations on the benchmark's instance (scale 0.002, null rate
    /// 0.03, seed 42), at one thread and at four with every exchange fanning
    /// out, and two shapes that reach the compiler's fused chains and
    /// flattened unions. Three rules differ from the sub-plan's answer: a
    /// node a decorrelated semijoin's short-circuit skipped reports nothing,
    /// a union flattened into the one above it reports its inputs
    /// concatenated (the top union deduplicates once), and a projection,
    /// distinct or rename fused below a chain's top reports its input's
    /// rows and says they were counted `before dedup`.
    #[test]
    fn every_node_reports_what_its_sub_plan_returns() {
        use crate::algebra::builder::{eq_const, neq_const};
        use crate::algebra::Condition;
        use crate::data::compare::CmpOp;
        let w = crate::tpch::Workload::new(0.002, 0.03, 42);
        let db = w.incomplete_instance();
        let params = w.params(&db, 0);
        let gt = |column: &str, v: i64| Condition::cmp_const(column, CmpOp::Gt, Value::Int(v));
        // σ ρ δ π σ over a scan: one fused pipeline with every chain node.
        let chain = RaExpr::relation("lineitem")
            .select(gt("l_quantity", 25))
            .project(&["l_orderkey", "l_suppkey"])
            .distinct()
            .rename(&["okey", "skey"])
            .select(neq_const("skey", 3i64));
        // (σ ∪ σ) ∪ (σ ∪ ρ): one flattened union with two inner ones.
        let nation = || RaExpr::relation("nation");
        let unions = nation()
            .select(eq_const("n_regionkey", 1i64))
            .union(nation().select(gt("n_nationkey", 20)))
            .union(
                nation()
                    .select(gt("n_nationkey", 10))
                    .union(nation().rename(&["key", "name", "region"])),
            );
        let mut checked = [0usize; 5];
        for config in [EngineConfig::serial(), EngineConfig::with_threads(4).with_parallel_floor(0)]
        {
            let threads = config.threads;
            let session = Session::builder(db.clone()).config(config).build();
            let mut plans = Vec::new();
            for q in 1..=4 {
                let query = crate::tpch::query_by_number(q, &params).unwrap();
                for role in [AnswerRole::Plain, AnswerRole::Certain, AnswerRole::Possible] {
                    let expr = session.logical(&query, role).unwrap();
                    plans.push((format!("Q{q} {role:?}"), session.physical(&expr).unwrap()));
                }
            }
            for (name, shape) in [("chain", &chain), ("unions", &unions)] {
                plans.push((name.to_string(), session.physical(shape).unwrap()));
            }
            let engine = session.engine();
            for (name, phys) in &plans {
                let analyzed = session.analyze(phys).unwrap();
                let nodes = analyzed.flatten();
                let rows_act = |i: usize| nodes[i].actual.as_ref().unwrap().rows;
                let mut expected = Vec::new();
                expectations(phys, &engine, (false, false, false), &mut expected);
                assert_eq!(nodes.len(), expected.len(), "{threads} threads, {name}");
                for (i, (node, (sub, expect))) in nodes.iter().zip(&expected).enumerate() {
                    let at = format!("{threads} threads, {name}, node {i} {}", node.op);
                    assert_eq!(node.op.trim_end_matches(" [vec]"), sub.label(), "{at}");
                    let rows = match expect {
                        Expect::Answer => engine.execute_physical(sub).unwrap().len() as u64,
                        Expect::Skipped => 0,
                        Expect::Concatenation => {
                            let left = sub.children()[0].size();
                            rows_act(i + 1) + rows_act(i + 1 + left)
                        }
                        Expect::Input | Expect::BeforeDedup => rows_act(i + 1),
                    };
                    assert_eq!(rows_act(i), rows, "{at}:\n{analyzed}");
                    let actual = node.actual.as_ref().unwrap();
                    assert_eq!(actual.executed, *expect != Expect::Skipped, "{at}:\n{analyzed}");
                    let before_dedup = *expect == Expect::BeforeDedup;
                    assert_eq!(actual.before_dedup, before_dedup, "{at}:\n{analyzed}");
                    checked[*expect as usize] += 1;
                }
            }
        }
        // Every rule was reached: the 4 + 6 nodes Q⁺2's short-circuit skips
        // at one and four threads (all but its anti-join's sub-plans answer
        // rows), the two inner unions, the exchanges, and the chain's
        // projection, distinct and rename at both thread counts — each says
        // its rows were counted before the chain's dedup.
        let [_, skipped, concatenated, input, before_dedup] = checked;
        assert_eq!((skipped, concatenated, before_dedup), (10, 4, 6));
        assert!(input > 0, "{checked:?}");
    }

    #[test]
    fn profiled_prepared_execution_returns_one_profile_per_plan() {
        let session = Session::new(db());
        let prepared = session.prepare(&query(), Certainty::Both).unwrap();
        let (answers, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
        assert_eq!(profiles.len(), prepared.plan_count());
        // Profiles come back in plan order: plain, certain, possible.
        let expected = [
            answers.plain.as_ref().unwrap().len(),
            answers.certain.as_ref().unwrap().len(),
            answers.possible.as_ref().unwrap().len(),
        ];
        for (profile, rows) in profiles.iter().zip(expected) {
            assert_eq!(profile.rows_out, rows as u64);
            assert!(profile.node_count() >= 1);
        }
        // The unprofiled path agrees.
        let plain = session.execute_prepared(&prepared).unwrap();
        assert_eq!(plain.len(), answers.len());
    }

    #[test]
    fn shared_cache_compiles_once_across_sessions() {
        let shared = SharedPlanCache::new(16);
        let db = Arc::new(db());
        let a = Session::builder_over(db.clone()).plan_cache(shared.clone()).build();
        let b = Session::builder_over(db).plan_cache(shared.clone()).build();
        a.prepare(&query(), Certainty::CertainPlus).unwrap();
        let prepared = b.prepare(&query(), Certainty::CertainPlus).unwrap();
        let stats = shared.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "second session reuses the plan");
        assert!(b.execute_prepared(&prepared).unwrap().is_empty());
    }

    #[test]
    fn shared_cache_isolates_semantics() {
        let shared = SharedPlanCache::new(16);
        let db = Arc::new(db());
        let sql = Session::builder_over(db.clone()).plan_cache(shared.clone()).build();
        let naive = Session::builder_over(db)
            .semantics(NullSemantics::Naive)
            .plan_cache(shared.clone())
            .build();
        sql.prepare(&query(), Certainty::Plain).unwrap();
        naive.prepare(&query(), Certainty::Plain).unwrap();
        assert_eq!(shared.stats().misses, 2, "each semantics plans separately");
        // Semantics must not leak through the shared cache: naive ⊥-matching
        // differs from SQL three-valued logic on the anti-join.
        assert_eq!(sql.execute(&query(), Certainty::Plain).unwrap().len(), 2);
        assert_eq!(naive.execute(&query(), Certainty::Plain).unwrap().len(), 2);
    }

    #[test]
    fn sessions_over_one_snapshot_share_relations() {
        let db = Arc::new(db());
        let mut a = Session::builder_over(db.clone()).build();
        let b = Session::builder_over(db.clone()).build();
        // Mutating one session copies the database for it (copy-on-write)…
        a.database_mut().relation_mut("r").unwrap().insert_values(vec![Value::Int(9)]).unwrap();
        assert_eq!(a.database().relation("r").unwrap().len(), 4);
        // …while the other session and the original handle are untouched.
        assert_eq!(b.database().relation("r").unwrap().len(), 3);
        assert_eq!(db.relation("r").unwrap().len(), 3);
    }

    #[test]
    fn executions_land_in_the_metrics_registry() {
        use crate::obs::metrics::registry;
        let before = registry().snapshot();
        let session = Session::new(db());
        session.execute(&query(), Certainty::CertainPlus).unwrap();
        session.execute(&query(), Certainty::CertainPlus).unwrap();
        let delta = registry().snapshot().delta_since(&before);
        // ≥, not ==: the registry is process-wide and other tests run
        // concurrently in this process.
        assert!(delta.counter(names::SESSION_EXECUTIONS) >= 2);
        let hist = delta.histogram(names::SESSION_EXECUTE_NS);
        assert!(hist.is_some_and(|h| h.count >= 2));
    }
}
