//! One-time compilation of [`PhysicalExpr`] plans into the engine's native
//! operator runtime.
//!
//! An interpreter over [`PhysicalExpr`] would redo two kinds of work on
//! *every* execution of *every* operator: re-infer operator output schemas,
//! and resolve every column name to a position once per row via
//! `Schema::position_of`. [`CompiledPlan::compile`] does all of that exactly
//! once per plan:
//!
//! * every [`Condition`] becomes a [`CompiledPredicate`] whose operands are
//!   positional accessors — per-row evaluation performs zero name lookups and
//!   zero allocation (join residuals evaluate over the *pair* of input
//!   tuples, so non-matching pairs are never concatenated);
//! * projection, rename, aggregate and join-key column lists are resolved to
//!   positions against the plan's inferred schemas (inferred bottom-up, once);
//! * `Filter`/`Project`/`Rename`/`Distinct` chains are **fused** into a
//!   single step pipeline executed in one pass over the input — a filter
//!   directly above a scan shares the surviving rows with the base relation;
//! * an [`PhysicalExpr::Exchange`] is absorbed by the operator above it as a
//!   partition count on the compiled node — a filter peels its input, a
//!   hash operator its build side, a nested loop its outer side, a union
//!   its arms — and is the identity anywhere else;
//! * a last pass over the compiled tree (`liveness.rs`) narrows every join
//!   to the columns an ancestor reads and remaps keys, residuals and fused
//!   steps onto the narrower rows — once, here;
//! * uncorrelated scalar subqueries are collected into a per-plan table and
//!   evaluated lazily, at most once per execution, the first time an
//!   operator referencing them processes a non-empty input (they are opaque
//!   to the translations, so the reference evaluator computes them) — a
//!   branch the decorrelated short-circuit skips never evaluates its
//!   subqueries, matching the reference evaluator.
//!
//! A [`CompiledPlan`] owns everything it needs (no borrows of the database),
//! so `certus::Session` caches compiled plans inside `PreparedQuery` — a
//! prepared re-execution performs zero compilation work on top of zero
//! planning work. Compiled plans are only valid for the database state they
//! were compiled against; the session's schema-epoch guard enforces that.

use certus_algebra::condition::{Condition, Operand};
use certus_algebra::expr::{AggFunc, ProjCol, RaExpr};
use certus_algebra::schema_infer::output_schema;
use certus_algebra::{AlgebraError, NullSemantics, Result};
use certus_data::compare::{naive_cmp, sql_cmp, CmpOp};
use certus_data::like::{naive_like, sql_like};
use certus_data::{Attribute, Database, Relation, Schema, Truth, Tuple, Value, ValueType};
use certus_obs::metrics::{registry, Counter};
use certus_obs::names;
use certus_obs::ProfNode;
use certus_plan::physical::{JoinAlgo, PhysicalExpr, SemiAlgo};
use certus_plan::NullOk;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A row view over one tuple or a (left, right) pair of tuples. Join
/// predicates evaluate over the pair directly, so tuples are concatenated
/// only for pairs that actually join.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    a: &'a [Value],
    b: &'a [Value],
}

impl<'a> RowView<'a> {
    /// View of a single tuple.
    pub fn one(t: &'a Tuple) -> Self {
        RowView { a: t.values(), b: &[] }
    }

    /// View of the concatenation of two tuples (without concatenating).
    pub fn pair(l: &'a Tuple, r: &'a Tuple) -> Self {
        RowView { a: l.values(), b: r.values() }
    }

    #[inline]
    fn get(&self, i: usize) -> &'a Value {
        if i < self.a.len() {
            &self.a[i]
        } else {
            &self.b[i - self.a.len()]
        }
    }
}

/// The values of a plan's uncorrelated scalar subqueries for one execution,
/// filled lazily: the engine evaluates a subquery the first time an operator
/// that references it is about to process a non-empty input, so a branch the
/// decorrelated short-circuit skips never pays for (or surfaces errors from)
/// its subqueries — matching the reference evaluator's lazy behaviour.
#[derive(Debug, Default)]
pub struct ScalarValues {
    cells: Vec<std::sync::OnceLock<Option<Value>>>,
}

impl ScalarValues {
    /// An empty table with one unset cell per scalar subquery.
    pub(crate) fn new(count: usize) -> Self {
        ScalarValues { cells: (0..count).map(|_| std::sync::OnceLock::new()).collect() }
    }

    /// Whether the subquery at `i` has been evaluated.
    pub(crate) fn is_set(&self, i: usize) -> bool {
        self.cells[i].get().is_some()
    }

    /// Record an evaluated subquery value (first write wins; racing arms of
    /// a parallel union may both evaluate; they compute the same value).
    pub(crate) fn set(&self, i: usize, value: Option<Value>) {
        let _ = self.cells[i].set(value);
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&Value> {
        self.cells[i].get().expect("scalar subquery ensured before predicate evaluation").as_ref()
    }
}

/// A condition operand with its column reference resolved to a position.
#[derive(Debug, Clone)]
pub(crate) enum CompiledOperand {
    /// Column at a position in the (combined) input row.
    Col(usize),
    /// A constant.
    Const(Value),
    /// Index into the plan's scalar-subquery table.
    Scalar(usize),
}

impl CompiledOperand {
    #[inline]
    pub(crate) fn value<'v>(
        &'v self,
        row: RowView<'v>,
        scalars: &'v ScalarValues,
    ) -> Option<&'v Value> {
        match self {
            CompiledOperand::Col(i) => Some(row.get(*i)),
            CompiledOperand::Const(v) => Some(v),
            CompiledOperand::Scalar(i) => scalars.get(*i),
        }
    }
}

/// A [`Condition`] compiled against a fixed schema: column references are
/// positions, evaluation is infallible and allocation-free.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    pred: Pred,
    /// Indices into the plan's scalar-subquery table this predicate reads
    /// (the engine ensures they are evaluated before the per-row loop).
    scalar_refs: Vec<usize>,
}

#[derive(Debug, Clone)]
pub(crate) enum Pred {
    Const(Truth),
    Cmp { left: CompiledOperand, op: CmpOp, right: CompiledOperand },
    IsNull(CompiledOperand),
    IsNotNull(CompiledOperand),
    Like { expr: CompiledOperand, pattern: String, negated: bool },
    InList { expr: CompiledOperand, list: Vec<Value>, negated: bool },
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl CompiledPredicate {
    /// Evaluate against a row, mirroring `Evaluator::eval_condition` exactly.
    pub fn eval(
        &self,
        row: RowView<'_>,
        scalars: &ScalarValues,
        semantics: NullSemantics,
    ) -> Truth {
        self.pred.eval(row, scalars, semantics)
    }

    /// The scalar-subquery indices this predicate reads.
    pub(crate) fn scalar_refs(&self) -> &[usize] {
        &self.scalar_refs
    }

    /// The compiled predicate tree (used by the vectorized evaluator).
    pub(crate) fn pred(&self) -> &Pred {
        &self.pred
    }

    /// Replace every column reference `i` by `map[i]`, in place: re-anchors
    /// fused-pipeline filters onto the pipeline's *source* columns (looking
    /// through intermediate projections), and everything positional onto
    /// the narrower rows the liveness pass leaves.
    pub(crate) fn remap(&mut self, map: &[usize]) {
        self.pred.remap(map);
    }
}

impl Pred {
    fn remap(&mut self, map: &[usize]) {
        let op = |o: &mut CompiledOperand| {
            if let CompiledOperand::Col(i) = o {
                *i = map[*i];
            }
        };
        match self {
            Pred::Const(_) => {}
            Pred::Cmp { left, right, .. } => {
                op(left);
                op(right);
            }
            Pred::IsNull(x) | Pred::IsNotNull(x) => op(x),
            Pred::Like { expr, .. } | Pred::InList { expr, .. } => op(expr),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.remap(map);
                b.remap(map);
            }
            Pred::Not(inner) => inner.remap(map),
        }
    }

    /// Collect every column position the predicate reads.
    pub(crate) fn col_refs(&self, out: &mut Vec<usize>) {
        let op = |o: &CompiledOperand, out: &mut Vec<usize>| {
            if let CompiledOperand::Col(i) = o {
                out.push(*i);
            }
        };
        match self {
            Pred::Const(_) => {}
            Pred::Cmp { left, right, .. } => {
                op(left, out);
                op(right, out);
            }
            Pred::IsNull(x) | Pred::IsNotNull(x) => op(x, out),
            Pred::Like { expr, .. } | Pred::InList { expr, .. } => op(expr, out),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.col_refs(out);
                b.col_refs(out);
            }
            Pred::Not(inner) => inner.col_refs(out),
        }
    }

    fn eval(&self, row: RowView<'_>, scalars: &ScalarValues, semantics: NullSemantics) -> Truth {
        match self {
            Pred::Const(t) => *t,
            Pred::Cmp { left, op, right } => {
                match (left.value(row, scalars), right.value(row, scalars)) {
                    (Some(a), Some(b)) => match semantics {
                        NullSemantics::Sql => sql_cmp(a, *op, b),
                        NullSemantics::Naive => Truth::from_bool(naive_cmp(a, *op, b)),
                    },
                    // An empty scalar subquery behaves like a NULL operand.
                    _ => match semantics {
                        NullSemantics::Sql => Truth::Unknown,
                        NullSemantics::Naive => Truth::False,
                    },
                }
            }
            Pred::IsNull(x) => {
                Truth::from_bool(x.value(row, scalars).map(|v| v.is_null()).unwrap_or(true))
            }
            Pred::IsNotNull(x) => {
                Truth::from_bool(x.value(row, scalars).map(|v| v.is_const()).unwrap_or(false))
            }
            Pred::Like { expr, pattern, negated } => {
                let base = match expr.value(row, scalars) {
                    Some(v) => match semantics {
                        NullSemantics::Sql => sql_like(v, pattern),
                        NullSemantics::Naive => Truth::from_bool(naive_like(v, pattern)),
                    },
                    None => Truth::Unknown,
                };
                if *negated {
                    base.negate()
                } else {
                    base
                }
            }
            Pred::InList { expr, list, negated } => {
                let base = match expr.value(row, scalars) {
                    Some(v) => {
                        let hits = list.iter().map(|item| match semantics {
                            NullSemantics::Sql => sql_cmp(v, CmpOp::Eq, item),
                            NullSemantics::Naive => Truth::from_bool(naive_cmp(v, CmpOp::Eq, item)),
                        });
                        Truth::any(hits)
                    }
                    None => Truth::Unknown,
                };
                let base = if semantics == NullSemantics::Naive && base.is_unknown() {
                    Truth::False
                } else {
                    base
                };
                if *negated {
                    base.negate()
                } else {
                    base
                }
            }
            // Kleene connectives are total, so short-circuiting on the
            // absorbing element is result-identical to evaluating both sides.
            Pred::And(a, b) => {
                let l = a.eval(row, scalars, semantics);
                if l.is_false() {
                    Truth::False
                } else {
                    l.and(b.eval(row, scalars, semantics))
                }
            }
            Pred::Or(a, b) => {
                let l = a.eval(row, scalars, semantics);
                if l.is_true() {
                    Truth::True
                } else {
                    l.or(b.eval(row, scalars, semantics))
                }
            }
            Pred::Not(inner) => inner.eval(row, scalars, semantics).negate(),
        }
    }
}

/// A per-row step of a fused operator pipeline.
#[derive(Debug)]
pub(crate) enum Step {
    /// Drop rows whose predicate is not true.
    Filter(CompiledPredicate),
    /// Map the row onto the given positions.
    Project(Vec<usize>),
}

/// The batch-at-a-time form of a fused step chain: every filter re-anchored
/// onto the pipeline's *source* columns (intermediate projections composed
/// away — they only reorder and drop columns), so the engine can evaluate
/// all predicates column-wise over the source rows and gather the survivors
/// once at the pipeline edge.
#[derive(Debug)]
pub(crate) struct VecPlan {
    /// The filter predicates, in pipeline order, over source positions.
    pub(crate) filters: Vec<CompiledPredicate>,
    /// The source columns any filter reads (sorted, deduplicated) — the only
    /// columns worth extracting into typed vectors.
    pub(crate) cols: Vec<usize>,
    /// Output row = source row projected onto these positions (`None` when
    /// the pipeline emits the source row unchanged).
    pub(crate) gather: Option<Vec<usize>>,
}

/// Compute the [`VecPlan`] of a step chain, or `None` when the chain has no
/// filter (a pure projection/dedup chain gains nothing from batching — the
/// row path already moves rows without cloning).
pub(crate) fn vec_plan_of(steps: &[Step], source_arity: usize) -> Option<VecPlan> {
    let mut mapping: Vec<usize> = (0..source_arity).collect();
    let mut filters = Vec::new();
    for step in steps {
        match step {
            Step::Filter(pred) => {
                let mut filter = pred.clone();
                filter.remap(&mapping);
                filters.push(filter);
            }
            Step::Project(pos) => mapping = pos.iter().map(|&p| mapping[p]).collect(),
        }
    }
    if filters.is_empty() {
        return None;
    }
    let mut cols = Vec::new();
    for f in &filters {
        f.pred().col_refs(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    let identity =
        mapping.len() == source_arity && mapping.iter().enumerate().all(|(i, &p)| i == p);
    Some(VecPlan { filters, cols, gather: if identity { None } else { Some(mapping) } })
}

/// The compiled keys of a hash operator: key columns resolved to positions
/// in their own side's schema, the residual over the (left, right) pair.
#[derive(Debug)]
pub(crate) struct HashKeys {
    /// Probe-side key positions.
    pub(crate) left: Vec<usize>,
    /// Build-side key positions.
    pub(crate) right: Vec<usize>,
    /// Condition part not covered by the keys.
    pub(crate) residual: CompiledPredicate,
    /// Present iff some key is null-aware.
    pub(crate) null_aware: Option<NullAware>,
}

impl HashKeys {
    /// The widest predicate the operator may evaluate — the one whose scalar
    /// subqueries must be ensured before it runs.
    pub(crate) fn widest_predicate(&self) -> &CompiledPredicate {
        self.null_aware.as_ref().map_or(&self.residual, |n| &n.full)
    }

    /// Everything positional in the keys, for the liveness pass to remap:
    /// the key positions of each side, and every predicate over the (left,
    /// right) pair the operator may evaluate — the residual, and the full
    /// condition of null-aware keys.
    pub(crate) fn positional_parts(
        &mut self,
    ) -> (&mut [usize], &mut [usize], Vec<&mut CompiledPredicate>) {
        let mut preds = vec![&mut self.residual];
        preds.extend(self.null_aware.as_mut().map(|n| &mut n.full));
        (&mut self.left, &mut self.right, preds)
    }
}

/// What a hash operator with null-aware keys needs beyond [`HashKeys`]:
/// per key, which side's `NULL` satisfies it, and the operator's full
/// condition — the predicate a nested loop would evaluate — for the pairs a
/// `NULL` there takes away from the hash table.
#[derive(Debug)]
pub(crate) struct NullAware {
    pub(crate) null_ok: Vec<NullOk>,
    pub(crate) full: CompiledPredicate,
}

/// What a join emits of each joining (left, right) pair. Joins are the
/// operators that build new rows, so they are where column liveness
/// ([`crate::liveness`]) pays: a join emits the columns an ancestor reads
/// and nothing else.
#[derive(Debug)]
pub(crate) struct Emit {
    /// Positions in the pair — as the (possibly narrowed) inputs deliver it —
    /// to emit, in output order; `None` emits the whole pair (a plain
    /// concatenation).
    pub(crate) cols: Option<Vec<usize>>,
    /// The join's output width before liveness: the `n` of `cols=k/n`.
    pub(crate) full_width: usize,
}

impl Emit {
    /// Emit the whole pair of the given width.
    fn whole(full_width: usize) -> Emit {
        Emit { cols: None, full_width }
    }

    /// The output row of a joining pair: one allocation, live columns only.
    #[inline]
    pub(crate) fn row(&self, l: &Tuple, r: &Tuple) -> Tuple {
        match &self.cols {
            None => l.concat(r),
            Some(cols) => {
                let pair = RowView::pair(l, r);
                cols.iter().map(|&p| pair.get(p).clone()).collect()
            }
        }
    }
}

/// A compiled operator tree: schemas inferred, names resolved, conditions
/// compiled — ready for repeated execution with zero per-execution setup.
#[derive(Debug)]
pub(crate) enum CompiledExpr {
    /// Scan of a base relation (schema pre-qualified for aliases).
    Scan { name: String, schema: Arc<Schema> },
    /// A literal relation, materialised at compile time.
    Values { rel: Relation },
    /// A source expression the compiler has no native operator for —
    /// executed through the reference evaluator (planner sources are always
    /// relations or literals, so this is a defensive fallback).
    Opaque { expr: RaExpr, schema: Arc<Schema> },
    /// A fused chain of per-row steps over one source, executed in a single
    /// pass. `partitions > 0` marks an exchange under a filter of the chain
    /// (morsel-parallel execution); `dedup` marks a projection or
    /// distinct in the chain (set semantics: deduplicate the output).
    /// `vec_plan` is the batch-at-a-time form of the chain (present whenever
    /// the chain filters); the engine picks the vectorized or the row path
    /// per execution, so one compiled plan serves both.
    Fused {
        source: Box<CompiledExpr>,
        steps: Vec<Step>,
        schema: Arc<Schema>,
        dedup: bool,
        partitions: usize,
        vec_plan: Option<VecPlan>,
    },
    /// Hash join: build on the right, probe with the left, residual applied
    /// to the (left, right) pair, `emit` of each joining pair emitted.
    /// `partitions > 0` marks an exchange on the build side: the probe runs
    /// in morsels of the left side.
    HashJoin {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        keys: HashKeys,
        schema: Arc<Schema>,
        emit: Emit,
        partitions: usize,
    },
    /// Nested-loop join. `partitions > 0` marks an exchange on the outer
    /// (left) side.
    NlJoin {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        pred: CompiledPredicate,
        schema: Arc<Schema>,
        emit: Emit,
        partitions: usize,
    },
    /// Hash (anti-)semijoin. `schema` is the preserved side's, carried here
    /// so the result can be built from a borrowed base relation whatever
    /// alias the scan runs under.
    HashSemi {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        keys: HashKeys,
        keep_matching: bool,
        schema: Arc<Schema>,
        partitions: usize,
    },
    /// Nested-loop (anti-)semijoin; `schema` as for [`CompiledExpr::HashSemi`].
    NlSemi {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        pred: CompiledPredicate,
        keep_matching: bool,
        schema: Arc<Schema>,
        partitions: usize,
    },
    /// Decorrelated (anti-)semijoin: the predicate only reads the right
    /// side; the whole node short-circuits to the left input or to empty.
    DecorrelatedSemi {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        pred: CompiledPredicate,
        keep_matching: bool,
        left_schema: Arc<Schema>,
    },
    /// N-ary union (nested unions flattened; exchanges marking arms for
    /// concurrent evaluation are absorbed into `parallel`).
    Union { arms: Vec<CompiledExpr>, schema: Arc<Schema>, parallel: bool },
    /// Set intersection (positional, left schema wins — the reference
    /// evaluator's schema alignment).
    Intersect { left: Box<CompiledExpr>, right: Box<CompiledExpr> },
    /// Set difference (positional, left schema wins).
    Difference { left: Box<CompiledExpr>, right: Box<CompiledExpr> },
    /// Unification (anti-)semijoin of Definition 4.
    UnifySemi { left: Box<CompiledExpr>, right: Box<CompiledExpr>, keep_matching: bool },
    /// Relational division with divisor↔dividend column positions resolved.
    Division {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        key_positions: Vec<usize>,
        shared_positions: Vec<usize>,
        schema: Arc<Schema>,
    },
    /// Column renaming: a schema swap, no tuple work.
    Rename { input: Box<CompiledExpr>, schema: Arc<Schema> },
    /// Duplicate elimination.
    Distinct { input: Box<CompiledExpr> },
    /// Grouping and aggregation with positions resolved.
    Aggregate {
        input: Box<CompiledExpr>,
        group_pos: Vec<usize>,
        aggs: Vec<(AggFunc, Option<usize>)>,
        schema: Arc<Schema>,
    },
}

impl CompiledExpr {
    /// The output schema of this operator (computed once, at compile time).
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        match self {
            CompiledExpr::Scan { schema, .. }
            | CompiledExpr::Opaque { schema, .. }
            | CompiledExpr::Fused { schema, .. }
            | CompiledExpr::HashJoin { schema, .. }
            | CompiledExpr::NlJoin { schema, .. }
            | CompiledExpr::HashSemi { schema, .. }
            | CompiledExpr::NlSemi { schema, .. }
            | CompiledExpr::Union { schema, .. }
            | CompiledExpr::Division { schema, .. }
            | CompiledExpr::Rename { schema, .. }
            | CompiledExpr::Aggregate { schema, .. } => schema,
            CompiledExpr::Values { rel } => rel.schema(),
            CompiledExpr::DecorrelatedSemi { left_schema, .. } => left_schema,
            CompiledExpr::Intersect { left, .. }
            | CompiledExpr::Difference { left, .. }
            | CompiledExpr::UnifySemi { left, .. } => left.schema(),
            CompiledExpr::Distinct { input, .. } => input.schema(),
        }
    }
}

/// A fully compiled physical plan: the operator tree plus the table of
/// uncorrelated scalar subqueries it references. Owns everything — no borrow
/// of the database — so it can be cached across executions.
#[derive(Debug)]
pub struct CompiledPlan {
    pub(crate) root: CompiledExpr,
    pub(crate) scalars: Vec<RaExpr>,
}

impl CompiledPlan {
    /// Compile a physical plan against a database catalog. Schema inference
    /// and every column-name resolution happen here, once; executing the
    /// result performs neither.
    ///
    /// The compiled tree then goes through the column-liveness pass
    /// (`liveness.rs`), always: joins emit only the columns an ancestor
    /// reads.
    pub fn compile(plan: &PhysicalExpr, db: &Database) -> Result<CompiledPlan> {
        let mut compiled = CompiledPlan::compile_all_columns(plan, db)?;
        crate::liveness::narrow_plan(&mut compiled.root);
        Ok(compiled)
    }

    /// [`CompiledPlan::compile`] before the liveness pass: every operator
    /// emits every column. Not an execution mode — the reference the
    /// liveness tests compare the narrowed tree against.
    pub(crate) fn compile_all_columns(plan: &PhysicalExpr, db: &Database) -> Result<CompiledPlan> {
        static COMPILES: OnceLock<Arc<Counter>> = OnceLock::new();
        COMPILES.get_or_init(|| registry().counter(names::ENGINE_COMPILES)).incr();
        let mut scalars = Vec::new();
        let root = compile_expr(plan, db, &mut scalars)?;
        Ok(CompiledPlan { root, scalars })
    }

    /// The output schema of the plan.
    pub fn schema(&self) -> &Arc<Schema> {
        self.root.schema()
    }
}

fn compile_expr(
    plan: &PhysicalExpr,
    db: &Database,
    scalars: &mut Vec<RaExpr>,
) -> Result<CompiledExpr> {
    match plan {
        PhysicalExpr::Source(expr) => compile_source(expr, db),
        // An exchange nobody above exploits is the identity.
        PhysicalExpr::Exchange { input, .. } => compile_expr(input, db, scalars),
        PhysicalExpr::Filter { input, condition } => {
            let (inner, partitions) = peel_exchange(input);
            let child = compile_expr(inner, db, scalars)?;
            let pred = compile_condition(condition, child.schema(), scalars)?;
            Ok(push_step(child, Step::Filter(pred), None, partitions))
        }
        PhysicalExpr::Project { input, columns } => {
            let child = compile_expr(input, db, scalars)?;
            let (positions, schema) = project_positions(child.schema(), columns)?;
            Ok(push_step(child, Step::Project(positions), Some(schema.shared()), 0))
        }
        PhysicalExpr::Rename { input, columns } => {
            let child = compile_expr(input, db, scalars)?;
            let schema = child.schema().rename(columns).map_err(AlgebraError::Data)?.shared();
            Ok(match child {
                CompiledExpr::Fused { source, steps, dedup, partitions, vec_plan, .. } => {
                    CompiledExpr::Fused { source, steps, schema, dedup, partitions, vec_plan }
                }
                other => CompiledExpr::Rename { input: Box::new(other), schema },
            })
        }
        PhysicalExpr::Distinct { input } => {
            let child = compile_expr(input, db, scalars)?;
            Ok(match child {
                CompiledExpr::Fused { source, steps, schema, partitions, vec_plan, .. } => {
                    CompiledExpr::Fused { source, steps, schema, dedup: true, partitions, vec_plan }
                }
                other => CompiledExpr::Distinct { input: Box::new(other) },
            })
        }
        PhysicalExpr::Join { left, right, condition, algo } => match algo {
            JoinAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                let (build, partitions) = peel_exchange(right);
                let l = compile_expr(left, db, scalars)?;
                let r = compile_expr(build, db, scalars)?;
                let schema = l.schema().concat(r.schema()).shared();
                let keys = HashKeys {
                    left: resolve_positions(l.schema(), left_keys)?,
                    right: resolve_positions(r.schema(), right_keys)?,
                    residual: compile_condition(residual, &schema, scalars)?,
                    null_aware: compile_null_aware(null_ok, condition, &schema, scalars)?,
                };
                Ok(CompiledExpr::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    keys,
                    emit: Emit::whole(schema.arity()),
                    schema,
                    partitions,
                })
            }
            JoinAlgo::NestedLoop => {
                let (outer, partitions) = peel_exchange(left);
                let l = compile_expr(outer, db, scalars)?;
                let r = compile_expr(right, db, scalars)?;
                let schema = l.schema().concat(r.schema()).shared();
                let pred = compile_condition(condition, &schema, scalars)?;
                Ok(CompiledExpr::NlJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    pred,
                    emit: Emit::whole(schema.arity()),
                    schema,
                    partitions,
                })
            }
        },
        PhysicalExpr::Semi { left, right, condition, algo, anti, left_schema } => {
            let keep_matching = !*anti;
            match algo {
                SemiAlgo::Decorrelated => {
                    let l = compile_expr(left, db, scalars)?;
                    let r = compile_expr(right, db, scalars)?;
                    let pred = compile_condition(condition, r.schema(), scalars)?;
                    Ok(CompiledExpr::DecorrelatedSemi {
                        left: Box::new(l),
                        right: Box::new(r),
                        pred,
                        keep_matching,
                        left_schema: left_schema.clone().shared(),
                    })
                }
                SemiAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                    let (build, partitions) = peel_exchange(right);
                    let l = compile_expr(left, db, scalars)?;
                    let r = compile_expr(build, db, scalars)?;
                    let combined = l.schema().concat(r.schema());
                    let keys = HashKeys {
                        left: resolve_positions(l.schema(), left_keys)?,
                        right: resolve_positions(r.schema(), right_keys)?,
                        residual: compile_condition(residual, &combined, scalars)?,
                        null_aware: compile_null_aware(null_ok, condition, &combined, scalars)?,
                    };
                    Ok(CompiledExpr::HashSemi {
                        schema: l.schema().clone(),
                        left: Box::new(l),
                        right: Box::new(r),
                        keys,
                        keep_matching,
                        partitions,
                    })
                }
                SemiAlgo::NestedLoop => {
                    let (outer, partitions) = peel_exchange(left);
                    let l = compile_expr(outer, db, scalars)?;
                    let r = compile_expr(right, db, scalars)?;
                    let combined = l.schema().concat(r.schema()).shared();
                    let pred = compile_condition(condition, &combined, scalars)?;
                    Ok(CompiledExpr::NlSemi {
                        schema: l.schema().clone(),
                        left: Box::new(l),
                        right: Box::new(r),
                        pred,
                        keep_matching,
                        partitions,
                    })
                }
            }
        }
        PhysicalExpr::Union { .. } => {
            let mut arm_plans = Vec::new();
            let mut parallel = false;
            collect_union_arms(plan, &mut arm_plans, &mut parallel);
            let arms = arm_plans
                .into_iter()
                .map(|a| compile_expr(a, db, scalars))
                .collect::<Result<Vec<_>>>()?;
            let schema = arms
                .first()
                .ok_or_else(|| AlgebraError::Malformed("union with no arms".into()))?
                .schema()
                .clone();
            Ok(CompiledExpr::Union { arms, schema, parallel })
        }
        PhysicalExpr::Intersect { left, right } => {
            let l = compile_expr(left, db, scalars)?;
            let r = compile_expr(right, db, scalars)?;
            Ok(CompiledExpr::Intersect { left: Box::new(l), right: Box::new(r) })
        }
        PhysicalExpr::Difference { left, right } => {
            let l = compile_expr(left, db, scalars)?;
            let r = compile_expr(right, db, scalars)?;
            Ok(CompiledExpr::Difference { left: Box::new(l), right: Box::new(r) })
        }
        PhysicalExpr::UnifySemi { left, right, anti } => {
            let l = compile_expr(left, db, scalars)?;
            let r = compile_expr(right, db, scalars)?;
            if l.schema().arity() != r.schema().arity() {
                return Err(AlgebraError::Malformed(format!(
                    "unification semijoin over arities {} and {}",
                    l.schema().arity(),
                    r.schema().arity()
                )));
            }
            Ok(CompiledExpr::UnifySemi {
                left: Box::new(l),
                right: Box::new(r),
                keep_matching: !*anti,
            })
        }
        PhysicalExpr::Division { left, right } => {
            let l = compile_expr(left, db, scalars)?;
            let r = compile_expr(right, db, scalars)?;
            // Map each divisor column to the dividend column with the same
            // base name (as the reference evaluator does).
            let mut shared_positions = Vec::with_capacity(r.schema().arity());
            for attr in r.schema().attrs() {
                let pos = l
                    .schema()
                    .attrs()
                    .iter()
                    .position(|a| a.base_name() == attr.base_name())
                    .ok_or_else(|| {
                        AlgebraError::Malformed(format!(
                            "division: divisor column {} not found in dividend",
                            attr.name
                        ))
                    })?;
                shared_positions.push(pos);
            }
            let key_positions: Vec<usize> =
                (0..l.schema().arity()).filter(|i| !shared_positions.contains(i)).collect();
            let schema = l.schema().project(&key_positions).shared();
            Ok(CompiledExpr::Division {
                left: Box::new(l),
                right: Box::new(r),
                key_positions,
                shared_positions,
                schema,
            })
        }
        PhysicalExpr::Aggregate { input, group_by, aggregates } => {
            let child = compile_expr(input, db, scalars)?;
            let group_pos = resolve_positions(child.schema(), group_by)?;
            let mut aggs = Vec::with_capacity(aggregates.len());
            let mut attrs: Vec<Attribute> =
                group_pos.iter().map(|&p| child.schema().attr(p).clone()).collect();
            for a in aggregates {
                let pos = match &a.column {
                    Some(c) => Some(child.schema().position_of(c).map_err(AlgebraError::Data)?),
                    None if a.func == AggFunc::CountStar => None,
                    None => {
                        return Err(AlgebraError::Malformed(format!(
                            "aggregate {} needs a column",
                            a.func
                        )))
                    }
                };
                let ty = match a.func {
                    AggFunc::CountStar | AggFunc::Count => ValueType::Int,
                    AggFunc::Avg => ValueType::Float,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        pos.map(|p| child.schema().attr(p).ty).unwrap_or(ValueType::Any)
                    }
                };
                attrs.push(Attribute { name: a.alias.clone(), ty, nullable: true });
                aggs.push((a.func, pos));
            }
            Ok(CompiledExpr::Aggregate {
                input: Box::new(child),
                group_pos,
                aggs,
                schema: Schema::new(attrs).shared(),
            })
        }
    }
}

fn compile_source(expr: &RaExpr, db: &Database) -> Result<CompiledExpr> {
    match expr {
        RaExpr::Relation { name, alias } => {
            let base = db.relation(name).map_err(AlgebraError::Data)?;
            let schema = match alias {
                Some(a) => base.schema().qualify(a).shared(),
                None => base.schema().clone(),
            };
            Ok(CompiledExpr::Scan { name: name.clone(), schema })
        }
        RaExpr::Values { schema, rows } => {
            let rel =
                Relation::new(schema.clone().shared(), rows.clone()).map_err(AlgebraError::Data)?;
            Ok(CompiledExpr::Values { rel })
        }
        other => {
            let schema = output_schema(other, db)?.shared();
            Ok(CompiledExpr::Opaque { expr: other.clone(), schema })
        }
    }
}

/// Append a per-row step to a child, fusing into an existing pipeline when
/// possible. `new_schema` replaces the pipeline's output schema (projections);
/// a projection also turns on output deduplication (set semantics).
fn push_step(
    child: CompiledExpr,
    step: Step,
    new_schema: Option<Arc<Schema>>,
    partitions: usize,
) -> CompiledExpr {
    let projecting = matches!(step, Step::Project(_));
    match child {
        CompiledExpr::Fused { source, mut steps, schema, dedup, partitions: existing, .. } => {
            steps.push(step);
            let vec_plan = vec_plan_of(&steps, source.schema().arity());
            CompiledExpr::Fused {
                source,
                steps,
                schema: new_schema.unwrap_or(schema),
                dedup: dedup || projecting,
                partitions: existing.max(partitions),
                vec_plan,
            }
        }
        other => {
            let schema = new_schema.unwrap_or_else(|| other.schema().clone());
            let steps = vec![step];
            let vec_plan = vec_plan_of(&steps, other.schema().arity());
            CompiledExpr::Fused {
                source: Box::new(other),
                steps,
                schema,
                dedup: projecting,
                partitions,
                vec_plan,
            }
        }
    }
}

fn project_positions(input: &Schema, columns: &[ProjCol]) -> Result<(Vec<usize>, Schema)> {
    let mut positions = Vec::with_capacity(columns.len());
    let mut attrs = Vec::with_capacity(columns.len());
    for c in columns {
        let pos = input.position_of(&c.column).map_err(AlgebraError::Data)?;
        let src = input.attr(pos);
        positions.push(pos);
        attrs.push(Attribute {
            name: c.output_name().to_string(),
            ty: src.ty,
            nullable: src.nullable,
        });
    }
    Ok((positions, Schema::new(attrs)))
}

fn resolve_positions(schema: &Schema, names: &[String]) -> Result<Vec<usize>> {
    names.iter().map(|n| schema.position_of(n).map_err(AlgebraError::Data)).collect()
}

/// The null-aware half of a hash operator's keys: `None` when every key is a
/// plain equality (the node's full condition is then never evaluated, so it
/// is not compiled either).
fn compile_null_aware(
    null_ok: &[NullOk],
    condition: &Condition,
    combined: &Schema,
    scalars: &mut Vec<RaExpr>,
) -> Result<Option<NullAware>> {
    if !null_ok.iter().any(|n| n.any()) {
        return Ok(None);
    }
    let full = compile_condition(condition, combined, scalars)?;
    Ok(Some(NullAware { null_ok: null_ok.to_vec(), full }))
}

/// The child an operator fans out over, without its exchange, and how many
/// ways the planner allowed the split (0: not at all). Which child that is
/// is the caller's choice: a filter's input, a hash operator's build side, a
/// nested loop's outer side.
fn peel_exchange(plan: &PhysicalExpr) -> (&PhysicalExpr, usize) {
    match plan {
        PhysicalExpr::Exchange { input, partitions } => (input, *partitions),
        other => (other, 0),
    }
}

/// Collect the leaf arms of a (possibly nested) union, looking through the
/// exchange operators that mark arms for concurrent evaluation.
fn collect_union_arms<'p>(
    plan: &'p PhysicalExpr,
    out: &mut Vec<&'p PhysicalExpr>,
    parallel: &mut bool,
) {
    match plan {
        PhysicalExpr::Union { left, right } => {
            collect_union_arms(left, out, parallel);
            collect_union_arms(right, out, parallel);
        }
        PhysicalExpr::Exchange { input, .. } => {
            *parallel = true;
            collect_union_arms(input, out, parallel);
        }
        other => out.push(other),
    }
}

fn compile_condition(
    condition: &Condition,
    schema: &Schema,
    scalars: &mut Vec<RaExpr>,
) -> Result<CompiledPredicate> {
    let pred = compile_pred(condition, schema, scalars)?;
    let mut scalar_refs = Vec::new();
    collect_scalar_refs(&pred, &mut scalar_refs);
    scalar_refs.sort_unstable();
    scalar_refs.dedup();
    Ok(CompiledPredicate { pred, scalar_refs })
}

fn collect_scalar_refs(pred: &Pred, out: &mut Vec<usize>) {
    let mut operand = |op: &CompiledOperand| {
        if let CompiledOperand::Scalar(i) = op {
            out.push(*i);
        }
    };
    match pred {
        Pred::Const(_) => {}
        Pred::Cmp { left, right, .. } => {
            operand(left);
            operand(right);
        }
        Pred::IsNull(x) | Pred::IsNotNull(x) => operand(x),
        Pred::Like { expr, .. } | Pred::InList { expr, .. } => operand(expr),
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_scalar_refs(a, out);
            collect_scalar_refs(b, out);
        }
        Pred::Not(inner) => collect_scalar_refs(inner, out),
    }
}

fn compile_pred(condition: &Condition, schema: &Schema, scalars: &mut Vec<RaExpr>) -> Result<Pred> {
    Ok(match condition {
        Condition::True => Pred::Const(Truth::True),
        Condition::False => Pred::Const(Truth::False),
        Condition::Cmp { left, op, right } => Pred::Cmp {
            left: compile_operand(left, schema, scalars)?,
            op: *op,
            right: compile_operand(right, schema, scalars)?,
        },
        Condition::IsNull(x) => Pred::IsNull(compile_operand(x, schema, scalars)?),
        Condition::IsNotNull(x) => Pred::IsNotNull(compile_operand(x, schema, scalars)?),
        Condition::Like { expr, pattern, negated } => Pred::Like {
            expr: compile_operand(expr, schema, scalars)?,
            pattern: pattern.clone(),
            negated: *negated,
        },
        Condition::InList { expr, list, negated } => Pred::InList {
            expr: compile_operand(expr, schema, scalars)?,
            list: list.clone(),
            negated: *negated,
        },
        Condition::And(a, b) => Pred::And(
            Box::new(compile_pred(a, schema, scalars)?),
            Box::new(compile_pred(b, schema, scalars)?),
        ),
        Condition::Or(a, b) => Pred::Or(
            Box::new(compile_pred(a, schema, scalars)?),
            Box::new(compile_pred(b, schema, scalars)?),
        ),
        Condition::Not(inner) => Pred::Not(Box::new(compile_pred(inner, schema, scalars)?)),
    })
}

fn compile_operand(
    operand: &Operand,
    schema: &Schema,
    scalars: &mut Vec<RaExpr>,
) -> Result<CompiledOperand> {
    Ok(match operand {
        Operand::Col(name) => {
            CompiledOperand::Col(schema.position_of(name).map_err(AlgebraError::Data)?)
        }
        Operand::Const(v) => CompiledOperand::Const(v.clone()),
        Operand::Scalar(q) => {
            // Uncorrelated scalar subqueries are deduplicated structurally so
            // each is evaluated at most once per execution.
            let idx = match scalars.iter().position(|s| s == q.as_ref()) {
                Some(i) => i,
                None => {
                    scalars.push((**q).clone());
                    scalars.len() - 1
                }
            };
            CompiledOperand::Scalar(idx)
        }
    })
}

/// Apply a fused step chain to one row — the row-at-a-time evaluator of a
/// pipeline. A borrowed input is cloned only if it survives un-projected; an
/// owned one moves through. With a `counter`, every filter step the row
/// survives bumps that step's survivor count there — yielding, per filter,
/// "rows passing filters `0..=k`", the same quantity the vectorized path
/// reads off its running selection mask.
pub(crate) fn apply_steps(
    t: Cow<'_, Tuple>,
    steps: &[Step],
    scalars: &ScalarValues,
    semantics: NullSemantics,
    counter: Option<&ProfNode>,
) -> Option<Tuple> {
    let mut current = t;
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Filter(pred) => {
                if !pred.eval(RowView::one(&current), scalars, semantics).is_true() {
                    return None;
                }
                if let Some(p) = counter {
                    p.add_step_rows(k, 1);
                }
            }
            Step::Project(pos) => current = Cow::Owned(current.project(pos)),
        }
    }
    Some(current.into_owned())
}
