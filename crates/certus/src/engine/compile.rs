//! One-time compilation of [`PhysicalExpr`] plans into the engine's native
//! operator runtime.
//!
//! An interpreter over [`PhysicalExpr`] would redo two kinds of work on
//! *every* execution of *every* operator: re-infer operator output schemas,
//! and resolve every column name to a position once per row via
//! `Schema::position_of`. [`CompiledPlan::compile`] does all of that exactly
//! once per plan:
//!
//! * every [`Condition`] becomes a `CompiledPredicate` whose operands are
//!   positional accessors — per-row evaluation performs zero name lookups and
//!   zero allocation (join residuals evaluate over the *pair* of input
//!   rows, so no row is ever built for a predicate);
//! * projection, rename, aggregate and join-key column lists are resolved to
//!   positions against the plan's inferred schemas (inferred bottom-up, once);
//! * `Filter`/`Project`/`Rename`/`Distinct` chains are **fused** into a
//!   single pipeline: every filter re-anchored onto the source's columns,
//!   the projections composed into one, so the chain selects row ids and
//!   builds rows once, at its edge, and only when it projects or
//!   deduplicates;
//! * every join records its layout — where each output column lives, as a
//!   (source, column) pair of the row-id sets it joins (`rows.rs`);
//! * an [`PhysicalExpr::Exchange`] is absorbed by the operator above it as a
//!   partition count on the compiled node — a filter peels its input, a
//!   hash operator its build side, a nested loop its outer side, a union
//!   its arms — and is the identity anywhere else;
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
//! planning work. A plan holds table names and schemas, never rows, so it
//! outlives writes; the session's schema-epoch guard retires it.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::{AggFunc, ProjCol, RaExpr};
use crate::algebra::NullSemantics;
use crate::data::compare::{naive_cmp, sql_cmp, CmpOp};
use crate::data::like::{naive_like, sql_like};
use crate::data::truth::Truth;
use crate::data::{Attribute, Database, Relation, Schema, Value, ValueType};
use crate::engine::rows::{RowView, Slot};
use crate::obs::metrics::{registry, Counter};
use crate::obs::names;
use crate::plan::physical::{JoinAlgo, PhysicalExpr, SemiAlgo};
use crate::plan::NullOk;
use crate::{Error, Result};
use std::sync::{Arc, OnceLock};

/// The values of a plan's uncorrelated scalar subqueries for one execution,
/// filled lazily: the engine evaluates a subquery the first time an operator
/// that references it is about to process a non-empty input, so a branch the
/// decorrelated short-circuit skips never pays for (or surfaces errors from)
/// its subqueries — matching the reference evaluator's lazy behaviour.
#[derive(Debug, Default)]
pub(crate) struct ScalarValues {
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
pub(crate) struct CompiledPredicate {
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

    /// Whether the predicate is the constant `TRUE` (a hash operator's
    /// residual when the keys are the whole condition).
    pub(crate) fn is_const_true(&self) -> bool {
        matches!(self.pred, Pred::Const(Truth::True))
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
    /// through intermediate projections).
    fn remap(&mut self, map: &[usize]) {
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

    pub(crate) fn eval(
        &self,
        row: RowView<'_>,
        scalars: &ScalarValues,
        semantics: NullSemantics,
    ) -> Truth {
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

/// A step of a fused operator pipeline, in pipeline order, with the id of
/// the plan node it implements.
#[derive(Debug)]
pub(crate) enum Step {
    /// Drop rows whose predicate is not true. The predicate reads the
    /// pipeline's *source* columns: projections below it are looked through.
    Filter { id: usize, pred: CompiledPredicate },
    /// Map the row onto the given positions of the step before's output
    /// (composed with the other projections into the pipeline's `project`).
    Project { id: usize, positions: Vec<usize> },
}

impl Step {
    /// The id of the plan node this step implements.
    pub(crate) fn id(&self) -> usize {
        match self {
            Step::Filter { id, .. } | Step::Project { id, .. } => *id,
        }
    }
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

/// A compiled operator and the plan node it implements.
#[derive(Debug)]
pub(crate) struct CompiledExpr {
    /// The node's id: its pre-order position in the physical plan. A fused
    /// chain is its top node, a flattened union its outermost union.
    pub(crate) id: usize,
    pub(crate) op: Op,
}

/// A compiled operator tree: schemas inferred, names resolved, conditions
/// compiled — ready for repeated execution with zero per-execution setup.
#[derive(Debug)]
pub(crate) enum Op {
    /// Scan of a base relation (schema pre-qualified for aliases).
    Scan { name: String, schema: Arc<Schema> },
    /// A literal relation, materialised at compile time.
    Values { rel: Relation },
    /// A fused chain of steps over one source, executed in a single pass:
    /// the filters select row ids, then the rows are built of the
    /// `project`ed source columns (`None`: the source's row-id set is passed
    /// on, unless `dedup`). `partitions > 0` marks an exchange under a filter
    /// of the chain (morsel-parallel execution); `dedup` marks a projection
    /// or distinct in the chain (set semantics: deduplicate the output).
    Fused {
        source: Box<CompiledExpr>,
        steps: Vec<Step>,
        project: Option<Vec<usize>>,
        schema: Arc<Schema>,
        dedup: bool,
        partitions: usize,
    },
    /// Hash join: build on the right, probe with the left, residual applied
    /// to the (left, right) pair; the output pairs the inputs' row ids, laid
    /// out as `slots` say. `partitions > 0` marks an exchange on the build
    /// side: the probe runs in morsels of the left side.
    HashJoin {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        keys: HashKeys,
        schema: Arc<Schema>,
        slots: Vec<Slot>,
        partitions: usize,
    },
    /// Nested-loop join. `partitions > 0` marks an exchange on the outer
    /// (left) side.
    NlJoin {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        pred: CompiledPredicate,
        schema: Arc<Schema>,
        slots: Vec<Slot>,
        partitions: usize,
    },
    /// Hash (anti-)semijoin: the left input's row ids that (do not) match.
    HashSemi {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        keys: HashKeys,
        keep_matching: bool,
        partitions: usize,
    },
    /// Nested-loop (anti-)semijoin.
    NlSemi {
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
        pred: CompiledPredicate,
        keep_matching: bool,
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
        match &self.op {
            Op::Scan { schema, .. }
            | Op::Fused { schema, .. }
            | Op::HashJoin { schema, .. }
            | Op::NlJoin { schema, .. }
            | Op::Union { schema, .. }
            | Op::Division { schema, .. }
            | Op::Rename { schema, .. }
            | Op::Aggregate { schema, .. } => schema,
            Op::Values { rel } => rel.schema(),
            Op::DecorrelatedSemi { left_schema, .. } => left_schema,
            Op::HashSemi { left, .. }
            | Op::NlSemi { left, .. }
            | Op::Intersect { left, .. }
            | Op::Difference { left, .. }
            | Op::UnifySemi { left, .. } => left.schema(),
            Op::Distinct { input, .. } => input.schema(),
        }
    }

    /// The operator's inputs: a binary operator's left then right, a
    /// union's arms in order.
    pub(crate) fn children(&self) -> Vec<&CompiledExpr> {
        match &self.op {
            Op::Scan { .. } | Op::Values { .. } => Vec::new(),
            Op::Fused { source: input, .. }
            | Op::Rename { input, .. }
            | Op::Distinct { input }
            | Op::Aggregate { input, .. } => vec![input],
            Op::Union { arms, .. } => arms.iter().collect(),
            Op::HashJoin { left, right, .. }
            | Op::NlJoin { left, right, .. }
            | Op::HashSemi { left, right, .. }
            | Op::NlSemi { left, right, .. }
            | Op::DecorrelatedSemi { left, right, .. }
            | Op::Intersect { left, right }
            | Op::Difference { left, right }
            | Op::UnifySemi { left, right, .. }
            | Op::Division { left, right, .. } => vec![left, right],
        }
    }

    /// The operator's name in a profile (`scan(lineitem)`, `fused`,
    /// `hash_join`, …).
    pub(crate) fn label(&self) -> String {
        match &self.op {
            Op::Scan { name, .. } => return format!("scan({name})"),
            Op::Values { .. } => "values",
            Op::Fused { .. } => "fused",
            Op::HashJoin { .. } => "hash_join",
            Op::NlJoin { .. } => "nl_join",
            Op::HashSemi { .. } => "hash_semi",
            Op::NlSemi { .. } => "nl_semi",
            Op::DecorrelatedSemi { .. } => "decorrelated_semi",
            Op::Union { .. } => "union",
            Op::Intersect { .. } => "intersect",
            Op::Difference { .. } => "difference",
            Op::UnifySemi { .. } => "unify_semi",
            Op::Division { .. } => "division",
            Op::Rename { .. } => "rename",
            Op::Distinct { .. } => "distinct",
            Op::Aggregate { .. } => "aggregate",
        }
        .to_string()
    }
}

/// Where the output columns of `node`'s row-id set live, one (source,
/// column) pair per position, and how many sources the set has: a join's
/// are its left input's, then its right input's; an operator that passes
/// its input's set on keeps its layout; anything else is one relation.
fn layout(node: &CompiledExpr) -> (Vec<Slot>, usize) {
    match &node.op {
        Op::HashJoin { left, right, .. } | Op::NlJoin { left, right, .. } => {
            join_layout(left, right)
        }
        Op::HashSemi { left, .. }
        | Op::NlSemi { left, .. }
        | Op::DecorrelatedSemi { left, .. }
        | Op::Rename { input: left, .. }
        | Op::Fused { source: left, project: None, dedup: false, .. } => layout(left),
        _ => ((0..node.schema().arity()).map(|c| (0, c)).collect(), 1),
    }
}

fn join_layout(l: &CompiledExpr, r: &CompiledExpr) -> (Vec<Slot>, usize) {
    let ((mut slots, l_sources), (right, r_sources)) = (layout(l), layout(r));
    slots.extend(right.into_iter().map(|(s, c)| (l_sources + s, c)));
    (slots, l_sources + r_sources)
}

/// Where a profiled run leaves the actuals of a plan node. A node an
/// operator implements has its own; the compiler records one of the other
/// rules where it absorbs a node into the operator above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Report {
    /// An operator's node: its own counters.
    Own,
    /// A filter fused below a chain's top: the rows its step kept.
    Step,
    /// An exchange: its input's (`id + 1`) rows.
    Input,
    /// A projection, rename or distinct fused below a chain's top: its
    /// input's rows, before the dedup the chain does once, at its top.
    BeforeDedup,
    /// A union flattened into the one above: its two inputs' rows,
    /// concatenated — the top union deduplicates once.
    Concat(usize, usize),
}

/// A fully compiled physical plan: the operator tree plus the table of
/// uncorrelated scalar subqueries it references. Owns everything — no borrow
/// of the database — so it can be cached across executions.
#[derive(Debug)]
pub struct CompiledPlan {
    pub(crate) root: CompiledExpr,
    pub(crate) scalars: Vec<RaExpr>,
    /// How each node of the physical plan reports, by id: one per node.
    pub(crate) reports: Vec<Report>,
}

impl CompiledPlan {
    /// Compile a physical plan against a database catalog. Schema inference
    /// and every column-name resolution happen here, once; executing the
    /// result performs neither.
    pub fn compile(plan: &PhysicalExpr, db: &Database) -> Result<CompiledPlan> {
        static COMPILES: OnceLock<Arc<Counter>> = OnceLock::new();
        COMPILES.get_or_init(|| registry().counter(names::ENGINE_COMPILES)).incr();
        let mut cx = Cx { db, scalars: Vec::new(), reports: Vec::new() };
        let root = compile_expr(plan, &mut cx)?;
        Ok(CompiledPlan { root, scalars: cx.scalars, reports: cx.reports })
    }

    /// The output schema of the plan.
    pub fn schema(&self) -> &Arc<Schema> {
        self.root.schema()
    }
}

/// What compilation gathers beside the operator tree: the scalar subqueries,
/// and one [`Report`] per plan node, numbered in pre-order as the walk
/// reaches it.
struct Cx<'d> {
    db: &'d Database,
    scalars: Vec<RaExpr>,
    reports: Vec<Report>,
}

impl Cx<'_> {
    /// The id of the next plan node, reporting its own actuals until the
    /// compiler absorbs it.
    fn next_id(&mut self) -> usize {
        self.reports.push(Report::Own);
        self.reports.len() - 1
    }

    /// The chain topped by node `top` was fused below a new top: a filter
    /// there reports what its step kept, anything else its input's rows
    /// before the chain's dedup.
    fn fused_below(&mut self, top: usize, steps: &[Step]) {
        self.reports[top] = match steps.last() {
            Some(Step::Filter { id, .. }) if *id == top => Report::Step,
            _ => Report::BeforeDedup,
        };
    }
}

fn compile_expr(plan: &PhysicalExpr, cx: &mut Cx<'_>) -> Result<CompiledExpr> {
    let id = cx.next_id();
    let op = match plan {
        PhysicalExpr::Source(expr) => compile_source(expr, cx.db)?,
        // An exchange nobody above exploits is the identity.
        PhysicalExpr::Exchange { input, .. } => {
            cx.reports[id] = Report::Input;
            return compile_expr(input, cx);
        }
        PhysicalExpr::Filter { input, condition } => {
            let (inner, partitions) = peel_exchange(input, cx);
            let child = compile_expr(inner, cx)?;
            let pred = compile_condition(condition, child.schema(), &mut cx.scalars)?;
            return Ok(push_step(child, Step::Filter { id, pred }, None, partitions, cx));
        }
        PhysicalExpr::Project { input, columns } => {
            let child = compile_expr(input, cx)?;
            let (positions, schema) = project_positions(child.schema(), columns)?;
            let step = Step::Project { id, positions };
            return Ok(push_step(child, step, Some(schema.shared()), 0, cx));
        }
        PhysicalExpr::Rename { input, columns } => {
            let child = compile_expr(input, cx)?;
            let schema = child.schema().rename(columns)?.shared();
            match child.op {
                Op::Fused { source, steps, project, dedup, partitions, .. } => {
                    cx.fused_below(child.id, &steps);
                    Op::Fused { source, steps, project, schema, dedup, partitions }
                }
                _ => Op::Rename { input: Box::new(child), schema },
            }
        }
        PhysicalExpr::Distinct { input } => {
            let child = compile_expr(input, cx)?;
            match child.op {
                Op::Fused { source, steps, project, schema, partitions, .. } => {
                    cx.fused_below(child.id, &steps);
                    Op::Fused { source, steps, project, schema, dedup: true, partitions }
                }
                _ => Op::Distinct { input: Box::new(child) },
            }
        }
        PhysicalExpr::Join { left, right, condition, algo } => match algo {
            JoinAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                let l = compile_expr(left, cx)?;
                let (build, partitions) = peel_exchange(right, cx);
                let r = compile_expr(build, cx)?;
                let schema = l.schema().concat(r.schema()).shared();
                let keys = HashKeys {
                    left: resolve_positions(l.schema(), left_keys)?,
                    right: resolve_positions(r.schema(), right_keys)?,
                    residual: compile_condition(residual, &schema, &mut cx.scalars)?,
                    null_aware: compile_null_aware(null_ok, condition, &schema, &mut cx.scalars)?,
                };
                Op::HashJoin {
                    slots: join_layout(&l, &r).0,
                    left: Box::new(l),
                    right: Box::new(r),
                    keys,
                    schema,
                    partitions,
                }
            }
            JoinAlgo::NestedLoop => {
                let (outer, partitions) = peel_exchange(left, cx);
                let l = compile_expr(outer, cx)?;
                let r = compile_expr(right, cx)?;
                let schema = l.schema().concat(r.schema()).shared();
                let pred = compile_condition(condition, &schema, &mut cx.scalars)?;
                Op::NlJoin {
                    slots: join_layout(&l, &r).0,
                    left: Box::new(l),
                    right: Box::new(r),
                    pred,
                    schema,
                    partitions,
                }
            }
        },
        PhysicalExpr::Semi { left, right, condition, algo, anti, left_schema } => {
            let keep_matching = !*anti;
            match algo {
                SemiAlgo::Decorrelated => {
                    let l = compile_expr(left, cx)?;
                    let r = compile_expr(right, cx)?;
                    let pred = compile_condition(condition, r.schema(), &mut cx.scalars)?;
                    Op::DecorrelatedSemi {
                        left: Box::new(l),
                        right: Box::new(r),
                        pred,
                        keep_matching,
                        left_schema: left_schema.clone().shared(),
                    }
                }
                SemiAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                    let l = compile_expr(left, cx)?;
                    let (build, partitions) = peel_exchange(right, cx);
                    let r = compile_expr(build, cx)?;
                    let combined = l.schema().concat(r.schema());
                    let scalars = &mut cx.scalars;
                    let keys = HashKeys {
                        left: resolve_positions(l.schema(), left_keys)?,
                        right: resolve_positions(r.schema(), right_keys)?,
                        residual: compile_condition(residual, &combined, scalars)?,
                        null_aware: compile_null_aware(null_ok, condition, &combined, scalars)?,
                    };
                    Op::HashSemi {
                        left: Box::new(l),
                        right: Box::new(r),
                        keys,
                        keep_matching,
                        partitions,
                    }
                }
                SemiAlgo::NestedLoop => {
                    let (outer, partitions) = peel_exchange(left, cx);
                    let l = compile_expr(outer, cx)?;
                    let r = compile_expr(right, cx)?;
                    let combined = l.schema().concat(r.schema()).shared();
                    let pred = compile_condition(condition, &combined, &mut cx.scalars)?;
                    Op::NlSemi {
                        left: Box::new(l),
                        right: Box::new(r),
                        pred,
                        keep_matching,
                        partitions,
                    }
                }
            }
        }
        PhysicalExpr::Union { left, right } => {
            let mut arms = Vec::new();
            let mut parallel = false;
            for input in [left, right] {
                compile_arms(input, cx, &mut arms, &mut parallel)?;
            }
            let schema = arms
                .first()
                .ok_or_else(|| Error::Malformed("union with no arms".into()))?
                .schema()
                .clone();
            Op::Union { arms, schema, parallel }
        }
        PhysicalExpr::Intersect { left, right } => {
            let l = compile_expr(left, cx)?;
            let r = compile_expr(right, cx)?;
            Op::Intersect { left: Box::new(l), right: Box::new(r) }
        }
        PhysicalExpr::Difference { left, right } => {
            let l = compile_expr(left, cx)?;
            let r = compile_expr(right, cx)?;
            Op::Difference { left: Box::new(l), right: Box::new(r) }
        }
        PhysicalExpr::UnifySemi { left, right, anti } => {
            let l = compile_expr(left, cx)?;
            let r = compile_expr(right, cx)?;
            if l.schema().arity() != r.schema().arity() {
                return Err(Error::Malformed(format!(
                    "unification semijoin over arities {} and {}",
                    l.schema().arity(),
                    r.schema().arity()
                )));
            }
            Op::UnifySemi { left: Box::new(l), right: Box::new(r), keep_matching: !*anti }
        }
        PhysicalExpr::Division { left, right } => {
            let l = compile_expr(left, cx)?;
            let r = compile_expr(right, cx)?;
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
                        Error::Malformed(format!(
                            "division: divisor column {} not found in dividend",
                            attr.name
                        ))
                    })?;
                shared_positions.push(pos);
            }
            let key_positions: Vec<usize> =
                (0..l.schema().arity()).filter(|i| !shared_positions.contains(i)).collect();
            let schema = l.schema().project(&key_positions).shared();
            Op::Division {
                left: Box::new(l),
                right: Box::new(r),
                key_positions,
                shared_positions,
                schema,
            }
        }
        PhysicalExpr::Aggregate { input, group_by, aggregates } => {
            let child = compile_expr(input, cx)?;
            let group_pos = resolve_positions(child.schema(), group_by)?;
            let mut aggs = Vec::with_capacity(aggregates.len());
            let mut attrs: Vec<Attribute> =
                group_pos.iter().map(|&p| child.schema().attr(p).clone()).collect();
            for a in aggregates {
                let pos = match &a.column {
                    Some(c) => Some(child.schema().position_of(c)?),
                    None if a.func == AggFunc::CountStar => None,
                    None => {
                        return Err(Error::Malformed(format!(
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
            Op::Aggregate {
                input: Box::new(child),
                group_pos,
                aggs,
                schema: Schema::new(attrs).shared(),
            }
        }
    };
    Ok(CompiledExpr { id, op })
}

fn compile_source(expr: &RaExpr, db: &Database) -> Result<Op> {
    match expr {
        RaExpr::Relation { name, alias } => {
            let base = db.relation(name)?;
            let schema = match alias {
                Some(a) => base.schema().qualify(a).shared(),
                None => base.schema().clone(),
            };
            Ok(Op::Scan { name: name.clone(), schema })
        }
        RaExpr::Values { schema, rows } => {
            let rel = Relation::new(schema.clone().shared(), rows.clone())?;
            Ok(Op::Values { rel })
        }
        // The planner puts only relations and literals in a source.
        other => Err(Error::Malformed(format!("no compiled operator for the source {other}"))),
    }
}

/// Append a step over the current output to a child, fusing into an
/// existing pipeline when possible: a filter is re-anchored onto the
/// source's columns, a projection composed into the pipeline's `project`.
/// `new_schema` replaces the pipeline's output schema (projections); a
/// projection also turns on output deduplication (set semantics). The
/// step's node is the pipeline's new top.
fn push_step(
    child: CompiledExpr,
    step: Step,
    new_schema: Option<Arc<Schema>>,
    partitions: usize,
    cx: &mut Cx<'_>,
) -> CompiledExpr {
    let id = step.id();
    let (source, mut steps, mut project, schema, dedup, existing) = match child.op {
        Op::Fused { source, steps, project, schema, dedup, partitions } => {
            cx.fused_below(child.id, &steps);
            (source, steps, project, schema, dedup, partitions)
        }
        _ => {
            let schema = child.schema().clone();
            (Box::new(child), Vec::new(), None, schema, false, 0)
        }
    };
    let projecting = matches!(step, Step::Project { .. });
    steps.push(match step {
        Step::Filter { id, mut pred } => {
            if let Some(map) = &project {
                pred.remap(map);
            }
            Step::Filter { id, pred }
        }
        Step::Project { id, positions } => {
            project =
                Some(positions.iter().map(|&p| project.as_ref().map_or(p, |m| m[p])).collect());
            Step::Project { id, positions }
        }
    });
    let op = Op::Fused {
        source,
        steps,
        project,
        schema: new_schema.unwrap_or(schema),
        dedup: dedup || projecting,
        partitions: existing.max(partitions),
    };
    CompiledExpr { id, op }
}

fn project_positions(input: &Schema, columns: &[ProjCol]) -> Result<(Vec<usize>, Schema)> {
    let mut positions = Vec::with_capacity(columns.len());
    let mut attrs = Vec::with_capacity(columns.len());
    for c in columns {
        let pos = input.position_of(&c.column)?;
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
    names.iter().map(|n| schema.position_of(n)).collect()
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
/// nested loop's outer side. A peeled exchange reports its input's rows.
fn peel_exchange<'p>(plan: &'p PhysicalExpr, cx: &mut Cx<'_>) -> (&'p PhysicalExpr, usize) {
    match plan {
        PhysicalExpr::Exchange { input, partitions } => {
            let id = cx.next_id();
            cx.reports[id] = Report::Input;
            (input, *partitions)
        }
        other => (other, 0),
    }
}

/// Compile the leaf arms under an input of a union, in order, looking
/// through nested unions and the exchanges that mark arms for concurrent
/// evaluation. A nested union reports its inputs concatenated, an exchange
/// its input's rows.
fn compile_arms(
    plan: &PhysicalExpr,
    cx: &mut Cx<'_>,
    arms: &mut Vec<CompiledExpr>,
    parallel: &mut bool,
) -> Result<()> {
    match plan {
        PhysicalExpr::Union { left, right } => {
            let id = cx.next_id();
            let l = cx.reports.len();
            compile_arms(left, cx, arms, parallel)?;
            let r = cx.reports.len();
            compile_arms(right, cx, arms, parallel)?;
            cx.reports[id] = Report::Concat(l, r);
        }
        PhysicalExpr::Exchange { input, .. } => {
            let id = cx.next_id();
            cx.reports[id] = Report::Input;
            *parallel = true;
            compile_arms(input, cx, arms, parallel)?;
        }
        other => arms.push(compile_expr(other, cx)?),
    }
    Ok(())
}

/// Compile `condition` over `schema`, registering the scalar subqueries it
/// reads in `scalars`.
pub(crate) fn compile_condition(
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
        Operand::Col(name) => CompiledOperand::Col(schema.position_of(name)?),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::data::builder::rel;

    #[test]
    fn a_source_that_is_not_a_relation_or_literal_is_malformed() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(1)]]));
        let join = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b"));
        let err = CompiledPlan::compile(&PhysicalExpr::Source(join), &db).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err}");
        // The sources the planner does produce still compile.
        assert!(CompiledPlan::compile(&PhysicalExpr::Source(RaExpr::relation("r")), &db).is_ok());
    }
}
