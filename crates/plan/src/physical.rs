//! Physical planning: turning a logical [`RaExpr`] into a [`PhysicalExpr`]
//! tree with an explicit algorithm choice per join-like node.
//!
//! There is one planner, [`PhysicalPlanner`], and its choices follow from
//! the expression and the thread count alone: hash join whenever a key —
//! plain or null-aware, see [`crate::equi`] — can be extracted, decorrelated
//! short-circuit whenever a semijoin condition ignores the outer side,
//! nested loops otherwise; an exchange at every site the engine can run in
//! parallel when there is more than one thread (the engine decides at run
//! time, on the rows that actually arrive, whether to use it). The
//! [`StatisticsCatalog`] feeds only the row/cost estimates of the
//! [`ExplainPlan`] tree, so planning with or without statistics yields the
//! same [`PhysicalExpr`]; [`heuristic_plan_with`] is the planner over
//! [`StatisticsCatalog::empty`], for callers that want no estimates.

use crate::equi::{references_schema, split_equi, EquiSplit, NullOk};
use crate::stats::StatisticsCatalog;
use crate::{PlanError, Result};
use certus_algebra::condition::Condition;
use certus_algebra::expr::{AggExpr, ProjCol, RaExpr};
use certus_algebra::schema_infer::{output_schema, Catalog};
use certus_data::Schema;
use std::fmt;

/// Parallelism configuration for the planner: how many worker threads the
/// executing engine has.
///
/// With `threads == 1` (the [`Parallelism::serial`] default) the planner
/// inserts no exchange operators at all, so plans — and therefore the engine's
/// execution path — degenerate to the serial ones. With more, every eligible
/// site gets one: an exchange only *permits* the engine to go parallel, and
/// the engine's runtime floor on actual rows decides whether it does.
#[derive(Debug, Clone, PartialEq)]
pub struct Parallelism {
    /// Worker threads available to the executor (1 = serial).
    pub threads: usize,
}

impl Parallelism {
    /// Parallelism over the given number of worker threads.
    pub fn new(threads: usize) -> Self {
        Parallelism { threads: threads.max(1) }
    }

    /// Serial planning: no exchange operators.
    pub fn serial() -> Self {
        Parallelism::new(1)
    }

    /// Whether exchanges are inserted.
    pub fn enabled(&self) -> bool {
        self.threads > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

/// Algorithm choice for a theta-join (or cartesian product).
#[derive(Clone, PartialEq)]
pub enum JoinAlgo {
    /// Build a hash table on the right side over `right_keys`, probe with
    /// `left_keys`, apply `residual` to surviving pairs. A key flagged in
    /// `null_ok` is *null-aware*: rows with a `NULL` there are matched
    /// against the other side by the node's full condition instead.
    Hash {
        /// Probe-side key columns (resolved in the left schema).
        left_keys: Vec<String>,
        /// Build-side key columns (resolved in the right schema).
        right_keys: Vec<String>,
        /// Per key pair, which side's `NULL` satisfies it.
        null_ok: Vec<NullOk>,
        /// Condition part not covered by the keys.
        residual: Condition,
    },
    /// Compare every pair of tuples.
    NestedLoop,
}

/// Algorithm choice for a (anti-)semijoin.
#[derive(Clone, PartialEq)]
pub enum SemiAlgo {
    /// The condition never references the outer side: evaluate the inner
    /// side once; the whole node short-circuits to either the left input or
    /// the empty relation (the `NOT EXISTS` rescue of query Q2).
    Decorrelated,
    /// Hash (anti-)semijoin with residual predicate; `null_ok` as for
    /// [`JoinAlgo::Hash`].
    Hash {
        /// Probe-side key columns (resolved in the left schema).
        left_keys: Vec<String>,
        /// Build-side key columns (resolved in the right schema).
        right_keys: Vec<String>,
        /// Per key pair, which side's `NULL` satisfies it.
        null_ok: Vec<NullOk>,
        /// Condition part not covered by the keys.
        residual: Condition,
    },
    /// Compare every pair of tuples.
    NestedLoop,
}

impl JoinAlgo {
    fn hash(split: EquiSplit) -> Self {
        JoinAlgo::Hash {
            left_keys: split.left_keys,
            right_keys: split.right_keys,
            null_ok: split.null_ok,
            residual: split.residual,
        }
    }
}

impl SemiAlgo {
    fn hash(split: EquiSplit) -> Self {
        SemiAlgo::Hash {
            left_keys: split.left_keys,
            right_keys: split.right_keys,
            null_ok: split.null_ok,
            residual: split.residual,
        }
    }
}

/// `{:?}` of a `Hash` algorithm. A plan over plain keys prints exactly the
/// fields it had before keys could be null-aware — plan-stability tests and
/// diffs of dumped plans compare this text — and `null_ok` appears only
/// where some key carries a flag.
fn fmt_hash(
    f: &mut fmt::Formatter<'_>,
    left_keys: &[String],
    right_keys: &[String],
    null_ok: &[NullOk],
    residual: &Condition,
) -> fmt::Result {
    let mut out = f.debug_struct("Hash");
    out.field("left_keys", &left_keys).field("right_keys", &right_keys);
    if null_ok.iter().any(|n| n.any()) {
        out.field("null_ok", &null_ok);
    }
    out.field("residual", residual).finish()
}

impl fmt::Debug for JoinAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                fmt_hash(f, left_keys, right_keys, null_ok, residual)
            }
            JoinAlgo::NestedLoop => f.write_str("NestedLoop"),
        }
    }
}

impl fmt::Debug for SemiAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiAlgo::Decorrelated => f.write_str("Decorrelated"),
            SemiAlgo::Hash { left_keys, right_keys, null_ok, residual } => {
                fmt_hash(f, left_keys, right_keys, null_ok, residual)
            }
            SemiAlgo::NestedLoop => f.write_str("NestedLoop"),
        }
    }
}

/// A physical plan: the logical tree annotated with per-node algorithm
/// choices. The engine executes this without re-deriving any strategy.
///
/// Per-node schemas are not stored here: the engine's one-time compiler
/// (`certus-engine`'s `CompiledPlan`) derives every node's output schema
/// bottom-up when it resolves conditions and column lists to positions, so
/// schema inference runs once per plan rather than once per operator per
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalExpr {
    /// A scan of a base relation or literal relation (kept as the logical
    /// node — the reference evaluator materialises it).
    Source(RaExpr),
    /// Selection over a materialised input.
    Filter {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Selection condition.
        condition: Condition,
    },
    /// Projection (deduplicating, set semantics).
    Project {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Output columns.
        columns: Vec<ProjCol>,
    },
    /// Theta-join (products are joins with condition `TRUE`).
    Join {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
        /// Full join condition (used verbatim by nested loops).
        condition: Condition,
        /// Chosen algorithm.
        algo: JoinAlgo,
    },
    /// Semijoin (`anti == false`) or anti-semijoin (`anti == true`).
    Semi {
        /// Left (preserved) input.
        left: Box<PhysicalExpr>,
        /// Right (probe) input.
        right: Box<PhysicalExpr>,
        /// Full matching condition.
        condition: Condition,
        /// Chosen algorithm.
        algo: SemiAlgo,
        /// Whether this is an anti-semijoin.
        anti: bool,
        /// Schema of the left input (needed to emit an empty result without
        /// executing the left side when a decorrelated check short-circuits).
        left_schema: Schema,
    },
    /// Set union.
    Union {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
    },
    /// Set difference.
    Difference {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
    },
    /// Unification (anti-)semijoin of Definition 4.
    UnifySemi {
        /// Left (preserved) input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
        /// Whether this is the anti variant.
        anti: bool,
    },
    /// Relational division.
    Division {
        /// Dividend.
        left: Box<PhysicalExpr>,
        /// Divisor.
        right: Box<PhysicalExpr>,
    },
    /// Column renaming.
    Rename {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// New column names.
        columns: Vec<String>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<PhysicalExpr>,
    },
    /// Grouping and aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
    },
    /// Exchange operator: marks where the executor may split the work of
    /// the operator above across worker threads — how is that operator's
    /// business (contiguous morsels of a filter's input or a join's outer
    /// side, one task per union arm). Semantically the identity — a serial
    /// executor (or one with a single thread) just passes the input through.
    Exchange {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// How many ways the work may be split.
        partitions: usize,
    },
}

impl PhysicalExpr {
    /// Number of nodes in the physical plan.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&PhysicalExpr> {
        match self {
            PhysicalExpr::Source(_) => vec![],
            PhysicalExpr::Filter { input, .. }
            | PhysicalExpr::Project { input, .. }
            | PhysicalExpr::Rename { input, .. }
            | PhysicalExpr::Distinct { input }
            | PhysicalExpr::Aggregate { input, .. }
            | PhysicalExpr::Exchange { input, .. } => vec![input],
            PhysicalExpr::Join { left, right, .. }
            | PhysicalExpr::Semi { left, right, .. }
            | PhysicalExpr::Union { left, right }
            | PhysicalExpr::Intersect { left, right }
            | PhysicalExpr::Difference { left, right }
            | PhysicalExpr::UnifySemi { left, right, .. }
            | PhysicalExpr::Division { left, right } => vec![left, right],
        }
    }

    /// Short operator label for explain output.
    pub fn label(&self) -> String {
        match self {
            PhysicalExpr::Source(RaExpr::Relation { name, .. }) => format!("Scan {name}"),
            PhysicalExpr::Source(_) => "Values".to_string(),
            PhysicalExpr::Filter { condition, .. } => format!("Filter [{condition}]"),
            PhysicalExpr::Project { .. } => "Project".to_string(),
            PhysicalExpr::Join { condition, algo, .. } => match algo {
                JoinAlgo::Hash { left_keys, right_keys, null_ok, .. } => {
                    format!("HashJoin [{}]", key_pairs(left_keys, right_keys, null_ok))
                }
                JoinAlgo::NestedLoop => format!("NestedLoopJoin [{condition}]"),
            },
            PhysicalExpr::Semi { condition, algo, anti, .. } => {
                let kind = if *anti { "Anti" } else { "Semi" };
                match algo {
                    SemiAlgo::Decorrelated => format!("Decorrelated{kind}Join [{condition}]"),
                    SemiAlgo::Hash { left_keys, right_keys, null_ok, .. } => {
                        format!("Hash{kind}Join [{}]", key_pairs(left_keys, right_keys, null_ok))
                    }
                    SemiAlgo::NestedLoop => format!("NestedLoop{kind}Join [{condition}]"),
                }
            }
            PhysicalExpr::Union { .. } => "Union".to_string(),
            PhysicalExpr::Intersect { .. } => "Intersect".to_string(),
            PhysicalExpr::Difference { .. } => "Difference".to_string(),
            PhysicalExpr::UnifySemi { anti, .. } => {
                if *anti {
                    "UnifyAntiSemiJoin".to_string()
                } else {
                    "UnifySemiJoin".to_string()
                }
            }
            PhysicalExpr::Division { .. } => "Division".to_string(),
            PhysicalExpr::Rename { .. } => "Rename".to_string(),
            PhysicalExpr::Distinct { .. } => "Distinct".to_string(),
            PhysicalExpr::Aggregate { .. } => "Aggregate".to_string(),
            PhysicalExpr::Exchange { partitions, .. } => format!("Exchange x{partitions}"),
        }
    }

    /// Whether the plan contains any exchange operator (i.e. whether the
    /// executor is allowed to parallelise anything).
    pub fn has_exchange(&self) -> bool {
        matches!(self, PhysicalExpr::Exchange { .. })
            || self.children().iter().any(|c| c.has_exchange())
    }
}

/// The key pairs of a hash operator as EXPLAIN shows them:
/// `a = b AND c = d`, followed for null-aware keys by the columns whose
/// `NULL` matches every row of the other side
/// (`l_suppkey = s_suppkey | l_suppkey null matches`).
fn key_pairs(left: &[String], right: &[String], null_ok: &[NullOk]) -> String {
    let pairs: Vec<String> = left.iter().zip(right).map(|(l, r)| format!("{l} = {r}")).collect();
    let wild: Vec<&str> = left
        .iter()
        .zip(right)
        .zip(null_ok)
        .flat_map(|((l, r), ok)| [(ok.left, l), (ok.right, r)])
        .filter_map(|(flagged, column)| flagged.then_some(column.as_str()))
        .collect();
    if wild.is_empty() {
        pairs.join(" AND ")
    } else {
        format!("{} | {} null matches", pairs.join(" AND "), wild.join(", "))
    }
}

/// An `EXPLAIN`-style tree: one node per physical operator with row and cost
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    /// Operator label (includes the chosen algorithm).
    pub op: String,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost (abstract row operations).
    pub cost: f64,
    /// Child nodes.
    pub children: Vec<ExplainPlan>,
}

impl ExplainPlan {
    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{}  (rows≈{:.0}, cost≈{:.0})\n", self.op, self.rows, self.cost));
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ExplainPlan::size).sum::<usize>()
    }

    /// Render the estimate tree as JSON (the static half of what
    /// `Session::explain_analyze` produces; the session zips in actuals).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"op\": \"{}\", \"rows_est\": {}, \"cost_est\": {}",
            certus_obs::json::escape(&self.op),
            certus_obs::json::number(self.rows),
            certus_obs::json::number(self.cost)
        );
        if !self.children.is_empty() {
            out.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_json());
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(&out)
    }
}

/// [`heuristic_plan_with`] for a serial engine.
pub fn heuristic_plan(expr: &RaExpr, catalog: &dyn Catalog) -> Result<PhysicalExpr> {
    heuristic_plan_with(expr, catalog, &Parallelism::serial())
}

/// The plan of [`PhysicalPlanner`] without a statistics catalog at hand —
/// the same tree, since statistics only feed estimates.
pub fn heuristic_plan_with(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    parallelism: &Parallelism,
) -> Result<PhysicalExpr> {
    plan_rec(expr, catalog, &StatisticsCatalog::empty(), parallelism).map(|p| p.phys)
}

/// The physical planner. Statistics feed the estimates of the explain tree
/// and nothing else.
pub struct PhysicalPlanner<'a> {
    catalog: &'a dyn Catalog,
    stats: &'a StatisticsCatalog,
    parallelism: Parallelism,
}

impl<'a> PhysicalPlanner<'a> {
    /// A serial planner over the given catalog and statistics.
    pub fn new(catalog: &'a dyn Catalog, stats: &'a StatisticsCatalog) -> Self {
        PhysicalPlanner::with_parallelism(catalog, stats, Parallelism::serial())
    }

    /// A planner that inserts exchange operators when `parallelism` has more
    /// than one thread.
    pub fn with_parallelism(
        catalog: &'a dyn Catalog,
        stats: &'a StatisticsCatalog,
        parallelism: Parallelism,
    ) -> Self {
        PhysicalPlanner { catalog, stats, parallelism }
    }

    /// Produce the physical plan for an expression.
    pub fn plan(&self, expr: &RaExpr) -> Result<PhysicalExpr> {
        self.plan_explained(expr).map(|(phys, _)| phys)
    }

    /// Produce the physical plan together with its explain tree.
    pub fn plan_explained(&self, expr: &RaExpr) -> Result<(PhysicalExpr, ExplainPlan)> {
        plan_rec(expr, self.catalog, self.stats, &self.parallelism).map(|p| (p.phys, p.explain))
    }

    /// Produce only the explain tree.
    pub fn explain(&self, expr: &RaExpr) -> Result<ExplainPlan> {
        self.plan_explained(expr).map(|(_, explain)| explain)
    }
}

struct Planned {
    phys: PhysicalExpr,
    explain: ExplainPlan,
}

fn explained(phys: PhysicalExpr, rows: f64, cost: f64, children: Vec<ExplainPlan>) -> Planned {
    let explain = ExplainPlan { op: phys.label(), rows, cost, children };
    Planned { phys, explain }
}

/// Wrap a planned subtree in an exchange operator. Rows pass through
/// unchanged; the repartitioning cost comes from the shared cost model.
fn exchange(child: Planned, partitions: usize) -> Planned {
    let rows = child.explain.rows;
    let cost = child.explain.cost + crate::cost::exchange_cost(rows, partitions);
    explained(
        PhysicalExpr::Exchange { input: Box::new(child.phys), partitions },
        rows,
        cost,
        vec![child.explain],
    )
}

fn plan_rec(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    stats: &StatisticsCatalog,
    par: &Parallelism,
) -> Result<Planned> {
    Ok(match expr {
        RaExpr::Relation { name, .. } => {
            let rows = stats.row_count(name).unwrap_or(0) as f64;
            explained(PhysicalExpr::Source(expr.clone()), rows, rows, vec![])
        }
        RaExpr::Values { rows, .. } => {
            let n = rows.len() as f64;
            explained(PhysicalExpr::Source(expr.clone()), n, n, vec![])
        }
        RaExpr::Select { input, condition } => {
            let mut c = plan_rec(input, catalog, stats, par)?;
            let rows = c.explain.rows * crate::cost::selectivity_with(condition, stats);
            // Batch-eligible filters run column-wise in the engine's
            // vectorized pipelines and charge a discounted per-row factor.
            let cpu = crate::cost::filter_cpu_factor(condition);
            let mut cost = c.explain.cost + c.explain.rows * cpu;
            // A filter is data-parallel: the exchange marks the fused
            // pipeline for contiguous morsels, one per worker.
            if par.enabled() {
                c = exchange(c, par.threads);
                cost = c.explain.cost + c.explain.rows * cpu;
            }
            let mut planned = explained(
                PhysicalExpr::Filter { input: Box::new(c.phys), condition: condition.clone() },
                rows,
                cost,
                vec![c.explain],
            );
            if crate::cost::batch_eligible(condition) {
                planned.explain.op.push_str(" [vec]");
            }
            planned
        }
        RaExpr::Project { input, columns } => {
            let c = plan_rec(input, catalog, stats, par)?;
            let (rows, cost) = (c.explain.rows, c.explain.cost + c.explain.rows);
            explained(
                PhysicalExpr::Project { input: Box::new(c.phys), columns: columns.clone() },
                rows,
                cost,
                vec![c.explain],
            )
        }
        RaExpr::Product { left, right } => {
            plan_join(left, right, &Condition::True, catalog, stats, par)?
        }
        RaExpr::Join { left, right, condition } => {
            plan_join(left, right, condition, catalog, stats, par)?
        }
        RaExpr::SemiJoin { left, right, condition } => {
            plan_semi(left, right, condition, false, catalog, stats, par)?
        }
        RaExpr::AntiJoin { left, right, condition } => {
            plan_semi(left, right, condition, true, catalog, stats, par)?
        }
        RaExpr::Union { left, right } => plan_setop(expr, left, right, catalog, stats, par)?,
        RaExpr::Intersect { left, right } => plan_setop(expr, left, right, catalog, stats, par)?,
        RaExpr::Difference { left, right } => plan_setop(expr, left, right, catalog, stats, par)?,
        RaExpr::UnifySemiJoin { left, right } => {
            let l = plan_rec(left, catalog, stats, par)?;
            let r = plan_rec(right, catalog, stats, par)?;
            let rows = l.explain.rows;
            let cost = l.explain.cost + r.explain.cost + l.explain.rows * r.explain.rows;
            explained(
                PhysicalExpr::UnifySemi {
                    left: Box::new(l.phys),
                    right: Box::new(r.phys),
                    anti: false,
                },
                rows,
                cost,
                vec![l.explain, r.explain],
            )
        }
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            let l = plan_rec(left, catalog, stats, par)?;
            let r = plan_rec(right, catalog, stats, par)?;
            let rows = l.explain.rows;
            let cost = l.explain.cost + r.explain.cost + l.explain.rows * r.explain.rows;
            explained(
                PhysicalExpr::UnifySemi {
                    left: Box::new(l.phys),
                    right: Box::new(r.phys),
                    anti: true,
                },
                rows,
                cost,
                vec![l.explain, r.explain],
            )
        }
        RaExpr::Division { left, right } => {
            let l = plan_rec(left, catalog, stats, par)?;
            let r = plan_rec(right, catalog, stats, par)?;
            let rows = l.explain.rows;
            let cost = l.explain.cost + r.explain.cost + l.explain.rows * r.explain.rows;
            explained(
                PhysicalExpr::Division { left: Box::new(l.phys), right: Box::new(r.phys) },
                rows,
                cost,
                vec![l.explain, r.explain],
            )
        }
        RaExpr::Rename { input, columns } => {
            let c = plan_rec(input, catalog, stats, par)?;
            let (rows, cost) = (c.explain.rows, c.explain.cost + c.explain.rows);
            explained(
                PhysicalExpr::Rename { input: Box::new(c.phys), columns: columns.clone() },
                rows,
                cost,
                vec![c.explain],
            )
        }
        RaExpr::Distinct { input } => {
            let c = plan_rec(input, catalog, stats, par)?;
            let (rows, cost) = (c.explain.rows, c.explain.cost + c.explain.rows);
            explained(
                PhysicalExpr::Distinct { input: Box::new(c.phys) },
                rows,
                cost,
                vec![c.explain],
            )
        }
        RaExpr::Aggregate { input, group_by, aggregates } => {
            let c = plan_rec(input, catalog, stats, par)?;
            let rows = crate::cost::aggregate_rows(c.explain.rows, !group_by.is_empty());
            let cost = c.explain.cost + c.explain.rows;
            explained(
                PhysicalExpr::Aggregate {
                    input: Box::new(c.phys),
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                },
                rows,
                cost,
                vec![c.explain],
            )
        }
    })
}

fn plan_setop(
    expr: &RaExpr,
    left: &RaExpr,
    right: &RaExpr,
    catalog: &dyn Catalog,
    stats: &StatisticsCatalog,
    par: &Parallelism,
) -> Result<Planned> {
    let mut l = plan_rec(left, catalog, stats, par)?;
    let mut r = plan_rec(right, catalog, stats, par)?;
    let rows = crate::cost::setop_rows(l.explain.rows, r.explain.rows);
    // Union branches are independent and run concurrently (the
    // translation's split unions — the Q⁺ arms — are the target).
    // Intersection and difference run on the calling thread.
    if par.enabled() && matches!(expr, RaExpr::Union { .. }) {
        l = exchange(l, par.threads);
        r = exchange(r, par.threads);
    }
    // The same merge charge with or without exchanges (they pass rows
    // through), so serial and parallel plans stay cost-comparable.
    let cost = l.explain.cost + r.explain.cost + l.explain.rows + r.explain.rows;
    let phys = match expr {
        RaExpr::Union { .. } => {
            PhysicalExpr::Union { left: Box::new(l.phys), right: Box::new(r.phys) }
        }
        RaExpr::Intersect { .. } => {
            PhysicalExpr::Intersect { left: Box::new(l.phys), right: Box::new(r.phys) }
        }
        RaExpr::Difference { .. } => {
            PhysicalExpr::Difference { left: Box::new(l.phys), right: Box::new(r.phys) }
        }
        other => {
            return Err(PlanError::Invalid(format!("plan_setop over non-set operator {other}")))
        }
    };
    explained_ok(phys, rows, cost, vec![l.explain, r.explain])
}

fn explained_ok(
    phys: PhysicalExpr,
    rows: f64,
    cost: f64,
    children: Vec<ExplainPlan>,
) -> Result<Planned> {
    Ok(explained(phys, rows, cost, children))
}

fn plan_join(
    left: &RaExpr,
    right: &RaExpr,
    condition: &Condition,
    catalog: &dyn Catalog,
    stats: &StatisticsCatalog,
    par: &Parallelism,
) -> Result<Planned> {
    let l = plan_rec(left, catalog, stats, par)?;
    let mut r = plan_rec(right, catalog, stats, par)?;
    let l_schema = output_schema(left, catalog).map_err(PlanError::Algebra)?;
    let r_schema = output_schema(right, catalog).map_err(PlanError::Algebra)?;
    let split = split_equi(condition, &l_schema, &r_schema);
    let (lr, rr) = (l.explain.rows, r.explain.rows);
    // Hash whenever keys exist, with or without statistics: a hash operator
    // over a tiny input is itself tiny, and row estimates far below the rows
    // that actually arrive are common enough that trusting them to pick a
    // nested loop costs more than it can save.
    let algo = if split.has_keys() { JoinAlgo::hash(split) } else { JoinAlgo::NestedLoop };
    // Shared with the logical estimator (products — condition TRUE — keep
    // the full cross-product cardinality).
    let out_rows = crate::cost::join_rows(lr, rr, condition, stats);
    let op_cost = match &algo {
        JoinAlgo::Hash { .. } => lr + rr,
        JoinAlgo::NestedLoop => lr * rr,
    };
    // Both algorithms run morsel-parallel over the outer (left) side. A
    // hash operator carries its exchange on the build side, a nested loop
    // on the outer side — the child the compiler peels for each.
    let mut l = l;
    match &algo {
        _ if !par.enabled() => {}
        JoinAlgo::Hash { .. } => r = exchange(r, par.threads),
        JoinAlgo::NestedLoop => l = exchange(l, par.threads),
    }
    let cost = l.explain.cost + r.explain.cost + op_cost;
    explained_ok(
        PhysicalExpr::Join {
            left: Box::new(l.phys),
            right: Box::new(r.phys),
            condition: condition.clone(),
            algo,
        },
        out_rows,
        cost,
        vec![l.explain, r.explain],
    )
}

fn plan_semi(
    left: &RaExpr,
    right: &RaExpr,
    condition: &Condition,
    anti: bool,
    catalog: &dyn Catalog,
    stats: &StatisticsCatalog,
    par: &Parallelism,
) -> Result<Planned> {
    let l = plan_rec(left, catalog, stats, par)?;
    let mut r = plan_rec(right, catalog, stats, par)?;
    let left_schema = output_schema(left, catalog).map_err(PlanError::Algebra)?;
    let r_schema = output_schema(right, catalog).map_err(PlanError::Algebra)?;
    let (lr, rr) = (l.explain.rows, r.explain.rows);
    let algo = if !references_schema(condition, &left_schema) {
        SemiAlgo::Decorrelated
    } else {
        // The same rule as for joins: hash whenever keys exist.
        let split = split_equi(condition, &left_schema, &r_schema);
        if split.has_keys() {
            SemiAlgo::hash(split)
        } else {
            SemiAlgo::NestedLoop
        }
    };
    let op_cost = match &algo {
        SemiAlgo::Decorrelated => rr,
        SemiAlgo::Hash { .. } => lr + rr,
        SemiAlgo::NestedLoop => lr * rr,
    };
    // Exchanges as for joins: the preserved side is probed in morsels.
    let mut l = l;
    match &algo {
        _ if !par.enabled() => {}
        SemiAlgo::Hash { .. } => r = exchange(r, par.threads),
        SemiAlgo::NestedLoop => l = exchange(l, par.threads),
        SemiAlgo::Decorrelated => {}
    }
    let rows = crate::cost::semi_rows(lr);
    let cost = l.explain.cost + r.explain.cost + op_cost;
    explained_ok(
        PhysicalExpr::Semi {
            left: Box::new(l.phys),
            right: Box::new(r.phys),
            condition: condition.clone(),
            algo,
            anti,
            left_schema,
        },
        rows,
        cost,
        vec![l.explain, r.explain],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null};
    use certus_data::builder::rel;
    use certus_data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(&["a", "b"], (0..50).map(|i| vec![Value::Int(i), Value::Int(i * 2)]).collect()),
        );
        db.insert_relation(
            "s",
            rel(&["c", "d"], (0..40).map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect()),
        );
        db
    }

    #[test]
    fn heuristic_plan_picks_hash_for_equi_joins() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c"));
        match heuristic_plan(&q, &db).unwrap() {
            PhysicalExpr::Join {
                algo: JoinAlgo::Hash { left_keys, right_keys, null_ok, residual },
                ..
            } => {
                assert_eq!(left_keys, vec!["a"]);
                assert_eq!(right_keys, vec!["c"]);
                assert_eq!(null_ok, vec![NullOk::default()]);
                assert_eq!(residual, Condition::True);
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn or_condition_forces_nested_loops() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        assert!(matches!(
            heuristic_plan(&q, &db).unwrap(),
            PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, .. }
        ));
    }

    #[test]
    fn null_aware_keys_plan_as_hash_operators_and_show_in_explain() {
        let db = db();
        let r = || RaExpr::relation("r");
        let s = || RaExpr::relation("s");
        // `x = y OR x IS NULL [OR y IS NULL]`: a hash join carrying which
        // side's NULL satisfies the key.
        let q = r().join(s(), eq("a", "c").or(is_null("a")));
        let plan = heuristic_plan(&q, &db).unwrap();
        match &plan {
            PhysicalExpr::Join { algo: JoinAlgo::Hash { null_ok, residual, .. }, .. } => {
                assert_eq!(null_ok, &vec![NullOk { left: true, right: false }]);
                assert_eq!(residual, &Condition::True);
            }
            other => panic!("expected hash join, got {other:?}"),
        }
        assert_eq!(plan.label(), "HashJoin [a = c | a null matches]");
        let both = eq("a", "c").or(is_null("c")).or(is_null("a")).and(eq("b", "d"));
        let anti = heuristic_plan(&r().anti_join(s(), both), &db).unwrap();
        assert_eq!(anti.label(), "HashAntiJoin [a = c AND b = d | a, c null matches]");
        assert!(format!("{anti:?}").contains("null_ok: [NullOk { left: true, right: true }, "));
        // Plain keys print as they did before the flag existed.
        let plain = heuristic_plan(&r().semi_join(s(), eq("a", "c")), &db).unwrap();
        assert_eq!(plain.label(), "HashSemiJoin [a = c]");
        assert!(format!("{plain:?}").contains(
            "algo: Hash { left_keys: [\"a\"], right_keys: [\"c\"], residual: True }, anti: false"
        ));
    }

    #[test]
    fn aliased_self_joins_hash_on_their_keys() {
        // Q1's (anti-)semijoins: `l2.k = l1.k AND l2.s <> l1.s` over two
        // aliases of one table is a key plus a residual.
        let db = db();
        let cond = eq("l2.a", "l1.a").and(certus_algebra::builder::neq("l2.b", "l1.b"));
        let q = RaExpr::relation_as("r", "l1").semi_join(RaExpr::relation_as("r", "l2"), cond);
        match heuristic_plan(&q, &db).unwrap() {
            PhysicalExpr::Semi {
                algo: SemiAlgo::Hash { left_keys, right_keys, residual, .. },
                ..
            } => {
                assert_eq!(left_keys, vec!["l1.a"]);
                assert_eq!(right_keys, vec!["l2.a"]);
                assert_eq!(residual, certus_algebra::builder::neq("l2.b", "l1.b"));
            }
            other => panic!("expected hash semijoin, got {other:?}"),
        }
        // An unqualified name is ambiguous over the two aliases: no key.
        let q = RaExpr::relation_as("r", "l1")
            .join(RaExpr::relation_as("r", "l2"), eq("a", "l2.a").or(is_null("l2.b")));
        assert!(matches!(
            heuristic_plan(&q, &db).unwrap(),
            PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, .. }
        ));
    }

    #[test]
    fn both_planners_hash_whenever_keys_exist() {
        // One row on each side: a nested loop would be cheaper by the
        // estimates, and estimates choose nothing.
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db.insert_relation("s", rel(&["c", "d"], vec![vec![Value::Int(1), Value::Int(2)]]));
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        for q in [
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")),
            RaExpr::relation("r").semi_join(RaExpr::relation("s"), eq("a", "c")),
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c"))),
        ] {
            assert_eq!(planner.plan(&q).unwrap(), heuristic_plan(&q, &db).unwrap(), "{q}");
        }
    }

    #[test]
    fn uncorrelated_antijoin_is_decorrelated() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("d"));
        match heuristic_plan(&q, &db).unwrap() {
            PhysicalExpr::Semi { algo, anti, left_schema, .. } => {
                assert_eq!(algo, SemiAlgo::Decorrelated);
                assert!(anti);
                assert_eq!(left_schema.names(), vec!["a", "b"]);
            }
            other => panic!("expected semi node, got {other:?}"),
        }
    }

    #[test]
    fn products_become_nested_loop_joins_with_true_condition() {
        let db = db();
        let q = RaExpr::relation("r").product(RaExpr::relation("s"));
        assert!(matches!(
            heuristic_plan(&q, &db).unwrap(),
            PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, condition: Condition::True, .. }
        ));
    }

    #[test]
    fn cost_based_planner_annotates_rows_and_costs() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")).project(&["a"]);
        let (phys, explain) = planner.plan_explained(&q).unwrap();
        assert_eq!(phys.size(), 4);
        assert_eq!(explain.size(), 4);
        assert_eq!(explain.children[0].children[0].rows, 50.0);
        let text = explain.to_string();
        assert!(text.contains("HashJoin [a = c]"), "{text}");
        assert!(text.contains("Scan r"), "{text}");
        assert!(text.contains("cost≈"), "{text}");
    }

    #[test]
    fn product_explain_keeps_cross_product_cardinality() {
        // Regression: products are planned as TRUE-condition joins; the row
        // estimate must stay l*r (matching cost::estimate_with's Product
        // arm), not the equi-join formula's ~min(l, r).
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let q = RaExpr::relation("r").product(RaExpr::relation("s"));
        let explain = planner.explain(&q).unwrap();
        assert_eq!(explain.rows, 2000.0, "{explain}");
        let logical = crate::cost::estimate_with(&q, &db, &stats).unwrap();
        assert_eq!(explain.rows, logical.rows);
    }

    #[test]
    fn heuristic_parallel_plan_partitions_hash_builds() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c"));
        // Serial: no exchange. Parallel: the build side carries one.
        assert!(!heuristic_plan(&q, &db).unwrap().has_exchange());
        match heuristic_plan_with(&q, &db, &Parallelism::new(4)).unwrap() {
            PhysicalExpr::Join { left, right, algo: JoinAlgo::Hash { .. }, .. } => {
                assert!(
                    matches!(*right, PhysicalExpr::Exchange { partitions: 4, .. }),
                    "{right:?}"
                );
                assert!(!left.has_exchange());
            }
            other => panic!("expected hash join, got {other:?}"),
        }
        // Nested-loop joins carry theirs on the outer side.
        let nl = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        match heuristic_plan_with(&nl, &db, &Parallelism::new(4)).unwrap() {
            PhysicalExpr::Join { left, right, algo: JoinAlgo::NestedLoop, .. } => {
                assert!(matches!(*left, PhysicalExpr::Exchange { partitions: 4, .. }), "{left:?}");
                assert!(!right.has_exchange());
            }
            other => panic!("expected nested-loop join, got {other:?}"),
        }
    }

    #[test]
    fn heuristic_parallel_plan_marks_union_arms() {
        let db = db();
        let q = RaExpr::relation("r").union(RaExpr::relation("r").select(is_null("b")));
        let plan = heuristic_plan_with(&q, &db, &Parallelism::new(2)).unwrap();
        match plan {
            PhysicalExpr::Union { left, right } => {
                assert!(matches!(*left, PhysicalExpr::Exchange { partitions: 2, .. }));
                assert!(matches!(*right, PhysicalExpr::Exchange { partitions: 2, .. }));
            }
            other => panic!("expected union, got {other:?}"),
        }
    }

    /// Remove every exchange of a plan, in place.
    fn strip_exchanges(plan: &mut PhysicalExpr) {
        while let PhysicalExpr::Exchange { input, .. } = plan {
            *plan = std::mem::replace(&mut **input, PhysicalExpr::Source(RaExpr::relation("")));
        }
        match plan {
            PhysicalExpr::Source(_) => {}
            PhysicalExpr::Filter { input, .. }
            | PhysicalExpr::Project { input, .. }
            | PhysicalExpr::Rename { input, .. }
            | PhysicalExpr::Distinct { input }
            | PhysicalExpr::Aggregate { input, .. }
            | PhysicalExpr::Exchange { input, .. } => strip_exchanges(input),
            PhysicalExpr::Join { left, right, .. }
            | PhysicalExpr::Semi { left, right, .. }
            | PhysicalExpr::Union { left, right }
            | PhysicalExpr::Intersect { left, right }
            | PhysicalExpr::Difference { left, right }
            | PhysicalExpr::UnifySemi { left, right, .. }
            | PhysicalExpr::Division { left, right } => {
                strip_exchanges(left);
                strip_exchanges(right);
            }
        }
    }

    /// Per child of `node`, whether the engine fans the node's work out when
    /// that child is an exchange.
    fn exchange_sites(node: &PhysicalExpr) -> [bool; 2] {
        match node {
            PhysicalExpr::Filter { .. } => [true, false],
            PhysicalExpr::Union { .. } => [true, true],
            PhysicalExpr::Join { algo: JoinAlgo::Hash { .. }, .. }
            | PhysicalExpr::Semi { algo: SemiAlgo::Hash { .. }, .. } => [false, true],
            PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, .. }
            | PhysicalExpr::Semi { algo: SemiAlgo::NestedLoop, .. } => [true, false],
            _ => [false, false],
        }
    }

    /// Assert that exactly the children [`exchange_sites`] names are
    /// exchanges, all over the plan.
    fn assert_exchange_rule(node: &PhysicalExpr, partitions: usize) {
        let node = match node {
            PhysicalExpr::Exchange { input, .. } => input,
            other => other,
        };
        assert!(!matches!(node, PhysicalExpr::Exchange { .. }), "exchange over an exchange");
        for (child, site) in node.children().into_iter().zip(exchange_sites(node)) {
            match child {
                PhysicalExpr::Exchange { partitions: n, .. } => {
                    assert!(site, "{} must not sit under {}", child.label(), node.label());
                    assert_eq!(*n, partitions);
                }
                _ => assert!(!site, "{} lacks an exchange over {}", node.label(), child.label()),
            }
            assert_exchange_rule(child, partitions);
        }
    }

    #[test]
    fn every_exchange_sits_under_a_filter_a_join_like_operator_or_a_union() {
        use certus_algebra::expr::AggExpr;
        let tpch = certus_tpch::DbGen::new(0.0002, 11).generate();
        let params = certus_tpch::QueryParams::random(&tpch, 11);
        let rewriter = certus_core::CertainRewriter::new();
        let mut cases: Vec<(RaExpr, &Database)> = [
            certus_tpch::q1(&params),
            certus_tpch::q2(&params),
            certus_tpch::q3(&params),
            certus_tpch::q4(&params),
        ]
        .iter()
        .map(|q| (rewriter.rewrite_plus(q, &tpch).unwrap(), &tpch))
        .collect();
        // δ, ∩, − and γ fan nothing out; the filters beneath them still do.
        let db = db();
        let r = || RaExpr::relation("r");
        let sets = r().select(is_null("b")).intersect(r()).difference(r().select(eq("a", "b")));
        cases.push((
            sets.distinct().aggregate(&["a"], vec![AggExpr::count_star("n")]).project(&["n"]),
            &db,
        ));
        for (q, db) in &cases {
            let serial = heuristic_plan(q, *db).unwrap();
            assert!(!serial.has_exchange(), "{q}");
            let mut parallel = heuristic_plan_with(q, *db, &Parallelism::new(4)).unwrap();
            assert!(parallel.has_exchange(), "{q}");
            assert_exchange_rule(&parallel, 4);
            strip_exchanges(&mut parallel);
            assert_eq!(parallel, serial, "{q}");
        }
    }

    #[test]
    fn statistics_never_change_the_plan() {
        let db = db();
        let analysed = StatisticsCatalog::analyze(&db);
        let empty = StatisticsCatalog::empty();
        let r = || RaExpr::relation("r");
        let s = || RaExpr::relation("s");
        // One query per exchange site — filter, union, hash and nested-loop
        // join, hash and nested-loop (anti-)semijoin — plus the operators
        // that have none: distinct, grouped aggregate, decorrelated semijoin.
        let queries = [
            r().select(is_null("b")),
            r().project(&["a"]).distinct(),
            r().aggregate(&["a"], vec![]),
            r().union(r().select(is_null("b"))),
            r().join(s(), eq("a", "c")),
            r().join(s(), eq("a", "c").or(is_null("d"))),
            r().semi_join(s(), eq("a", "c")),
            r().anti_join(s(), eq("a", "c").or(is_null("d"))),
            r().anti_join(s(), is_null("d")),
        ];
        for threads in [1, 4] {
            let par = Parallelism::new(threads);
            for q in &queries {
                let plan = |stats| {
                    PhysicalPlanner::with_parallelism(&db, stats, par.clone()).plan(q).unwrap()
                };
                assert_eq!(plan(&analysed), plan(&empty), "{threads} threads, {q}");
                assert_eq!(plan(&analysed), heuristic_plan_with(q, &db, &par).unwrap(), "{q}");
            }
        }
        // 40 build rows are far below the engine's parallel floor; the
        // exchange is planned all the same, and the explain renders it with
        // pass-through rows and a repartition cost.
        let planner = PhysicalPlanner::with_parallelism(&db, &analysed, Parallelism::new(4));
        let (plan, explain) = planner.plan_explained(&r().join(s(), eq("a", "c"))).unwrap();
        assert!(plan.has_exchange());
        let text = explain.to_string();
        assert!(text.contains("Exchange x4"), "{text}");
        let exchange = &explain.children[1];
        assert_eq!(exchange.rows, 40.0);
        assert_eq!(
            exchange.cost,
            exchange.children[0].cost + crate::cost::exchange_cost(40.0, 4),
            "{text}"
        );
    }

    #[test]
    fn explain_annotates_batch_eligible_filters() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let vec_q = RaExpr::relation("r").select(eq("a", "a"));
        let text = planner.explain(&vec_q).unwrap().to_string();
        assert!(text.contains("[vec]"), "{text}");
        // A LIKE filter evaluates row-at-a-time inside the batch: no tag.
        let like = certus_algebra::condition::Condition::Like {
            expr: certus_algebra::condition::Operand::Col("a".into()),
            pattern: "%x%".into(),
            negated: false,
        };
        let row_q = RaExpr::relation("r").select(like);
        let text = planner.explain(&row_q).unwrap().to_string();
        assert!(!text.contains("[vec]"), "{text}");
    }

    #[test]
    fn exchange_labels_and_partition_counts() {
        let node = PhysicalExpr::Exchange {
            input: Box::new(PhysicalExpr::Source(RaExpr::relation("r"))),
            partitions: 8,
        };
        assert_eq!(node.label(), "Exchange x8");
        assert!(node.has_exchange());
        assert_eq!(node.size(), 2);
    }

    #[test]
    fn parallelism_defaults_are_serial() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(!Parallelism::serial().enabled());
        assert!(Parallelism::new(2).enabled());
        // Degenerate thread counts clamp to one.
        assert_eq!(Parallelism::new(0).threads, 1);
    }

    #[test]
    fn explain_shows_nested_loop_cost_blowup() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let good = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c"));
        let bad = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        let g = planner.explain(&good).unwrap();
        let b = planner.explain(&bad).unwrap();
        assert!(b.cost > 10.0 * g.cost, "NL {b:?} should dwarf hash {g:?}");
    }
}
