//! Physical planning: turning a logical [`RaExpr`] into a [`PhysicalExpr`]
//! tree with an explicit algorithm choice per join-like node.
//!
//! There is one planner, [`heuristic_plan_with`], and its choices follow
//! from the expression, the catalog's schemas and the thread count alone:
//! hash join whenever a key — plain or null-aware, see [`crate::plan::equi`]
//! — can be extracted, decorrelated short-circuit whenever a semijoin
//! condition ignores the outer side, nested loops otherwise; an exchange at
//! every site the engine can run in parallel when there is more than one
//! thread (the engine decides at run time, on the rows that actually
//! arrive, whether to use it). It takes no statistics, so they cannot
//! change a plan. The row and cost estimates `EXPLAIN` shows
//! ([`ExplainPlan`]) are computed for a finished plan by
//! `plan::cost::explain`; [`PhysicalPlanner`] bundles the planner
//! with a [`StatisticsCatalog`] for that.

use crate::algebra::condition::Condition;
use crate::algebra::expr::{AggExpr, ProjCol, RaExpr};
use crate::algebra::schema_infer::{output_schema, Catalog};
use crate::data::Schema;
use crate::obs::ExplainPlan;
use crate::plan::equi::{references_schema, split_equi, EquiSplit, NullOk};
use crate::plan::stats::StatisticsCatalog;
use crate::Result;
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
    pub(crate) fn enabled(&self) -> bool {
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
/// (the engine's `CompiledPlan`) derives every node's output schema
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
            | PhysicalExpr::UnifySemi { left, right, .. } => vec![left, right],
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

/// The physical planner together with the statistics its explain trees
/// are estimated from. Statistics feed [`PhysicalPlanner::explain`] and
/// nothing else.
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
        heuristic_plan_with(expr, self.catalog, &self.parallelism)
    }

    /// `EXPLAIN` of the plan, estimated from the statistics.
    pub fn explain(&self, expr: &RaExpr) -> Result<ExplainPlan> {
        let plan = self.plan(expr)?;
        Ok(ExplainPlan::new(&plan, &crate::plan::cost::explain(&plan, self.stats), None))
    }
}

/// An exchange over a planned subtree when there is more than one thread;
/// the subtree itself otherwise.
fn exchange(child: Box<PhysicalExpr>, par: &Parallelism) -> Box<PhysicalExpr> {
    if par.enabled() {
        Box::new(PhysicalExpr::Exchange { input: child, partitions: par.threads })
    } else {
        child
    }
}

/// The physical plan of an expression for an engine with `par`'s threads.
pub fn heuristic_plan_with(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    par: &Parallelism,
) -> Result<PhysicalExpr> {
    let plan = |e: &RaExpr| heuristic_plan_with(e, catalog, par).map(Box::new);
    Ok(match expr {
        RaExpr::Relation { .. } | RaExpr::Values { .. } => PhysicalExpr::Source(expr.clone()),
        // A filter is data-parallel: the exchange marks the fused pipeline
        // for contiguous morsels, one per worker.
        RaExpr::Select { input, condition } => PhysicalExpr::Filter {
            input: exchange(plan(input)?, par),
            condition: condition.clone(),
        },
        RaExpr::Project { input, columns } => {
            PhysicalExpr::Project { input: plan(input)?, columns: columns.clone() }
        }
        RaExpr::Product { left, right } => plan_join(left, right, &Condition::True, catalog, par)?,
        RaExpr::Join { left, right, condition } => plan_join(left, right, condition, catalog, par)?,
        RaExpr::SemiJoin { left, right, condition } => {
            plan_semi(left, right, condition, false, catalog, par)?
        }
        RaExpr::AntiJoin { left, right, condition } => {
            plan_semi(left, right, condition, true, catalog, par)?
        }
        // Union branches are independent and run concurrently (the
        // translation's split unions — the Q⁺ arms — are the target).
        // Intersection and difference run on the calling thread.
        RaExpr::Union { left, right } => PhysicalExpr::Union {
            left: exchange(plan(left)?, par),
            right: exchange(plan(right)?, par),
        },
        RaExpr::Intersect { left, right } => {
            PhysicalExpr::Intersect { left: plan(left)?, right: plan(right)? }
        }
        RaExpr::Difference { left, right } => {
            PhysicalExpr::Difference { left: plan(left)?, right: plan(right)? }
        }
        RaExpr::UnifySemiJoin { left, right } => {
            PhysicalExpr::UnifySemi { left: plan(left)?, right: plan(right)?, anti: false }
        }
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            PhysicalExpr::UnifySemi { left: plan(left)?, right: plan(right)?, anti: true }
        }
        RaExpr::Rename { input, columns } => {
            PhysicalExpr::Rename { input: plan(input)?, columns: columns.clone() }
        }
        RaExpr::Distinct { input } => PhysicalExpr::Distinct { input: plan(input)? },
        RaExpr::Aggregate { input, group_by, aggregates } => PhysicalExpr::Aggregate {
            input: plan(input)?,
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
    })
}

fn plan_join(
    left: &RaExpr,
    right: &RaExpr,
    condition: &Condition,
    catalog: &dyn Catalog,
    par: &Parallelism,
) -> Result<PhysicalExpr> {
    let mut l = Box::new(heuristic_plan_with(left, catalog, par)?);
    let mut r = Box::new(heuristic_plan_with(right, catalog, par)?);
    let split =
        split_equi(condition, &output_schema(left, catalog)?, &output_schema(right, catalog)?);
    // Hash whenever keys exist: a hash operator over a tiny input is itself
    // tiny, and row estimates far below the rows that actually arrive are
    // common enough that trusting them to pick a nested loop costs more
    // than it can save.
    let algo = if split.has_keys() { JoinAlgo::hash(split) } else { JoinAlgo::NestedLoop };
    // Both algorithms run morsel-parallel over the outer (left) side. A
    // hash operator carries its exchange on the build side, a nested loop
    // on the outer side — the child the compiler peels for each.
    match &algo {
        JoinAlgo::Hash { .. } => r = exchange(r, par),
        JoinAlgo::NestedLoop => l = exchange(l, par),
    }
    Ok(PhysicalExpr::Join { left: l, right: r, condition: condition.clone(), algo })
}

fn plan_semi(
    left: &RaExpr,
    right: &RaExpr,
    condition: &Condition,
    anti: bool,
    catalog: &dyn Catalog,
    par: &Parallelism,
) -> Result<PhysicalExpr> {
    let mut l = Box::new(heuristic_plan_with(left, catalog, par)?);
    let mut r = Box::new(heuristic_plan_with(right, catalog, par)?);
    let left_schema = output_schema(left, catalog)?;
    let r_schema = output_schema(right, catalog)?;
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
    // Exchanges as for joins: the preserved side is probed in morsels.
    match &algo {
        SemiAlgo::Hash { .. } => r = exchange(r, par),
        SemiAlgo::NestedLoop => l = exchange(l, par),
        SemiAlgo::Decorrelated => {}
    }
    let condition = condition.clone();
    Ok(PhysicalExpr::Semi { left: l, right: r, condition, algo, anti, left_schema })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, is_null};
    use crate::data::builder::rel;
    use crate::data::{Database, Value};

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
        match heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap() {
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
            heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap(),
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
        let plan = heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap();
        match &plan {
            PhysicalExpr::Join { algo: JoinAlgo::Hash { null_ok, residual, .. }, .. } => {
                assert_eq!(null_ok, &vec![NullOk { left: true, right: false }]);
                assert_eq!(residual, &Condition::True);
            }
            other => panic!("expected hash join, got {other:?}"),
        }
        assert_eq!(plan.label(), "HashJoin [a = c | a null matches]");
        let both = eq("a", "c").or(is_null("c")).or(is_null("a")).and(eq("b", "d"));
        let anti =
            heuristic_plan_with(&r().anti_join(s(), both), &db, &Parallelism::serial()).unwrap();
        assert_eq!(anti.label(), "HashAntiJoin [a = c AND b = d | a, c null matches]");
        assert!(format!("{anti:?}").contains("null_ok: [NullOk { left: true, right: true }, "));
        // Plain keys print as they did before the flag existed.
        let plain =
            heuristic_plan_with(&r().semi_join(s(), eq("a", "c")), &db, &Parallelism::serial())
                .unwrap();
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
        let cond = eq("l2.a", "l1.a").and(crate::algebra::builder::neq("l2.b", "l1.b"));
        let q = RaExpr::relation_as("r", "l1").semi_join(RaExpr::relation_as("r", "l2"), cond);
        match heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap() {
            PhysicalExpr::Semi {
                algo: SemiAlgo::Hash { left_keys, right_keys, residual, .. },
                ..
            } => {
                assert_eq!(left_keys, vec!["l1.a"]);
                assert_eq!(right_keys, vec!["l2.a"]);
                assert_eq!(residual, crate::algebra::builder::neq("l2.b", "l1.b"));
            }
            other => panic!("expected hash semijoin, got {other:?}"),
        }
        // An unqualified name is ambiguous over the two aliases: no key.
        let q = RaExpr::relation_as("r", "l1")
            .join(RaExpr::relation_as("r", "l2"), eq("a", "l2.a").or(is_null("l2.b")));
        assert!(matches!(
            heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap(),
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
            assert_eq!(
                planner.plan(&q).unwrap(),
                heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn uncorrelated_antijoin_is_decorrelated() {
        let db = db();
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("d"));
        match heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap() {
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
            heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap(),
            PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, condition: Condition::True, .. }
        ));
    }

    #[test]
    fn cost_based_planner_annotates_rows_and_costs() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")).project(&["a"]);
        let phys = planner.plan(&q).unwrap();
        let explain = planner.explain(&q).unwrap();
        assert_eq!(phys.size(), 4);
        assert_eq!(explain.node_count(), 4);
        assert_eq!(explain.flatten()[2].rows_est, 50.0);
        let text = explain.to_string();
        assert!(text.contains("HashJoin [a = c]"), "{text}");
        assert!(text.contains("Scan r"), "{text}");
        assert!(text.contains("cost≈"), "{text}");
    }

    #[test]
    fn product_explain_keeps_cross_product_cardinality() {
        // Regression: products are planned as TRUE-condition joins; the row
        // estimate must stay l*r, not the equi-join formula's ~min(l, r).
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let planner = PhysicalPlanner::new(&db, &stats);
        let q = RaExpr::relation("r").product(RaExpr::relation("s"));
        let explain = planner.explain(&q).unwrap();
        assert_eq!(explain.root().rows_est, 2000.0, "{explain}");
        let (r, s) = (db.relation("r").unwrap().len(), db.relation("s").unwrap().len());
        assert_eq!(explain.root().rows_est, (r * s) as f64);
    }

    #[test]
    fn heuristic_parallel_plan_partitions_hash_builds() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c"));
        // Serial: no exchange. Parallel: the build side carries one.
        assert!(!heuristic_plan_with(&q, &db, &Parallelism::serial()).unwrap().has_exchange());
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
            | PhysicalExpr::UnifySemi { left, right, .. } => {
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
        use crate::algebra::expr::AggExpr;
        let tpch = crate::tpch::DbGen::new(0.0002, 11).generate();
        let params = crate::tpch::QueryParams::random(&tpch, 11);
        let rewriter = crate::core::CertainRewriter::new();
        let mut cases: Vec<(RaExpr, &Database)> = [
            crate::tpch::q1(&params),
            crate::tpch::q2(&params),
            crate::tpch::q3(&params),
            crate::tpch::q4(&params),
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
            let serial = heuristic_plan_with(q, *db, &Parallelism::serial()).unwrap();
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
        let q = r().join(s(), eq("a", "c"));
        let (plan, explain) = (planner.plan(&q).unwrap(), planner.explain(&q).unwrap());
        assert!(plan.has_exchange());
        let text = explain.to_string();
        assert!(text.contains("Exchange x4"), "{text}");
        // Join, scan r, then the exchange over scan s.
        let (exchange, scan) = (explain.flatten()[2], explain.flatten()[3]);
        assert_eq!(exchange.rows_est, 40.0);
        assert_eq!(
            exchange.cost_est,
            scan.cost_est + crate::plan::cost::exchange_cost(40.0, 4),
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
        let like = crate::algebra::condition::Condition::Like {
            expr: crate::algebra::condition::Operand::Col("a".into()),
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
        assert!(b.root().cost_est > 10.0 * g.root().cost_est, "NL {b} should dwarf hash {g}");
    }
}
