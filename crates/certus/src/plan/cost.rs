//! Cardinality and cost estimation (`EXPLAIN`).
//!
//! One function, [`explain`], walks a physical plan bottom-up and puts
//! estimated output rows and cumulative cost on every node. Base
//! cardinalities, equality selectivities (`1 / distinct`) and null-check
//! selectivities (the measured null fraction) come from a
//! [`StatisticsCatalog`]; predicates it knows nothing about fall back to
//! fixed magic numbers, and a relation it has not analyzed scans no rows.
//! The plan is chosen before, and without, any of this: estimates describe
//! a plan and never pick one.
//!
//! An operator's charge follows its algorithm: a hash join or
//! (anti-)semijoin reads each input once, a nested loop compares every pair
//! — the "astronomical" plan costs the paper reports in Section 7 for
//! conditions that hide their equality. The translation's own
//! `A = B OR B IS NULL` shape is a null-aware key (see [`crate::plan::equi`])
//! and is charged like any hash join.
//!
//! Costs are *per-row operation counts*, independent of how the engine
//! executes a plan. In particular the engine's compiled runtime fuses
//! `Filter`/`Project`/`Rename`/`Distinct` chains into a single pass, so the
//! per-operator charges of such a chain over-count the constant factor but
//! preserve the ordering between plans.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::RaExpr;
use crate::plan::physical::{ExplainPlan, JoinAlgo, PhysicalExpr, SemiAlgo};
use crate::plan::stats::StatisticsCatalog;

/// Estimate the selectivity of a condition, consulting column statistics
/// where available and falling back to the fixed magic numbers otherwise.
pub(crate) fn selectivity_with(condition: &Condition, stats: &StatisticsCatalog) -> f64 {
    match condition {
        Condition::True => 1.0,
        Condition::False => 0.0,
        Condition::Cmp { left, op, right } => match op {
            crate::data::compare::CmpOp::Eq => eq_selectivity(left, right, stats),
            crate::data::compare::CmpOp::Neq => 1.0 - eq_selectivity(left, right, stats),
            _ => 0.33,
        },
        Condition::IsNull(x) => {
            column_stat(x, stats).map(|c| c.null_fraction).unwrap_or(0.05).clamp(0.0, 1.0)
        }
        Condition::IsNotNull(x) => {
            1.0 - column_stat(x, stats).map(|c| c.null_fraction).unwrap_or(0.05).clamp(0.0, 1.0)
        }
        Condition::Like { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        Condition::InList { expr, list, negated, .. } => {
            let per_value =
                column_stat(expr, stats).map(|c| 1.0 / c.distinct.max(1) as f64).unwrap_or(0.1);
            let s = (per_value * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Condition::And(a, b) => selectivity_with(a, stats) * selectivity_with(b, stats),
        Condition::Or(a, b) => {
            let (x, y) = (selectivity_with(a, stats), selectivity_with(b, stats));
            (x + y - x * y).min(1.0)
        }
        Condition::Not(inner) => 1.0 - selectivity_with(inner, stats),
    }
}

fn column_stat<'a>(
    op: &Operand,
    stats: &'a StatisticsCatalog,
) -> Option<&'a crate::plan::stats::ColumnStats> {
    op.as_col().and_then(|c| stats.column(c))
}

/// Selectivity of `left = right`: `1 / distinct` when statistics know one of
/// the sides, the seed's fixed `0.1` otherwise.
fn eq_selectivity(left: &Operand, right: &Operand, stats: &StatisticsCatalog) -> f64 {
    let distinct = column_stat(left, stats)
        .into_iter()
        .chain(column_stat(right, stats))
        .map(|c| c.distinct)
        .max();
    match distinct {
        Some(d) if d > 0 => 1.0 / d as f64,
        _ => 0.1,
    }
}

// Per-operator row-count formulas.

/// Output rows of a theta-join (a product is a join with condition `TRUE`,
/// which keeps the full cross-product cardinality).
pub(crate) fn join_rows(lr: f64, rr: f64, condition: &Condition, stats: &StatisticsCatalog) -> f64 {
    if matches!(condition, Condition::True) {
        lr * rr
    } else {
        (lr * rr * selectivity_with(condition, stats) / lr.max(rr).max(1.0)).max(1.0)
    }
}

/// Output rows of a (anti-)semijoin.
pub(crate) fn semi_rows(lr: f64) -> f64 {
    (lr * 0.5).max(1.0)
}

/// Output rows of a set operation.
pub(crate) fn setop_rows(lr: f64, rr: f64) -> f64 {
    lr.max(rr)
}

/// Output rows of an aggregation.
pub(crate) fn aggregate_rows(input_rows: f64, grouped: bool) -> f64 {
    if grouped {
        (input_rows / 10.0).max(1.0)
    } else {
        1.0
    }
}

/// Per-row CPU discount of a batch-eligible filter (the engine evaluates it
/// column-wise over typed vectors instead of dispatching per row). The
/// constant is a calibration of the observed fused-pipeline speedup, not a
/// law; what matters to an estimate is that vectorizable filters charge
/// less than row-at-a-time ones.
const VECTORIZED_FILTER_FACTOR: f64 = 0.25;

/// Whether the engine's vectorized pipelines evaluate this condition with
/// typed column loops throughout. `LIKE` and `IN`-list atoms and
/// scalar-subquery operands run row-at-a-time *inside* the batch (still
/// correct, but not discounted); everything else — comparisons, null
/// checks, the Kleene connectives — is mask arithmetic.
pub(crate) fn batch_eligible(condition: &Condition) -> bool {
    let operand_ok = |o: &Operand| !matches!(o, Operand::Scalar(_));
    match condition {
        Condition::True | Condition::False => true,
        Condition::Cmp { left, right, .. } => operand_ok(left) && operand_ok(right),
        Condition::IsNull(x) | Condition::IsNotNull(x) => operand_ok(x),
        Condition::Like { .. } | Condition::InList { .. } => false,
        Condition::And(a, b) | Condition::Or(a, b) => batch_eligible(a) && batch_eligible(b),
        Condition::Not(inner) => batch_eligible(inner),
    }
}

/// The per-row CPU factor of a filter over this condition: discounted when
/// the condition is batch-eligible, full price otherwise.
pub(crate) fn filter_cpu_factor(condition: &Condition) -> f64 {
    if batch_eligible(condition) {
        VECTORIZED_FILTER_FACTOR
    } else {
        1.0
    }
}

/// Fixed per-partition setup charge of an exchange operator (allocating the
/// partition buffers and handing work to a thread).
const EXCHANGE_PARTITION_SETUP: f64 = 8.0;

/// Cost of an exchange (repartition) operator over `rows` input rows split
/// into `partitions` partitions: one routing pass over the input plus the
/// per-partition setup. Rows pass through unchanged.
pub(crate) fn exchange_cost(rows: f64, partitions: usize) -> f64 {
    rows + EXCHANGE_PARTITION_SETUP * partitions.max(1) as f64
}

/// The `EXPLAIN` tree of a physical plan: every node's label, estimated
/// output rows and cumulative cost (its own charge plus its children's),
/// computed bottom-up from `stats`. An exchange passes its rows through and
/// charges one routing pass; a batch-eligible filter is tagged `[vec]`.
pub fn explain(plan: &PhysicalExpr, stats: &StatisticsCatalog) -> ExplainPlan {
    let children: Vec<ExplainPlan> =
        plan.children().into_iter().map(|c| explain(c, stats)).collect();
    let input = |i: usize| children.get(i).map_or((0.0, 0.0), |c| (c.rows, c.cost));
    let ((lr, lc), (rr, rc)) = (input(0), input(1));
    let mut op = plan.label();
    let (rows, charge) = match plan {
        PhysicalExpr::Source(source) => {
            let n = match source {
                RaExpr::Relation { name, .. } => stats.row_count(name).unwrap_or(0),
                RaExpr::Values { rows, .. } => rows.len(),
                _ => 0,
            } as f64;
            (n, n)
        }
        PhysicalExpr::Filter { condition, .. } => {
            if batch_eligible(condition) {
                op.push_str(" [vec]");
            }
            (lr * selectivity_with(condition, stats), lr * filter_cpu_factor(condition))
        }
        PhysicalExpr::Project { .. }
        | PhysicalExpr::Rename { .. }
        | PhysicalExpr::Distinct { .. } => (lr, lr),
        PhysicalExpr::Join { condition, algo, .. } => {
            let charge = match algo {
                JoinAlgo::Hash { .. } => lr + rr,
                JoinAlgo::NestedLoop => lr * rr,
            };
            (join_rows(lr, rr, condition, stats), charge)
        }
        PhysicalExpr::Semi { algo, .. } => {
            let charge = match algo {
                SemiAlgo::Decorrelated => rr,
                SemiAlgo::Hash { .. } => lr + rr,
                SemiAlgo::NestedLoop => lr * rr,
            };
            (semi_rows(lr), charge)
        }
        PhysicalExpr::Union { .. }
        | PhysicalExpr::Intersect { .. }
        | PhysicalExpr::Difference { .. } => (setop_rows(lr, rr), lr + rr),
        PhysicalExpr::UnifySemi { .. } | PhysicalExpr::Division { .. } => (lr, lr * rr),
        PhysicalExpr::Aggregate { group_by, .. } => (aggregate_rows(lr, !group_by.is_empty()), lr),
        PhysicalExpr::Exchange { partitions, .. } => (lr, exchange_cost(lr, *partitions)),
    };
    ExplainPlan { op, rows, cost: lc + rc + charge, children }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, is_null};
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Value};
    use crate::plan::physical::{heuristic_plan_with, Parallelism};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], (0..1000).map(|i| vec![Value::Int(i)]).collect()));
        db.insert_relation("s", rel(&["b"], (0..1000).map(|i| vec![Value::Int(i)]).collect()));
        db
    }

    /// The root of the serial plan's explain tree under `stats`.
    fn estimate(expr: &RaExpr, db: &Database, stats: &StatisticsCatalog) -> ExplainPlan {
        explain(&heuristic_plan_with(expr, db, &Parallelism::serial()).unwrap(), stats)
    }

    #[test]
    fn a_keyless_disjunction_inflates_join_cost_and_a_null_aware_key_does_not() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let join = |c: Condition| {
            estimate(&RaExpr::relation("r").join(RaExpr::relation("s"), c), &db, &stats)
        };
        let plain = join(eq("a", "b"));
        // `x = y OR y IS NULL` is a null-aware hash key: priced at l + r.
        assert_eq!(join(eq("a", "b").or(is_null("b"))).cost, plain.cost);
        // A disjunct that is not a null test on a key column has no hash
        // form: every pair is compared.
        let keyless = join(eq("a", "b").or(gt_const("b", 5)));
        assert!(
            keyless.cost > 100.0 * plain.cost,
            "nested-loop estimate should dwarf hash estimate: {keyless:?} vs {plain:?}"
        );
    }

    fn gt_const(col: &str, v: i64) -> Condition {
        Condition::cmp_const(col, crate::data::compare::CmpOp::Gt, Value::Int(v))
    }

    #[test]
    fn decorrelated_antijoin_is_cheap() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let correlated = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let decorrelated = RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("b"));
        let c = estimate(&correlated, &db, &stats);
        let d = estimate(&decorrelated, &db, &stats);
        assert!(d.cost < c.cost);
    }

    #[test]
    fn selectivity_is_within_bounds() {
        let conds = [
            Condition::True,
            Condition::False,
            eq("a", "b"),
            eq("a", "b").or(is_null("b")),
            eq("a", "b").and(is_null("b")),
            eq("a", "b").not(),
        ];
        for c in conds {
            let s = selectivity_with(&c, &StatisticsCatalog::empty());
            assert!((0.0..=1.0).contains(&s), "{c} -> {s}");
        }
    }

    #[test]
    fn explain_renders_costs() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b")).project(&["a"]);
        let text = estimate(&q, &db, &stats).to_string();
        assert!(text.contains("Scan r"));
        assert!(text.contains("cost≈"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn stats_sharpen_equality_selectivity() {
        let mut db = Database::new();
        // 100 rows, only 2 distinct values of a, half the b column null.
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let b = if i % 2 == 0 { Value::Null(NullId(i as u64 + 1)) } else { Value::Int(7) };
                vec![Value::Int(i % 2), b]
            })
            .collect();
        db.insert_relation("r", rel(&["a", "b"], rows));
        let stats = StatisticsCatalog::analyze(&db);
        // Equality on a low-cardinality column keeps 1/2 of the rows.
        assert!((selectivity_with(&eq("a", "a"), &stats) - 0.5).abs() < 1e-12);
        // IS NULL selectivity equals the measured null fraction.
        assert!((selectivity_with(&is_null("b"), &stats) - 0.5).abs() < 1e-12);
        // Without statistics the old magic numbers hold.
        let empty = StatisticsCatalog::empty();
        assert!((selectivity_with(&eq("a", "a"), &empty) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn join_row_formula_keeps_products_and_scales_equi_joins() {
        let stats = StatisticsCatalog::empty();
        // Products (condition TRUE) keep the full cross-product cardinality.
        assert_eq!(join_rows(10.0, 20.0, &Condition::True, &stats), 200.0);
        // Statistics-free equi-join: l*r*0.1 / max(l, r) = min-side * 0.1.
        assert!((join_rows(100.0, 50.0, &eq("a", "b"), &stats) - 5.0).abs() < 1e-9);
        // Never below one row.
        assert!(join_rows(0.0, 0.0, &eq("a", "b"), &stats) >= 1.0);
    }

    #[test]
    fn join_row_formula_uses_distinct_counts_when_analyzed() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        // r.a has 1000 distinct values: selectivity 1/1000, so
        // 1000*1000*(1/1000)/1000 = 1 row.
        assert!((join_rows(1000.0, 1000.0, &eq("a", "b"), &stats) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn semi_setop_and_aggregate_row_formulas() {
        assert_eq!(semi_rows(10.0), 5.0);
        assert_eq!(semi_rows(0.0), 1.0);
        assert_eq!(setop_rows(3.0, 9.0), 9.0);
        assert_eq!(setop_rows(9.0, 3.0), 9.0);
        assert_eq!(aggregate_rows(100.0, true), 10.0);
        assert_eq!(aggregate_rows(100.0, false), 1.0);
        assert_eq!(aggregate_rows(0.0, true), 1.0);
    }

    #[test]
    fn batch_eligibility_and_filter_discount() {
        use crate::algebra::condition::Operand;
        // Comparisons, null checks and their connectives are batch-eligible…
        assert!(batch_eligible(&eq("a", "b").and(is_null("b")).not()));
        assert!(batch_eligible(&Condition::True));
        // …LIKE/IN atoms and scalar-subquery operands are not (they run
        // row-at-a-time inside the batch).
        let like = Condition::Like {
            expr: Operand::Col("a".into()),
            pattern: "%x%".into(),
            negated: false,
        };
        assert!(!batch_eligible(&like));
        assert!(!batch_eligible(&eq("a", "b").and(like.clone())));
        let inlist = Condition::InList {
            expr: Operand::Col("a".into()),
            list: vec![crate::data::Value::Int(1)],
            negated: false,
        };
        assert!(!batch_eligible(&inlist));
        // The discount follows eligibility and feeds the Filter estimate.
        assert!(filter_cpu_factor(&eq("a", "b")) < filter_cpu_factor(&like));
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let cheap = estimate(&RaExpr::relation("r").select(eq("a", "a")), &db, &stats);
        let dear = estimate(&RaExpr::relation("r").select(like), &db, &stats);
        assert!(cheap.cost < dear.cost);
    }

    #[test]
    fn exchange_cost_is_one_routing_pass_plus_partition_setup() {
        // Linear in rows…
        assert!((exchange_cost(1000.0, 2) - exchange_cost(0.0, 2) - 1000.0).abs() < 1e-9);
        // …monotone in partitions…
        assert!(exchange_cost(1000.0, 8) > exchange_cost(1000.0, 2));
        // …and degenerate partition counts are clamped to one.
        assert_eq!(exchange_cost(10.0, 0), exchange_cost(10.0, 1));
    }

    #[test]
    fn per_operator_estimates_follow_the_row_formulas() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let r = RaExpr::relation("r");
        let s = RaExpr::relation("s");
        // Selection: input rows times measured selectivity (1/distinct).
        let sel = estimate(&r.clone().select(eq("a", "a")), &db, &stats);
        assert!((sel.rows - 1.0).abs() < 1e-9);
        // Semijoin halves the outer side.
        let semi = estimate(&r.clone().semi_join(s.clone(), eq("a", "b")), &db, &stats);
        assert_eq!(semi.rows, 500.0);
        // Union keeps the larger side.
        let uni = estimate(&r.clone().union(s.clone()), &db, &stats);
        assert_eq!(uni.rows, 1000.0);
        // Ungrouped aggregation collapses to one row; grouped keeps 1/10th.
        let agg = estimate(&r.clone().aggregate(&[], vec![]), &db, &stats);
        assert_eq!(agg.rows, 1.0);
        let grouped = estimate(&r.aggregate(&["a"], vec![]), &db, &stats);
        assert_eq!(grouped.rows, 100.0);
    }

    #[test]
    fn estimate_with_uses_catalog_row_counts() {
        let db = db();
        let q = RaExpr::relation("r");
        // An analyzed catalog knows the live row count…
        let with = estimate(&q, &db, &StatisticsCatalog::analyze(&db));
        assert_eq!(with.rows, db.relation("r").unwrap().len() as f64);
        assert_eq!(with.rows, 1000.0);
        // …and a scan the catalog never analyzed estimates no rows.
        assert_eq!(estimate(&q, &db, &StatisticsCatalog::empty()).rows, 0.0);
    }
}
