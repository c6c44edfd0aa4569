//! Cardinality and cost estimation (`EXPLAIN`-style).
//!
//! Two estimation regimes share one implementation:
//!
//! * **statistics-free** ([`estimate`]): base cardinalities come from the
//!   database, predicate selectivities from fixed magic numbers. A join
//!   whose condition yields no hash key (see [`crate::equi`]) is charged
//!   nested-loop cost — the "astronomical" plan costs the paper reports in
//!   Section 7 for conditions that hide their equality; the translation's
//!   own `A = B OR B IS NULL` shape is a null-aware key and is charged like
//!   any hash join.
//! * **statistics-backed** ([`estimate_with`]): base cardinalities, equality
//!   selectivities (`1 / distinct`) and null-check selectivities (the
//!   measured null fraction) come from a [`StatisticsCatalog`], which is what
//!   the physical planner's explain trees use.
//!
//! Costs are *per-row operation counts*, independent of how the engine
//! executes a plan. In particular the engine's compiled runtime fuses
//! `Filter`/`Project`/`Rename`/`Distinct` chains into a single pass, so the
//! per-operator charges of such a chain over-count the constant factor but
//! preserve the ordering between plans.

use crate::equi::{references_schema, split_equi};
use crate::stats::StatisticsCatalog;
use certus_algebra::condition::{Condition, Operand};
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::output_schema;
use certus_algebra::Result;
use certus_data::Database;

/// Estimated output rows and cumulative cost (in abstract "row operations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of output rows.
    pub rows: f64,
    /// Estimated cumulative cost.
    pub cost: f64,
}

/// Estimate the selectivity of a condition (fraction of tuples kept) without
/// statistics, from fixed per-predicate magic numbers.
pub fn selectivity(condition: &Condition) -> f64 {
    selectivity_with(condition, &StatisticsCatalog::empty())
}

/// Estimate the selectivity of a condition, consulting column statistics
/// where available and falling back to the fixed magic numbers otherwise.
pub fn selectivity_with(condition: &Condition, stats: &StatisticsCatalog) -> f64 {
    match condition {
        Condition::True => 1.0,
        Condition::False => 0.0,
        Condition::Cmp { left, op, right } => match op {
            certus_data::compare::CmpOp::Eq => eq_selectivity(left, right, stats),
            certus_data::compare::CmpOp::Neq => 1.0 - eq_selectivity(left, right, stats),
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
) -> Option<&'a crate::stats::ColumnStats> {
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

/// Estimate rows and cost for an expression over the given database, without
/// column statistics (base cardinalities only).
pub fn estimate(expr: &RaExpr, db: &Database) -> Result<CostEstimate> {
    estimate_with(expr, db, &StatisticsCatalog::empty())
}

// Per-operator row-count formulas, shared between the logical estimator
// below and the physical planner's per-node annotations so the two can
// never drift apart.

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
/// law; what matters to the planner is that vectorizable filters charge
/// less than row-at-a-time ones.
const VECTORIZED_FILTER_FACTOR: f64 = 0.25;

/// Whether the engine's vectorized pipelines evaluate this condition with
/// typed column loops throughout. `LIKE` and `IN`-list atoms and
/// scalar-subquery operands run row-at-a-time *inside* the batch (still
/// correct, but not discounted); everything else — comparisons, null
/// checks, the Kleene connectives — is mask arithmetic.
pub fn batch_eligible(condition: &Condition) -> bool {
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
/// the condition is batch-eligible, full price otherwise. Shared by the
/// logical estimator and the physical planner's per-node annotations.
pub fn filter_cpu_factor(condition: &Condition) -> f64 {
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
/// per-partition setup. Rows pass through unchanged. Shared with the
/// physical planner's per-node annotations, like the row formulas above.
pub fn exchange_cost(rows: f64, partitions: usize) -> f64 {
    rows + EXCHANGE_PARTITION_SETUP * partitions.max(1) as f64
}

/// Estimate rows and cost for an expression, with base cardinalities taken
/// from the statistics catalog when analyzed (falling back to the catalog's
/// live row counts) and selectivities from column statistics.
pub fn estimate_with(
    expr: &RaExpr,
    db: &Database,
    stats: &StatisticsCatalog,
) -> Result<CostEstimate> {
    Ok(match expr {
        RaExpr::Relation { name, .. } => {
            let rows = stats
                .row_count(name)
                .unwrap_or_else(|| db.relation(name).map(|r| r.len()).unwrap_or(0))
                as f64;
            CostEstimate { rows, cost: rows }
        }
        RaExpr::Values { rows, .. } => {
            CostEstimate { rows: rows.len() as f64, cost: rows.len() as f64 }
        }
        RaExpr::Select { input, condition } => {
            let c = estimate_with(input, db, stats)?;
            CostEstimate {
                rows: c.rows * selectivity_with(condition, stats),
                cost: c.cost + c.rows * filter_cpu_factor(condition),
            }
        }
        RaExpr::Project { input, .. }
        | RaExpr::Rename { input, .. }
        | RaExpr::Distinct { input } => {
            let c = estimate_with(input, db, stats)?;
            CostEstimate { rows: c.rows, cost: c.cost + c.rows }
        }
        RaExpr::Product { left, right } => {
            let l = estimate_with(left, db, stats)?;
            let r = estimate_with(right, db, stats)?;
            CostEstimate { rows: l.rows * r.rows, cost: l.cost + r.cost + l.rows * r.rows }
        }
        RaExpr::Join { left, right, condition } => {
            let l = estimate_with(left, db, stats)?;
            let r = estimate_with(right, db, stats)?;
            let hashable = join_is_hashable(left, right, condition, db);
            let out_rows = join_rows(l.rows, r.rows, condition, stats);
            let op_cost = if hashable { l.rows + r.rows } else { l.rows * r.rows };
            CostEstimate { rows: out_rows, cost: l.cost + r.cost + op_cost }
        }
        RaExpr::SemiJoin { left, right, condition }
        | RaExpr::AntiJoin { left, right, condition } => {
            let l = estimate_with(left, db, stats)?;
            let r = estimate_with(right, db, stats)?;
            let left_schema = output_schema(left, db)?;
            let decorrelated = !references_schema(condition, &left_schema);
            let hashable = join_is_hashable(left, right, condition, db);
            let op_cost = if decorrelated {
                r.rows
            } else if hashable {
                l.rows + r.rows
            } else {
                l.rows * r.rows
            };
            CostEstimate { rows: semi_rows(l.rows), cost: l.cost + r.cost + op_cost }
        }
        RaExpr::Union { left, right }
        | RaExpr::Intersect { left, right }
        | RaExpr::Difference { left, right } => {
            let l = estimate_with(left, db, stats)?;
            let r = estimate_with(right, db, stats)?;
            CostEstimate {
                rows: setop_rows(l.rows, r.rows),
                cost: l.cost + r.cost + l.rows + r.rows,
            }
        }
        RaExpr::UnifySemiJoin { left, right }
        | RaExpr::UnifyAntiSemiJoin { left, right }
        | RaExpr::Division { left, right } => {
            let l = estimate_with(left, db, stats)?;
            let r = estimate_with(right, db, stats)?;
            CostEstimate { rows: l.rows, cost: l.cost + r.cost + l.rows * r.rows }
        }
        RaExpr::Aggregate { input, group_by, .. } => {
            let c = estimate_with(input, db, stats)?;
            let rows = aggregate_rows(c.rows, !group_by.is_empty());
            CostEstimate { rows, cost: c.cost + c.rows }
        }
    })
}

fn join_is_hashable(left: &RaExpr, right: &RaExpr, condition: &Condition, db: &Database) -> bool {
    match (output_schema(left, db), output_schema(right, db)) {
        (Ok(l), Ok(r)) => split_equi(condition, &l, &r).has_keys(),
        _ => false,
    }
}

/// Render an `EXPLAIN`-style tree with per-node row and cost estimates.
pub fn explain(expr: &RaExpr, db: &Database) -> Result<String> {
    let mut out = String::new();
    render(expr, db, 0, &mut out)?;
    Ok(out)
}

fn render(expr: &RaExpr, db: &Database, depth: usize, out: &mut String) -> Result<()> {
    let est = estimate(expr, db)?;
    let label = match expr {
        RaExpr::Relation { name, .. } => format!("Scan {name}"),
        RaExpr::Join { condition, .. } => format!("Join [{condition}]"),
        RaExpr::AntiJoin { condition, .. } => format!("AntiJoin [{condition}]"),
        RaExpr::SemiJoin { condition, .. } => format!("SemiJoin [{condition}]"),
        RaExpr::Select { condition, .. } => format!("Select [{condition}]"),
        other => {
            let s = other.to_string();
            s.chars().take(40).collect::<String>()
        }
    };
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{label}  (rows≈{:.0}, cost≈{:.0})\n", est.rows, est.cost));
    for c in expr.children() {
        render(c, db, depth + 1, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null};
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], (0..1000).map(|i| vec![Value::Int(i)]).collect()));
        db.insert_relation("s", rel(&["b"], (0..1000).map(|i| vec![Value::Int(i)]).collect()));
        db
    }

    #[test]
    fn a_keyless_disjunction_inflates_join_cost_and_a_null_aware_key_does_not() {
        let db = db();
        let join = |c: Condition| {
            estimate(&RaExpr::relation("r").join(RaExpr::relation("s"), c), &db).unwrap()
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
        Condition::cmp_const(col, certus_data::compare::CmpOp::Gt, Value::Int(v))
    }

    #[test]
    fn decorrelated_antijoin_is_cheap() {
        let db = db();
        let correlated = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let decorrelated = RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("b"));
        let c = estimate(&correlated, &db).unwrap();
        let d = estimate(&decorrelated, &db).unwrap();
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
            let s = selectivity(&c);
            assert!((0.0..=1.0).contains(&s), "{c} -> {s}");
        }
    }

    #[test]
    fn explain_renders_costs() {
        let db = db();
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b")).project(&["a"]);
        let text = explain(&q, &db).unwrap();
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
        // The statistics-free estimate keeps the old magic numbers.
        assert!((selectivity(&eq("a", "a")) - 0.1).abs() < 1e-12);
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
        use certus_algebra::condition::Operand;
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
            list: vec![certus_data::Value::Int(1)],
            negated: false,
        };
        assert!(!batch_eligible(&inlist));
        // The discount follows eligibility and feeds the Select estimate.
        assert!(filter_cpu_factor(&eq("a", "b")) < filter_cpu_factor(&like));
        let db = db();
        let cheap = estimate(&RaExpr::relation("r").select(eq("a", "a")), &db).unwrap();
        let dear = estimate(&RaExpr::relation("r").select(like), &db).unwrap();
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
        let sel = estimate_with(&r.clone().select(eq("a", "a")), &db, &stats).unwrap();
        assert!((sel.rows - 1.0).abs() < 1e-9);
        // Semijoin halves the outer side.
        let semi =
            estimate_with(&r.clone().semi_join(s.clone(), eq("a", "b")), &db, &stats).unwrap();
        assert_eq!(semi.rows, 500.0);
        // Union keeps the larger side.
        let uni = estimate_with(&r.clone().union(s.clone()), &db, &stats).unwrap();
        assert_eq!(uni.rows, 1000.0);
        // Ungrouped aggregation collapses to one row; grouped keeps 1/10th.
        let agg = estimate_with(&r.clone().aggregate(&[], vec![]), &db, &stats).unwrap();
        assert_eq!(agg.rows, 1.0);
        let grouped = estimate_with(&r.aggregate(&["a"], vec![]), &db, &stats).unwrap();
        assert_eq!(grouped.rows, 100.0);
    }

    #[test]
    fn estimate_with_uses_catalog_row_counts() {
        let db = db();
        let stats = StatisticsCatalog::analyze(&db);
        let q = RaExpr::relation("r");
        let with = estimate_with(&q, &db, &stats).unwrap();
        let without = estimate(&q, &db).unwrap();
        assert_eq!(with.rows, without.rows);
        assert_eq!(with.rows, 1000.0);
    }
}
