//! The experiment implementations. Each function returns structured rows (so
//! integration tests can assert on shapes) and has a matching `print_*`
//! helper used by the `experiments` binary.

use crate::timing::{fmt_ratio, time_mean, time_min};
use certus_algebra::builder::eq_const;
use certus_algebra::expr::RaExpr;
use certus_algebra::NullSemantics;
use certus_core::{translate_plus, CertainRewriter, ConditionDialect};
use certus_data::builder::rel;
use certus_data::{Database, Value};
use certus_engine::{estimate, Engine, EngineConfig};
use certus_plan::Planner;
use certus_tpch::fp_detect::count_false_positives;
use certus_tpch::{query_by_number, Workload};

/// The serial SQL-semantics engine the single-threaded experiments run on.
fn serial_engine(db: &Database) -> Engine<'_> {
    Engine::configured(db, NullSemantics::Sql, EngineConfig::serial())
}

/// One row of the Figure 1 experiment: average false-positive percentage per
/// query at a given null rate.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Null rate (fraction).
    pub null_rate: f64,
    /// Average FP percentage (0–100) for Q1–Q4.
    pub fp_pct: [f64; 4],
}

/// The null-rate sweep of the paper: 0.5%–6% in steps of 0.5 and 6%–10% in
/// steps of 1.
pub fn paper_null_rates() -> Vec<f64> {
    let mut rates: Vec<f64> = (1..=12).map(|i| i as f64 * 0.005).collect();
    rates.extend((7..=10).map(|i| i as f64 * 0.01));
    rates
}

/// Figure 1: lower bound on the percentage of false positives produced by
/// queries Q1–Q4 as the null rate grows (Section 4).
pub fn figure1(
    scale_factor: f64,
    instances_per_rate: u64,
    runs_per_instance: u64,
    null_rates: &[f64],
) -> Vec<Fig1Row> {
    let mut rows = Vec::new();
    for &rate in null_rates {
        let mut sums = [0.0f64; 4];
        let mut counts = [0usize; 4];
        for inst in 0..instances_per_rate {
            let w = Workload::new(scale_factor, rate, 100 + inst);
            let db = w.incomplete_instance();
            let engine = serial_engine(&db);
            for run in 0..runs_per_instance {
                let params = w.params(&db, run);
                for q in 1..=4usize {
                    let expr = query_by_number(q, &params).expect("query exists");
                    let answers = engine.execute(&expr).expect("query runs");
                    if answers.is_empty() {
                        continue;
                    }
                    let fp = count_false_positives(q, &db, &params, &answers);
                    sums[q - 1] += 100.0 * fp as f64 / answers.len() as f64;
                    counts[q - 1] += 1;
                }
            }
        }
        let fp_pct =
            [0, 1, 2, 3].map(|i| if counts[i] == 0 { 0.0 } else { sums[i] / counts[i] as f64 });
        rows.push(Fig1Row { null_rate: rate, fp_pct });
    }
    rows
}

/// Print Figure 1 rows as the table behind the paper's plot.
pub fn print_figure1(rows: &[Fig1Row]) {
    println!("== Figure 1: average % of false positives per query ==");
    println!("{:>9} {:>8} {:>8} {:>8} {:>8}", "null rate", "Q1", "Q2", "Q3", "Q4");
    for r in rows {
        println!(
            "{:>8.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            r.null_rate * 100.0,
            r.fp_pct[0],
            r.fp_pct[1],
            r.fp_pct[2],
            r.fp_pct[3]
        );
    }
}

/// One row of the Figure 4 / Table 1 experiments: relative running time
/// `t(Q⁺)/t(Q)` per query.
#[derive(Debug, Clone)]
pub struct RelPerfRow {
    /// Null rate (fraction).
    pub null_rate: f64,
    /// Scale factor of the instance.
    pub scale_factor: f64,
    /// Mean ratio `t(Q⁺)/t(Q)` for Q1–Q4.
    pub ratio: [f64; 4],
}

/// Measure the relative performance of the translated queries (Figure 4).
pub fn figure4(
    scale_factor: f64,
    null_rates: &[f64],
    instances: u64,
    reps: usize,
) -> Vec<RelPerfRow> {
    let rewriter = CertainRewriter::new();
    let mut rows = Vec::new();
    for &rate in null_rates {
        let mut sums = [0.0f64; 4];
        let mut counts = [0usize; 4];
        for inst in 0..instances {
            let w = Workload::new(scale_factor, rate, 500 + inst);
            let db = w.incomplete_instance();
            let engine = serial_engine(&db);
            let params = w.params(&db, inst);
            for q in 1..=4usize {
                let expr = query_by_number(q, &params).expect("query exists");
                let plus = rewriter.rewrite_plus(&expr, &db).expect("translates");
                let t_orig = time_mean(reps, || engine.execute(&expr).expect("runs"));
                let t_plus = time_mean(reps, || engine.execute(&plus).expect("runs"));
                if t_orig > 0.0 {
                    sums[q - 1] += t_plus / t_orig;
                    counts[q - 1] += 1;
                }
            }
        }
        let ratio =
            [0, 1, 2, 3].map(|i| if counts[i] == 0 { 1.0 } else { sums[i] / counts[i] as f64 });
        rows.push(RelPerfRow { null_rate: rate, scale_factor, ratio });
    }
    rows
}

/// Print Figure 4 rows.
pub fn print_figure4(rows: &[RelPerfRow]) {
    println!("== Figure 4: average relative performance t(Q+)/t(Q) ==");
    println!("{:>9} {:>10} {:>10} {:>10} {:>10}", "null rate", "Q1+", "Q2+", "Q3+", "Q4+");
    for r in rows {
        println!(
            "{:>8.0}% {:>10} {:>10} {:>10} {:>10}",
            r.null_rate * 100.0,
            fmt_ratio(r.ratio[0]),
            fmt_ratio(r.ratio[1]),
            fmt_ratio(r.ratio[2]),
            fmt_ratio(r.ratio[3])
        );
    }
}

/// One row of Table 1: the range (min–max over null rates) of the relative
/// performance at a given scale factor.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Scale factor of the instance (multiples of the base scale).
    pub scale_factor: f64,
    /// `(min, max)` of the relative performance for Q1–Q4.
    pub ranges: [(f64, f64); 4],
}

/// Table 1: ranges of relative performance as the instance grows.
pub fn table1(scale_factors: &[f64], null_rates: &[f64], reps: usize) -> Vec<Table1Row> {
    let mut out = Vec::new();
    for &sf in scale_factors {
        let rows = figure4(sf, null_rates, 1, reps);
        let mut ranges = [(f64::INFINITY, f64::NEG_INFINITY); 4];
        for r in &rows {
            for (range, ratio) in ranges.iter_mut().zip(&r.ratio) {
                range.0 = range.0.min(*ratio);
                range.1 = range.1.max(*ratio);
            }
        }
        out.push(Table1Row { scale_factor: sf, ranges });
    }
    out
}

/// Print Table 1 rows.
pub fn print_table1(rows: &[Table1Row]) {
    println!("== Table 1: ranges of relative performance (Q+ vs Q) across instance sizes ==");
    println!("{:>8} {:>19} {:>19} {:>19} {:>19}", "scale", "Q1", "Q2", "Q3", "Q4");
    for r in rows {
        let cell =
            |i: usize| format!("{} – {}", fmt_ratio(r.ranges[i].0), fmt_ratio(r.ranges[i].1));
        println!(
            "{:>8} {:>19} {:>19} {:>19} {:>19}",
            format!("{}x", r.scale_factor / rows[0].scale_factor),
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }
}

/// One row of the Section 5 experiment: evaluation time of the Figure 2
/// translation `Qᵗ` versus the improved `Q⁺` on small instances.
#[derive(Debug, Clone)]
pub struct Sec5Row {
    /// Number of tuples per base relation.
    pub tuples_per_relation: usize,
    /// Evaluation time of the improved translation `Q⁺` (seconds).
    pub t_plus: f64,
    /// Evaluation time of the Figure 2 translation `Qᵗ` (seconds).
    pub t_fig2: f64,
}

fn sec5_database(n: usize) -> Database {
    let mut db = Database::new();
    let mk = |offset: i64| {
        (0..n)
            .map(|i| {
                let base = offset + i as i64;
                if i % 17 == 0 {
                    vec![Value::Int(base), Value::fresh_null()]
                } else {
                    vec![Value::Int(base), Value::Int(base * 3 % 50)]
                }
            })
            .collect::<Vec<_>>()
    };
    db.insert_relation("r", rel(&["a", "b"], mk(0)));
    db.insert_relation("s", rel(&["a", "b"], mk(7)));
    db.insert_relation("t", rel(&["a", "b"], mk(13)));
    db
}

/// Section 5: the original translation of \[22\] is infeasible even on tiny
/// instances, while `Q⁺` scales. The test query is the paper's Section 6
/// example `Q = R − (π_α(T) − σ_θ(S))`.
pub fn section5(sizes: &[usize]) -> Vec<Sec5Row> {
    let mut out = Vec::new();
    for &n in sizes {
        let db = sec5_database(n);
        let q = RaExpr::relation("r").difference(
            RaExpr::relation("t")
                .project(&["a", "b"])
                .difference(RaExpr::relation("s").select(eq_const("b", 3i64))),
        );
        let plus = translate_plus(&q, ConditionDialect::Sql).expect("translates");
        let fig2 = certus_core::naive_translation::translate_t(&q, &db, ConditionDialect::Sql)
            .expect("translates");
        let engine = serial_engine(&db);
        let t_plus = time_mean(1, || engine.execute(&plus).expect("runs"));
        let t_fig2 = time_mean(1, || engine.execute(&fig2).expect("runs"));
        out.push(Sec5Row { tuples_per_relation: n, t_plus, t_fig2 });
    }
    out
}

/// Print Section 5 rows.
pub fn print_section5(rows: &[Sec5Row]) {
    println!("== Section 5: Figure-2 translation (Qt) vs improved translation (Q+) ==");
    println!("{:>10} {:>12} {:>12} {:>10}", "tuples/rel", "t(Q+) s", "t(Qt) s", "Qt / Q+");
    for r in rows {
        println!(
            "{:>10} {:>12.5} {:>12.5} {:>10.1}",
            r.tuples_per_relation,
            r.t_plus,
            r.t_fig2,
            r.t_fig2 / r.t_plus.max(1e-9)
        );
    }
}

/// One row of the precision/recall experiment.
#[derive(Debug, Clone)]
pub struct PrecisionRecallRow {
    /// Query number (1–4).
    pub query: usize,
    /// Number of answers returned by plain SQL evaluation.
    pub sql_answers: usize,
    /// SQL answers flagged as false positives by the detectors of Section 4.
    pub sql_false_positives: usize,
    /// Number of answers returned by `Q⁺`.
    pub qplus_answers: usize,
    /// `Q⁺` answers flagged as false positives (must be 0 — precision 100%).
    pub qplus_false_positives: usize,
    /// Fraction of the non-flagged SQL answers also returned by `Q⁺`
    /// (the recall measure of Section 7; 1.0 in all paper experiments).
    pub recall_vs_sql: f64,
}

/// The precision/recall experiment of Section 7 on DataFiller-scale instances.
pub fn precision_recall(scale_factor: f64, null_rate: f64, seed: u64) -> Vec<PrecisionRecallRow> {
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let engine = serial_engine(&db);
    let rewriter = CertainRewriter::new();
    let params = w.params(&db, 0);
    let mut out = Vec::new();
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).expect("query exists");
        let sql = engine.execute(&expr).expect("runs");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translates");
        let qplus = engine.execute(&plus).expect("runs");
        let sql_fp = count_false_positives(q, &db, &params, &sql);
        let qplus_fp = count_false_positives(q, &db, &params, &qplus);
        // Recall: of the SQL answers not flagged as false positives, how many
        // does Q+ also return?
        let flagged: Vec<bool> = sql
            .iter()
            .map(|t| match q {
                1 => certus_tpch::fp_detect::detect_q1(&db, t),
                2 => certus_tpch::fp_detect::detect_q2(&db),
                3 => certus_tpch::fp_detect::detect_q3(&db, t),
                _ => certus_tpch::fp_detect::detect_q4(&db, &params, t),
            })
            .collect();
        let mut kept = 0usize;
        let mut recovered = 0usize;
        for (t, f) in sql.iter().zip(&flagged) {
            if !f {
                kept += 1;
                if qplus.contains(t) {
                    recovered += 1;
                }
            }
        }
        let recall = if kept == 0 { 1.0 } else { recovered as f64 / kept as f64 };
        out.push(PrecisionRecallRow {
            query: q,
            sql_answers: sql.len(),
            sql_false_positives: sql_fp,
            qplus_answers: qplus.len(),
            qplus_false_positives: qplus_fp,
            recall_vs_sql: recall,
        });
    }
    out
}

/// Print precision/recall rows.
pub fn print_precision_recall(rows: &[PrecisionRecallRow]) {
    println!("== Precision / recall of Q+ vs SQL evaluation ==");
    println!(
        "{:>5} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "query", "SQL answers", "SQL FPs", "Q+ answers", "Q+ FPs", "recall"
    );
    for r in rows {
        println!(
            "{:>5} {:>12} {:>10} {:>12} {:>10} {:>7.0}%",
            format!("Q{}", r.query),
            r.sql_answers,
            r.sql_false_positives,
            r.qplus_answers,
            r.qplus_false_positives,
            r.recall_vs_sql * 100.0
        );
    }
}

/// Result of the OR-splitting ablation on translated Q4.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Estimated plan cost of the original query at the benchmark scale.
    pub original_estimated_cost: f64,
    /// Estimated plan cost of the unsplit translation at the benchmark scale.
    pub unsplit_estimated_cost: f64,
    /// Estimated plan cost of the split translation at the benchmark scale.
    pub split_estimated_cost: f64,
    /// Measured time of the unsplit translation on a tiny instance (seconds).
    pub unsplit_time_tiny: f64,
    /// Measured time of the split translation on the same tiny instance.
    pub split_time_tiny: f64,
    /// Measured time of the original Q4 on the same tiny instance.
    pub original_time_tiny: f64,
}

/// The Section 7 "discussion" ablation on Q4: the direct translation against
/// the pipeline's output, as estimated cost and as measured time. The paper's
/// optimizer is confused by the direct translation (nested loops,
/// astronomical estimated cost) and needs the OR-splitting and view-style
/// union rewrites to hash again; this engine hashes the translation's
/// `A = B OR A IS NULL` conditions directly, so the two arms should be close.
pub fn or_split_ablation(bench_scale: f64, tiny_scale: f64, null_rate: f64) -> AblationResult {
    // Estimated costs at benchmark scale.
    let w = Workload::new(bench_scale, null_rate, 901);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q4 = certus_tpch::q4(&params);
    let unsplit = CertainRewriter::unoptimized().rewrite_plus(&q4, &db).expect("translates");
    let split = CertainRewriter::new().rewrite_plus(&q4, &db).expect("translates");
    let original_cost = estimate(&q4, &db).expect("estimates").cost;
    let unsplit_cost = estimate(&unsplit, &db).expect("estimates").cost;
    let split_cost = estimate(&split, &db).expect("estimates").cost;

    // Measured times on a tiny instance.
    let wt = Workload::new(tiny_scale, null_rate, 902);
    let tiny = wt.incomplete_instance();
    let tiny_params = wt.params(&tiny, 0);
    let q4_tiny = certus_tpch::q4(&tiny_params);
    let unsplit_tiny =
        CertainRewriter::unoptimized().rewrite_plus(&q4_tiny, &tiny).expect("translates");
    let split_tiny = CertainRewriter::new().rewrite_plus(&q4_tiny, &tiny).expect("translates");
    let engine = serial_engine(&tiny);
    let original_time = time_mean(1, || engine.execute(&q4_tiny).expect("runs"));
    let unsplit_time = time_mean(1, || engine.execute(&unsplit_tiny).expect("runs"));
    let split_time = time_mean(1, || engine.execute(&split_tiny).expect("runs"));
    AblationResult {
        original_estimated_cost: original_cost,
        unsplit_estimated_cost: unsplit_cost,
        split_estimated_cost: split_cost,
        unsplit_time_tiny: unsplit_time,
        split_time_tiny: split_time,
        original_time_tiny: original_time,
    }
}

/// Print the ablation result.
pub fn print_ablation(r: &AblationResult) {
    println!("== OR-splitting ablation on translated Q4 ==");
    println!(
        "estimated plan cost (benchmark scale): original {:>12.0}   unsplit Q4+ {:>14.0} ({:.0}x)   split Q4+ {:>14.0}",
        r.original_estimated_cost,
        r.unsplit_estimated_cost,
        r.unsplit_estimated_cost / r.original_estimated_cost.max(1.0),
        r.split_estimated_cost,
    );
    println!(
        "measured time on tiny instance: original {:.4}s   unsplit Q4+ {:.4}s   split Q4+ {:.4}s",
        r.original_time_tiny, r.unsplit_time_tiny, r.split_time_tiny
    );
}

/// One row of the planner-on/off experiment: translated-query latency with
/// the rewrite-pass pipeline disabled vs. enabled.
#[derive(Debug, Clone)]
pub struct PlannerOnOffRow {
    /// Query number (1–4).
    pub query: usize,
    /// Mean latency of the raw translation `Q⁺` (pipeline off), seconds.
    pub t_off: f64,
    /// Mean latency of the pipeline-rewritten `Q⁺` (pipeline on), seconds.
    pub t_on: f64,
    /// Number of answers (identical in both arms, asserted).
    pub answers: usize,
}

/// The planner ablation: translate each query without the Section 7
/// optimizations, then run the raw translation vs. the pass-pipeline output
/// through the engine. The OR'd conditions of the raw translations are
/// null-aware hash keys, so neither arm runs a nested loop; what the
/// pipeline still buys is pruning, pushdown and the decorrelated
/// `NOT EXISTS` chain.
pub fn planner_on_off(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
) -> Vec<PlannerOnOffRow> {
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let engine = serial_engine(&db);
    let raw_rewriter = CertainRewriter::unoptimized();
    let planner = Planner::new();
    let mut out = Vec::new();
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).expect("query exists");
        let raw = raw_rewriter.rewrite_plus(&expr, &db).expect("translates");
        let planned = planner.optimize(&raw, &db).expect("pipeline runs");
        let off = engine.execute(&raw).expect("runs").sorted().distinct();
        let on = engine.execute(&planned).expect("runs").sorted().distinct();
        assert_eq!(off.tuples(), on.tuples(), "planner changed Q{q}+ results");
        let t_off = time_mean(reps, || engine.execute(&raw).expect("runs"));
        let t_on = time_mean(reps, || engine.execute(&planned).expect("runs"));
        out.push(PlannerOnOffRow { query: q, t_off, t_on, answers: on.len() });
    }
    out
}

/// Print planner-on/off rows.
pub fn print_planner_on_off(rows: &[PlannerOnOffRow]) {
    println!("== Planner on/off: latency of translated queries (raw Q+ vs pass pipeline) ==");
    println!(
        "{:>5} {:>14} {:>14} {:>10} {:>8}",
        "query", "t(off) s", "t(on) s", "speedup", "answers"
    );
    for r in rows {
        println!(
            "{:>5} {:>14.5} {:>14.5} {:>9}x {:>8}",
            format!("Q{}+", r.query),
            r.t_off,
            r.t_on,
            fmt_ratio(r.t_off / r.t_on.max(1e-9)),
            r.answers
        );
    }
}

/// One row of the parallel-scaling experiment: wall-clock latency of the
/// translated queries at a given worker-thread count.
#[derive(Debug, Clone)]
pub struct ParallelScalingRow {
    /// Worker threads the engine was configured with.
    pub threads: usize,
    /// Mean latency of the optimized Q3+ (seconds).
    pub t_q3: f64,
    /// Mean latency of the optimized Q4+ (seconds).
    pub t_q4: f64,
    /// Answer counts (identical at every thread count, asserted).
    pub answers: [usize; 2],
}

/// The parallel-scaling experiment: run the pipeline-optimized translations
/// Q3+ and Q4+ (the hash-anti-join- and split-union-heavy workload) through
/// engines configured with each of the given thread counts, asserting that
/// every configuration returns the serial result before timing it. The first
/// entry of `thread_counts` is the baseline of the printed speedups.
pub fn parallel_scaling(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
    thread_counts: &[usize],
) -> Vec<ParallelScalingRow> {
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let rewriter = CertainRewriter::new();
    let planner = Planner::new();
    // The fully pipeline-optimized translations: the pass pipeline turns the
    // OR'd conditions back into hashable equi-joins, which is exactly the
    // shape the exchange operators then parallelise.
    let optimized = |q: usize| {
        let plus = rewriter
            .rewrite_plus(&query_by_number(q, &params).expect("query exists"), &db)
            .expect("translates");
        planner.optimize(&plus, &db).expect("pipeline runs")
    };
    let q3p = optimized(3);
    let q4p = optimized(4);
    let serial = serial_engine(&db);
    let expected3 = serial.execute(&q3p).expect("runs").sorted().distinct();
    let expected4 = serial.execute(&q4p).expect("runs").sorted().distinct();
    let mut out = Vec::new();
    for &threads in thread_counts {
        let engine =
            Engine::configured(&db, NullSemantics::Sql, EngineConfig::with_threads(threads));
        let got3 = engine.execute(&q3p).expect("runs").sorted().distinct();
        let got4 = engine.execute(&q4p).expect("runs").sorted().distinct();
        assert_eq!(got3.tuples(), expected3.tuples(), "Q3+ differs at {threads} threads");
        assert_eq!(got4.tuples(), expected4.tuples(), "Q4+ differs at {threads} threads");
        let t_q3 = time_mean(reps, || engine.execute(&q3p).expect("runs"));
        let t_q4 = time_mean(reps, || engine.execute(&q4p).expect("runs"));
        out.push(ParallelScalingRow { threads, t_q3, t_q4, answers: [got3.len(), got4.len()] });
    }
    out
}

/// Print parallel-scaling rows with speedups relative to the first row.
pub fn print_parallel_scaling(rows: &[ParallelScalingRow]) {
    println!("== Parallel scaling: optimized Q3+/Q4+ latency vs worker threads ==");
    println!(
        "{:>8} {:>12} {:>9} {:>12} {:>9}",
        "threads", "t(Q3+) s", "speedup", "t(Q4+) s", "speedup"
    );
    let Some(base) = rows.first() else { return };
    for r in rows {
        println!(
            "{:>8} {:>12.5} {:>8}x {:>12.5} {:>8}x",
            r.threads,
            r.t_q3,
            fmt_ratio(base.t_q3 / r.t_q3.max(1e-9)),
            r.t_q4,
            fmt_ratio(base.t_q4 / r.t_q4.max(1e-9))
        );
    }
    println!("(results identical at every thread count, asserted before timing)");
}

/// One row of the concurrency-scaling experiment: `clients` sessions
/// executing the prepared Q3+ concurrently on one shared worker pool.
#[derive(Debug, Clone)]
pub struct ConcurrencyScalingRow {
    /// Worker threads each session's engine was configured with (also the
    /// shared pool's width for this row).
    pub threads: usize,
    /// Concurrent client sessions sharing the pool.
    pub clients: usize,
    /// Wall-clock seconds for all clients to finish `reps` executions each.
    pub wall_s: f64,
    /// Aggregate throughput: total executions / wall seconds.
    pub queries_per_sec: f64,
    /// Answer count (identical for every client and configuration, asserted).
    pub answers: usize,
}

/// The concurrency-scaling experiment: sweep worker threads × concurrent
/// client sessions, all sessions of a row sharing one worker pool of width
/// `threads`. Every client asserts the serial answers before the timed
/// rounds, so the sweep doubles as a stress test of multi-query submission
/// to the shared deque.
pub fn concurrency_scaling(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
    thread_counts: &[usize],
    client_counts: &[usize],
) -> Vec<ConcurrencyScalingRow> {
    use certus::exec::Pool;
    use certus::{Certainty, Session};
    use std::sync::Arc;

    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = query_by_number(3, &params).expect("query exists");
    let serial = Session::builder(db.clone()).config(EngineConfig::serial()).build();
    let expected = serial
        .execute(&q3, Certainty::CertainPlus)
        .expect("serial runs")
        .relation()
        .sorted()
        .distinct();
    let mut out = Vec::new();
    for &threads in thread_counts {
        let pool = Arc::new(Pool::new(threads));
        for &clients in client_counts {
            let sessions: Vec<Session> = (0..clients)
                .map(|_| {
                    Session::builder(db.clone())
                        .config(EngineConfig::with_threads(threads))
                        .worker_pool(pool.clone())
                        .build()
                })
                .collect();
            let prepared: Vec<_> = sessions
                .iter()
                .map(|s| s.prepare(&q3, Certainty::CertainPlus).expect("prepares"))
                .collect();
            // Correctness gate before timing: every client sees the serial
            // answers through the shared pool.
            for (s, p) in sessions.iter().zip(&prepared) {
                let got = s.execute_prepared(p).expect("runs").relation().sorted().distinct();
                assert_eq!(
                    got.tuples(),
                    expected.tuples(),
                    "Q3+ differs at {threads} threads × {clients} clients"
                );
            }
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for (s, p) in sessions.iter().zip(&prepared) {
                    scope.spawn(move || {
                        for _ in 0..reps {
                            s.execute_prepared(p).expect("runs");
                        }
                    });
                }
            });
            let wall_s = start.elapsed().as_secs_f64();
            out.push(ConcurrencyScalingRow {
                threads,
                clients,
                wall_s,
                queries_per_sec: (clients * reps) as f64 / wall_s.max(1e-9),
                answers: expected.len(),
            });
            assert!(
                pool.peak_busy_workers() <= pool.width(),
                "pool exceeded its width at {threads} threads × {clients} clients"
            );
        }
    }
    out
}

/// Print concurrency-scaling rows with throughput relative to the
/// single-client row of the same thread count.
pub fn print_concurrency_scaling(rows: &[ConcurrencyScalingRow]) {
    println!("== Concurrency scaling: prepared Q3+ throughput, shared worker pool ==");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>9}",
        "threads", "clients", "wall s", "queries/s", "vs 1cli"
    );
    for r in rows {
        let base = rows
            .iter()
            .find(|b| b.threads == r.threads && b.clients == 1)
            .map(|b| b.queries_per_sec)
            .unwrap_or(r.queries_per_sec);
        println!(
            "{:>8} {:>8} {:>10.4} {:>12.1} {:>8}x",
            r.threads,
            r.clients,
            r.wall_s,
            r.queries_per_sec,
            fmt_ratio(r.queries_per_sec / base.max(1e-9))
        );
    }
    println!("(every client asserted against the serial answers before timing)");
}

/// Write the parallel- and concurrency-scaling rows as machine-readable
/// JSON (`BENCH_parallel.json`, alongside the `BENCH_engine.json` pipeline
/// baseline). Plain `format!`-built JSON — the workspace is offline, no
/// serde.
pub fn write_parallel_bench_json(
    path: &std::path::Path,
    scaling: &[ParallelScalingRow],
    concurrency: &[ConcurrencyScalingRow],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"parallel_scaling\",\n");
    s.push_str(
        "  \"units\": {\"wall\": \"seconds (mean over reps)\", \"throughput\": \"queries/sec\"},\n",
    );
    s.push_str("  \"threads\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"q3_wall_s\": {:.6}, \"q4_wall_s\": {:.6}, \
             \"answers\": [{}, {}]}}{}\n",
            r.threads,
            r.t_q3,
            r.t_q4,
            r.answers[0],
            r.answers[1],
            if i + 1 < scaling.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"concurrency\": [\n");
    for (i, r) in concurrency.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"clients\": {}, \"wall_s\": {:.6}, \
             \"queries_per_sec\": {:.1}, \"answers\": {}}}{}\n",
            r.threads,
            r.clients,
            r.wall_s,
            r.queries_per_sec,
            r.answers,
            if i + 1 < concurrency.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// One row of the prepared-execution experiment: per-call planning vs.
/// re-executing a [`certus::PreparedQuery`].
#[derive(Debug, Clone)]
pub struct PreparedRow {
    /// Query number (translated, so `Q⁺3` / `Q⁺4`).
    pub query: usize,
    /// Mean latency when every call re-runs translation + rewrite passes +
    /// physical planning (the pre-`Session` workflow), seconds.
    pub t_per_call: f64,
    /// Mean latency of `Session::execute_prepared` on a prepared query
    /// (zero planning work per call), seconds.
    pub t_prepared: f64,
    /// Number of answers (identical in both arms, asserted).
    pub answers: usize,
}

/// The prepared-execution experiment: how much of a repeated workload query's
/// latency is planning? The per-call arm rewrites and plans `Q⁺` on every
/// execution (exactly what four disconnected entry points forced callers
/// into); the prepared arm plans once through [`certus::Session::prepare`]
/// and then only executes. Also returns the session's plan-cache counters:
/// the repeated `Session::execute` calls of the warm-up loop hit the cache,
/// so the printed hit rate shows the cache working.
pub fn prepared_execution(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
) -> (Vec<PreparedRow>, certus::plan::CacheStats) {
    use certus::{Certainty, Session};
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let rewriter = CertainRewriter::new();
    let mut rows = Vec::new();
    for q in [3usize, 4] {
        let expr = query_by_number(q, &params).expect("query exists");
        // Per-call arm: rewrite + plan + execute, every time.
        let t_per_call = time_mean(reps, || {
            let plus = rewriter.rewrite_plus(&expr, session.database()).expect("translates");
            serial_engine(session.database()).execute(&plus).expect("runs")
        });
        // Prepared arm: plan once, execute many times.
        let prepared = session.prepare(&expr, Certainty::CertainPlus).expect("prepares");
        let t_prepared = time_mean(reps, || session.execute_prepared(&prepared).expect("runs"));
        // Both arms must agree before their timings mean anything.
        let direct = {
            let plus = rewriter.rewrite_plus(&expr, session.database()).expect("translates");
            serial_engine(session.database()).execute(&plus).expect("runs")
        };
        let via_session = session.execute_prepared(&prepared).expect("runs");
        assert_eq!(
            via_session.relation().sorted().tuples(),
            direct.sorted().tuples(),
            "prepared Q{q}+ differs from per-call Q{q}+"
        );
        // Warm-path calls that go through the cache (each is a hit now).
        for _ in 0..reps {
            session.execute(&expr, Certainty::CertainPlus).expect("runs");
        }
        rows.push(PreparedRow { query: q, t_per_call, t_prepared, answers: via_session.len() });
    }
    (rows, session.cache_stats())
}

/// Print prepared-execution rows and the session's cache counters.
pub fn print_prepared(rows: &[PreparedRow], cache: &certus::plan::CacheStats) {
    println!("== Prepared re-execution vs per-call planning (Q3+/Q4+) ==");
    println!(
        "{:>5} {:>15} {:>14} {:>14} {:>8}",
        "query", "t(per-call) s", "t(prepared) s", "plan overhead", "answers"
    );
    for r in rows {
        println!(
            "{:>5} {:>15.5} {:>14.5} {:>13}% {:>8}",
            format!("Q{}+", r.query),
            r.t_per_call,
            r.t_prepared,
            format!("{:.0}", 100.0 * (r.t_per_call - r.t_prepared) / r.t_per_call.max(1e-9)),
            r.answers
        );
    }
    println!(
        "plan cache: {} hits / {} misses (hit rate {:.0}%), {} entries",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
        cache.entries
    );
}

/// One row of the engine-pipeline experiment: end-to-end latency of the
/// vectorized vs. the row-at-a-time evaluators of the compiled runtime on
/// the pipeline-optimized translations Q3+/Q4+.
#[derive(Debug, Clone)]
pub struct EnginePipelineRow {
    /// Query number (translated, so `Q⁺3` / `Q⁺4`).
    pub query: usize,
    /// Physical plan size (operator count).
    pub plan_ops: usize,
    /// Number of answer rows (identical in all arms, asserted).
    pub rows: usize,
    /// Minimum latency of compile + row-at-a-time native execution per
    /// call (seconds; minima, not means — see `engine_pipeline`).
    pub t_compiled: f64,
    /// Minimum latency of compile + vectorized execution per call
    /// (seconds).
    pub t_vectorized: f64,
    /// Minimum latency of vectorized execution of a pre-compiled plan —
    /// the prepared-query hot path (seconds).
    pub t_prepared: f64,
}

impl EnginePipelineRow {
    /// Speedup of vectorized execution over the row-path compiled runtime.
    pub fn vec_speedup(&self) -> f64 {
        self.t_compiled / self.t_vectorized.max(1e-12)
    }

    /// Answer rows per second for a given wall time.
    pub fn rows_per_sec(&self, wall: f64) -> f64 {
        self.rows as f64 / wall.max(1e-12)
    }
}

/// The engine-pipeline experiment: run the pipeline-optimized certain-answer
/// translations Q3+ and Q4+ end-to-end through (a) compile + row-at-a-time
/// native execution per call, (b) compile + vectorized execution per call,
/// and (c) vectorized execution of a pre-compiled plan. All arms are
/// asserted result-identical before timing.
pub fn engine_pipeline(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
) -> Vec<EnginePipelineRow> {
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let rewriter = CertainRewriter::new();
    let planner = Planner::new();
    // Same compiled plans, two execution configurations.
    let row_engine =
        Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial().with_vectorized(false));
    let vec_engine = serial_engine(&db);
    let mut out = Vec::new();
    for q in [3usize, 4] {
        let expr = query_by_number(q, &params).expect("query exists");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translates");
        let optimized = planner.optimize(&plus, &db).expect("pipeline runs");
        let plan = vec_engine.plan(&optimized).expect("plans");
        let compiled = vec_engine.compile(&plan).expect("compiles");
        // All arms must agree before their timings mean anything.
        let vectorized = vec_engine.execute_physical(&plan).expect("runs").sorted().distinct();
        let row = row_engine.execute_physical(&plan).expect("runs").sorted().distinct();
        let prepared = vec_engine.execute_compiled(&compiled).expect("runs").sorted().distinct();
        assert_eq!(vectorized.tuples(), row.tuples(), "vectorization changed Q{q}+ results");
        assert_eq!(vectorized.tuples(), prepared.tuples(), "compiled cache changed Q{q}+ results");
        // Minimum over reps, not mean: the arms finish in single-digit
        // milliseconds, where a mean mostly measures scheduler noise.
        let t_compiled = time_min(reps, || row_engine.execute_physical(&plan).expect("runs"));
        let t_vectorized = time_min(reps, || vec_engine.execute_physical(&plan).expect("runs"));
        let t_prepared = time_min(reps, || vec_engine.execute_compiled(&compiled).expect("runs"));
        out.push(EnginePipelineRow {
            query: q,
            plan_ops: plan.size(),
            rows: vectorized.len(),
            t_compiled,
            t_vectorized,
            t_prepared,
        });
    }
    out
}

/// Print engine-pipeline rows.
pub fn print_engine_pipeline(rows: &[EnginePipelineRow]) {
    println!("== Vectorized vs row-at-a-time execution (Q3+/Q4+) ==");
    println!(
        "{:>5} {:>5} {:>13} {:>13} {:>13} {:>9} {:>8}",
        "query", "ops", "t(rows) s", "t(vector) s", "t(prepared) s", "vec gain", "answers"
    );
    for r in rows {
        println!(
            "{:>5} {:>5} {:>13.5} {:>13.5} {:>13.5} {:>8}x {:>8}",
            format!("Q{}+", r.query),
            r.plan_ops,
            r.t_compiled,
            r.t_vectorized,
            r.t_prepared,
            fmt_ratio(r.vec_speedup()),
            r.rows
        );
    }
    println!("(results identical across all three arms, asserted before timing)");
}

/// Write the engine-pipeline rows as machine-readable JSON (the perf
/// baseline future changes are compared against). Plain `format!`-built
/// JSON — the workspace is offline, no serde.
pub fn write_engine_bench_json(
    path: &std::path::Path,
    rows: &[EnginePipelineRow],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"engine_pipeline\",\n");
    s.push_str(
        "  \"units\": {\"wall\": \"seconds (min over reps)\", \"throughput\": \"answer rows/sec\"},\n",
    );
    s.push_str("  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"query\": \"Q{}+\", \"plan_ops\": {}, \"rows\": {},\n",
                "     \"compiled\": {{\"wall_s\": {:.6}, \"rows_per_sec\": {:.1}}},\n",
                "     \"vectorized\": {{\"wall_s\": {:.6}, \"rows_per_sec\": {:.1}}},\n",
                "     \"prepared\": {{\"wall_s\": {:.6}, \"rows_per_sec\": {:.1}}},\n",
                "     \"speedup_vectorized_vs_compiled\": {:.3}}}{}\n"
            ),
            r.query,
            r.plan_ops,
            r.rows,
            r.t_compiled,
            r.rows_per_sec(r.t_compiled),
            r.t_vectorized,
            r.rows_per_sec(r.t_vectorized),
            r.t_prepared,
            r.rows_per_sec(r.t_prepared),
            r.vec_speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// One query's verdict from [`bench_check`].
#[derive(Debug, Clone)]
pub struct BenchCheckRow {
    /// Query label as recorded in the JSON (e.g. `"Q3+"`).
    pub query: String,
    /// Recorded wall time of the row-at-a-time compiled arm (seconds).
    pub compiled_wall: f64,
    /// Recorded wall time of the vectorized arm (seconds).
    pub vectorized_wall: f64,
    /// Whether the vectorized arm is within tolerance of the compiled arm.
    pub ok: bool,
}

/// Parse a `BENCH_engine.json` and check that the vectorized wall time has
/// not regressed past the compiled (row-path) arm beyond `tolerance`
/// (`vectorized ≤ compiled × tolerance`). The workspace is offline (no
/// serde), so this is a purpose-built scrape of the emitter's fixed layout.
pub fn bench_check(path: &std::path::Path, tolerance: f64) -> std::io::Result<Vec<BenchCheckRow>> {
    let text = std::fs::read_to_string(path)?;
    let wall_in = |object: &str, section: &str| -> Option<f64> {
        let s = object.find(&format!("\"{section}\""))?;
        let w = object[s..].find("\"wall_s\":").map(|i| s + i + "\"wall_s\":".len())?;
        let rest = &object[w..];
        let end = rest.find(['}', ','])?;
        rest[..end].trim().parse::<f64>().ok()
    };
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(q) = text[from..].find("\"query\":") {
        let qstart = from + q + "\"query\":".len();
        // One object runs up to the next "query" key (or the end of file).
        let qend = text[qstart..].find("\"query\":").map(|i| qstart + i).unwrap_or(text.len());
        let object = &text[qstart..qend];
        let label = object.split('"').nth(1).map(str::to_string).unwrap_or_else(|| "?".to_string());
        if let (Some(c), Some(v)) = (wall_in(object, "compiled"), wall_in(object, "vectorized")) {
            out.push(BenchCheckRow {
                query: label,
                compiled_wall: c,
                vectorized_wall: v,
                ok: v <= c * tolerance,
            });
        }
        from = qstart;
    }
    Ok(out)
}

/// One row of the `profile` experiment: instrumented execution of a prepared
/// translated query, with its operator profile, the estimate-vs-actual
/// annotated plan, and the instrumentation overhead on the prepared hot path.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Query number (translated, so `Q⁺3` / `Q⁺4`).
    pub query: usize,
    /// Number of answer rows.
    pub rows: usize,
    /// Minimum latency of the uninstrumented prepared execution (seconds).
    pub t_prepared: f64,
    /// Minimum latency of the instrumented prepared execution (seconds).
    pub t_profiled: f64,
    /// Per-operator actuals from one instrumented run.
    pub profile: certus::QueryProfile,
    /// The `EXPLAIN ANALYZE` tree: cost-model estimates and measured
    /// actuals side by side.
    pub analyzed: certus::AnalyzedPlan,
}

impl ProfileRow {
    /// Instrumentation overhead of the profiled run relative to the plain
    /// prepared run (`0.05` = 5% slower).
    pub fn overhead(&self) -> f64 {
        self.t_profiled / self.t_prepared.max(1e-12) - 1.0
    }

    /// The `n` operators with the largest self time (wall time minus
    /// children), hottest first.
    pub fn top_operators(&self, n: usize) -> Vec<&certus::QueryProfile> {
        let mut ops = self.profile.flatten();
        ops.sort_by_key(|p| std::cmp::Reverse(p.self_wall_ns()));
        ops.truncate(n);
        ops
    }
}

/// The `profile` experiment: prepare the certain-answer translations Q3+ and
/// Q4+ through a [`certus::Session`], execute them instrumented
/// ([`certus::Session::execute_prepared_profiled`]), and time the
/// instrumented path against the plain prepared path — the per-operator
/// atomics and timers are supposed to cost well under 5% on the vectorized
/// hot path. The estimate-vs-actual tree comes from
/// [`certus::Session::explain_analyze`] on the same query.
pub fn profile_queries(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    reps: usize,
) -> Vec<ProfileRow> {
    use certus::{Certainty, Session};
    let w = Workload::new(scale_factor, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let mut out = Vec::new();
    for q in [3usize, 4] {
        let expr = query_by_number(q, &params).expect("query exists");
        let prepared = session.prepare(&expr, Certainty::CertainPlus).expect("prepares");
        // Instrumentation must not change answers.
        let plain = session.execute_prepared(&prepared).expect("runs");
        let (profiled, profiles) = session.execute_prepared_profiled(&prepared).expect("runs");
        assert_eq!(
            plain.relation().sorted().tuples(),
            profiled.relation().sorted().tuples(),
            "instrumentation changed Q{q}+ results"
        );
        let profile = profiles.into_iter().next().expect("one plan, one profile");
        let t_prepared = time_min(reps, || session.execute_prepared(&prepared).expect("runs"));
        let t_profiled =
            time_min(reps, || session.execute_prepared_profiled(&prepared).expect("runs"));
        let analyzed = session.explain_analyze(&expr, Certainty::CertainPlus).expect("analyzes");
        out.push(ProfileRow {
            query: q,
            rows: plain.len(),
            t_prepared,
            t_profiled,
            profile,
            analyzed,
        });
    }
    out
}

/// Print profile rows: overhead, the top-5 operators by self time, and the
/// estimate-vs-actual annotated plan.
pub fn print_profile(rows: &[ProfileRow]) {
    use certus::obs::time::fmt_ns;
    println!("== Query profiles: instrumented prepared execution (Q3+/Q4+) ==");
    for r in rows {
        println!(
            "-- Q{}+: {} answers, prepared {:.5}s, instrumented {:.5}s (overhead {:+.1}%)",
            r.query,
            r.rows,
            r.t_prepared,
            r.t_profiled,
            r.overhead() * 100.0
        );
        println!(
            "{:>24} {:>10} {:>10} {:>12} {:>12}",
            "operator", "rows in", "rows out", "self time", "path"
        );
        for p in r.top_operators(5) {
            let path = if p.vec_runs > 0 {
                "vec"
            } else if p.row_fallbacks > 0 {
                "row-fallback"
            } else {
                "row"
            };
            println!(
                "{:>24} {:>10} {:>10} {:>12} {:>12}",
                p.op,
                p.rows_in,
                p.rows_out,
                fmt_ns(p.self_wall_ns()),
                path
            );
        }
        println!("estimate vs actual:");
        println!("{}", r.analyzed);
    }
}

/// Amend `BENCH_engine.json` with per-operator breakdowns from the `profile`
/// experiment. The pipeline's query sections (and the `bench_check` scrape
/// of them) are left untouched: the operators section is appended before the
/// closing brace, replacing any operators section from an earlier run, and
/// deliberately avoids the `"query":` / `"wall_s":` markers the scraper
/// keys on. If the file does not exist yet (a standalone `profile` run), a
/// minimal document is created.
pub fn append_profile_json(path: &std::path::Path, rows: &[ProfileRow]) -> std::io::Result<()> {
    let base = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    // Cut a previous operators section, or just the closing brace.
    let cut = base.find(",\n  \"operators\":").or_else(|| base.rfind('}')).unwrap_or(base.len());
    let mut s = base[..cut].trim_end().to_string();
    if s.ends_with('}') {
        s.pop();
        s.truncate(s.trim_end().len());
    }
    if !s.ends_with('{') {
        s.push(',');
    }
    s.push_str("\n  \"operators\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"q\": \"Q{}+\", \"rows\": {}, \"prepared_ns\": {}, \"instrumented_ns\": {}, \
             \"overhead_pct\": {:.2}, \"diverged\": {}, \"ops\": [\n",
            r.query,
            r.rows,
            (r.t_prepared * 1e9) as u64,
            (r.t_profiled * 1e9) as u64,
            r.overhead() * 100.0,
            r.analyzed.any_divergence()
        ));
        let flat = r.profile.flatten();
        for (j, p) in flat.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"op\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \"self_ns\": {}, \
                 \"vec_runs\": {}, \"row_fallbacks\": {}}}{}\n",
                certus::obs::json::escape(&p.op),
                p.rows_in,
                p.rows_out,
                p.self_wall_ns(),
                p.vec_runs,
                p.row_fallbacks,
                if j + 1 < flat.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!("    ]}}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// The report of the `experiments serve` benchmark: a fleet of TCP clients
/// hammering an in-process [`certus_server::Server`] while a writer bumps
/// the schema epoch, with every served answer checked byte-for-byte against
/// single-session execution.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Concurrent client connections in each phase.
    pub clients: usize,
    /// Closed-loop requests per client.
    pub reps_per_client: usize,
    /// Total closed-loop requests answered (all byte-verified).
    pub closed_loop_requests: u64,
    /// Wall seconds of the closed-loop phase.
    pub closed_wall_s: f64,
    /// Closed-loop throughput (requests / wall).
    pub closed_qps: f64,
    /// Median closed-loop request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile closed-loop request latency, milliseconds.
    pub p99_ms: f64,
    /// Pipelined requests sent in the open-loop burst phase.
    pub open_loop_sent: u64,
    /// Open-loop responses received (must equal sent: zero dropped).
    pub open_loop_answered: u64,
    /// Wall seconds of the open-loop phase.
    pub open_wall_s: f64,
    /// Open-loop throughput (requests / wall).
    pub open_qps: f64,
    /// Rows the concurrent writer inserted while the closed loop ran.
    pub writer_ops: u64,
    /// Schema epochs advanced during the run (one per write).
    pub epoch_advance: u64,
    /// Server-side transparent re-preparations of stale plans.
    pub stale_replans: u64,
    /// Shared plan-cache hits / misses over the whole run.
    pub cache_hits: u64,
    /// Shared plan-cache misses.
    pub cache_misses: u64,
    /// Requests shed by admission control (should be 0 at this load).
    pub rejected: u64,
}

fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The server benchmark: start an in-process server over a TPC-H instance,
/// run `clients` closed-loop clients (alternating Q3 certain-plus / both)
/// with a concurrent writer appending to a side table the queries never
/// read, then an open-loop pipelined burst. Every answer is compared
/// byte-for-byte against local [`certus::Session`] execution, so the
/// differential check runs under live epoch churn.
pub fn serve_benchmark(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    clients: usize,
    reps: usize,
    burst: usize,
) -> ServeBenchReport {
    use certus::{Certainty, Session};
    use certus_server::client::Client;
    use certus_server::protocol::WireCertainty;
    use certus_server::{answer_body, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let w = Workload::new(scale_factor, null_rate, seed);
    let mut db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = query_by_number(3, &params).expect("query exists");
    // The write target: a side table no benchmark query reads, so inserts
    // bump the schema epoch without changing any expected answer.
    db.insert_relation("bench_audit", rel(&["op"], Vec::new()));

    let local = Session::builder(db.clone()).build();
    let expected_plus =
        answer_body(&local.execute(&q3, Certainty::CertainPlus).expect("local Q3+")).encode();
    let expected_both =
        answer_body(&local.execute(&q3, Certainty::Both).expect("local Q3 both")).encode();
    let expected = |i: usize| -> (&[u8], WireCertainty) {
        if i.is_multiple_of(2) {
            (&expected_plus, WireCertainty::CertainPlus)
        } else {
            (&expected_both, WireCertainty::Both)
        }
    };

    let config = ServerConfig {
        max_connections: clients + 8,
        executors: 8,
        engine_threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(db, config).expect("server binds");
    let addr = server.local_addr();
    let epoch_start = server.epoch();

    // Writer: appends one row at a time for as long as the closed loop runs.
    // Readers execute against pinned snapshots, so writer progress while
    // readers sustain load is exactly the never-blocked guarantee.
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer_ops = Arc::new(AtomicU64::new(0));
    let writer = {
        let stop = Arc::clone(&stop_writer);
        let ops = Arc::clone(&writer_ops);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                client
                    .insert("bench_audit", vec![certus_data::Tuple::new(vec![Value::Int(i)])])
                    .expect("insert applies");
                ops.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
            client.close().expect("writer closes");
        })
    };

    // Closed loop: every client runs `reps` one-shot queries, each verified
    // byte-for-byte, with per-request latency recorded.
    let closed_start = std::time::Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let expected = &expected;
                let q3 = &q3;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut lat = Vec::with_capacity(reps);
                    let (want, certainty) = expected(c);
                    for _ in 0..reps {
                        let t = std::time::Instant::now();
                        let got = client.query(certainty, q3).expect("query runs");
                        lat.push(t.elapsed().as_nanos() as u64);
                        assert_eq!(
                            got.canonical_bytes(),
                            want,
                            "served answer differs from local execution (client {c})"
                        );
                    }
                    client.close().expect("client closes");
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let closed_wall_s = closed_start.elapsed().as_secs_f64();
    stop_writer.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    let writer_ops = writer_ops.load(Ordering::Relaxed);
    assert!(writer_ops > 0, "writer made progress while {clients} readers sustained load");

    // Open loop: each client pipelines `burst` queries before reading any
    // response, then drains. Every request must be answered (zero dropped).
    let open_start = std::time::Instant::now();
    let answered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let expected = &expected;
                let q3 = &q3;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let (want, certainty) = expected(c);
                    let mut ids = Vec::with_capacity(burst);
                    for _ in 0..burst {
                        ids.push(client.send_query(certainty, q3).expect("pipelined send"));
                    }
                    let mut got = 0u64;
                    for _ in 0..burst {
                        let (id, answers) = client.recv_answers().expect("pipelined recv");
                        assert!(ids.contains(&id), "response matches a sent request");
                        assert_eq!(answers.canonical_bytes(), want, "pipelined answer differs");
                        got += 1;
                    }
                    client.close().expect("client closes");
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    let open_wall_s = open_start.elapsed().as_secs_f64();
    let open_sent = (clients * burst) as u64;
    assert_eq!(answered, open_sent, "every pipelined request got a response");

    let mut stats_client = Client::connect(addr).expect("stats client connects");
    let stats = stats_client.stats().expect("stats");
    let epoch_end = server.epoch();
    stats_client.close().expect("stats client closes");
    server.shutdown();

    let mut sorted = latencies;
    sorted.sort_unstable();
    let closed_total = (clients * reps) as u64;
    ServeBenchReport {
        clients,
        reps_per_client: reps,
        closed_loop_requests: closed_total,
        closed_wall_s,
        closed_qps: closed_total as f64 / closed_wall_s.max(1e-9),
        p50_ms: percentile_ns(&sorted, 0.50) as f64 / 1e6,
        p99_ms: percentile_ns(&sorted, 0.99) as f64 / 1e6,
        open_loop_sent: open_sent,
        open_loop_answered: answered,
        open_wall_s,
        open_qps: open_sent as f64 / open_wall_s.max(1e-9),
        writer_ops,
        epoch_advance: epoch_end - epoch_start,
        stale_replans: stats.stale_replans,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        rejected: stats.rejected,
    }
}

/// Print the serve-benchmark report.
pub fn print_serve(r: &ServeBenchReport) {
    println!("== Server benchmark: {} clients over TCP, live epoch churn ==", r.clients);
    println!(
        "closed loop : {} requests in {:.3}s — {:.1} q/s, p50 {:.2}ms, p99 {:.2}ms",
        r.closed_loop_requests, r.closed_wall_s, r.closed_qps, r.p50_ms, r.p99_ms
    );
    println!(
        "open loop   : {}/{} pipelined answered in {:.3}s — {:.1} q/s (zero dropped)",
        r.open_loop_answered, r.open_loop_sent, r.open_wall_s, r.open_qps
    );
    println!(
        "writer      : {} inserts concurrent with the closed loop ({} epochs advanced)",
        r.writer_ops, r.epoch_advance
    );
    println!(
        "server      : {} stale replans, cache {}h/{}m, {} rejected",
        r.stale_replans, r.cache_hits, r.cache_misses, r.rejected
    );
    println!("(every response byte-identical to single-session execution, asserted)");
}

/// Write the serve-benchmark report as machine-readable JSON
/// (`BENCH_server.json`). Plain `format!`-built JSON — no serde.
pub fn write_server_bench_json(
    path: &std::path::Path,
    r: &ServeBenchReport,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"server_throughput\",\n");
    s.push_str(
        "  \"units\": {\"wall\": \"seconds\", \"latency\": \"milliseconds\", \
         \"throughput\": \"queries/sec\"},\n",
    );
    s.push_str(&format!(
        "  \"closed_loop\": {{\"clients\": {}, \"reps_per_client\": {}, \"requests\": {}, \
         \"wall_s\": {:.6}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},\n",
        r.clients,
        r.reps_per_client,
        r.closed_loop_requests,
        r.closed_wall_s,
        r.closed_qps,
        r.p50_ms,
        r.p99_ms,
    ));
    s.push_str(&format!(
        "  \"open_loop\": {{\"sent\": {}, \"answered\": {}, \"wall_s\": {:.6}, \
         \"qps\": {:.1}}},\n",
        r.open_loop_sent, r.open_loop_answered, r.open_wall_s, r.open_qps,
    ));
    s.push_str(&format!(
        "  \"writer\": {{\"ops\": {}, \"epoch_advance\": {}}},\n",
        r.writer_ops, r.epoch_advance,
    ));
    s.push_str(&format!(
        "  \"server\": {{\"stale_replans\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"rejected\": {}}},\n",
        r.stale_replans, r.cache_hits, r.cache_misses, r.rejected,
    ));
    s.push_str("  \"differential\": \"all responses byte-identical to local Session\"\n");
    s.push_str("}\n");
    std::fs::write(path, s)
}

/// The report of the `experiments chaos` run: a crash/recover loop over a
/// durable server under deterministic fault injection, with every served
/// answer byte-checked against local execution and every acknowledged write
/// asserted to survive recovery.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Server generations started (each one recovers the previous state).
    pub rounds: usize,
    /// Inserts acknowledged by the server; all must survive every recovery.
    pub writes_acked: u64,
    /// Inserts refused by injected WAL faults; none may ever resurface.
    pub writes_rejected: u64,
    /// Torn-append crashes injected (partial record left on disk).
    pub torn_injected: u64,
    /// Mean recovery time (checkpoint + WAL replay inside `Server::start`).
    pub recovery_ms_mean: f64,
    /// Worst recovery time across all rounds.
    pub recovery_ms_max: f64,
    /// Acknowledged durable writes per wall second (each one fsync'd).
    pub durable_write_qps: f64,
    /// Served answers compared byte-for-byte against local execution.
    pub verified_answers: u64,
}

/// Crash/recover loop over a durable [`certus_server::Server`]: each round
/// starts a server over whatever the previous generation left on disk,
/// byte-checks the recovered audit table (all certainty modes) and a real
/// TPC-H query against a local mirror that replays only the *acknowledged*
/// writes, then issues a batch of inserts with deterministic WAL faults
/// injected (fsync failures mid-batch, a torn append at crash time) before
/// tearing the server down. The invariant under test is the durability
/// contract: an acked write is never lost, a failed one never resurfaces.
pub fn chaos_experiment(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    rounds: usize,
    writes_per_round: usize,
) -> ChaosReport {
    use certus::obs::{failpoints, FailAction};
    use certus::{Certainty, Session};
    use certus_data::wal::{FP_APPEND, FP_FSYNC};
    use certus_data::Tuple;
    use certus_server::client::{Client, RetryPolicy};
    use certus_server::protocol::WireCertainty;
    use certus_server::{answer_body, Server, ServerConfig};

    let w = Workload::new(scale_factor, null_rate, seed);
    let mut db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = query_by_number(3, &params).expect("query exists");
    // The write target: a side table the TPC-H queries never read, so the
    // audit rows are byte-checked directly and Q3 stays byte-stable.
    db.insert_relation("chaos_audit", rel(&["op"], Vec::new()));

    let dir = std::env::temp_dir().join(format!("certus-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let modes = [
        (WireCertainty::Plain, Certainty::Plain),
        (WireCertainty::CertainPlus, Certainty::CertainPlus),
        (WireCertainty::PossibleStar, Certainty::PossibleStar),
        (WireCertainty::Both, Certainty::Both),
    ];
    let audit_query = RaExpr::relation("chaos_audit");
    let fp = failpoints();
    fp.disarm_all();

    let mut acked: Vec<i64> = Vec::new();
    let mut next_op = 0i64;
    let mut writes_rejected = 0u64;
    let mut torn_injected = 0u64;
    let mut verified_answers = 0u64;
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut insert_wall_s = 0.0f64;

    // One extra generation at the end verifies the final crash's state.
    for round in 0..=rounds {
        let config = ServerConfig {
            executors: 2,
            engine_threads: 1,
            data_dir: Some(dir.clone()),
            // Small enough that the loop crosses checkpoint folds, so
            // recovery exercises checkpoint + WAL-suffix replay.
            checkpoint_every: (writes_per_round as u64 / 2).max(4),
            ..ServerConfig::default()
        };
        let t = std::time::Instant::now();
        let server = Server::start(db.clone(), config).expect("server starts");
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let addr = server.local_addr();

        // Local mirror: the seed instance plus exactly the acked writes.
        let mut mirror = db.clone();
        mirror.insert_relation(
            "chaos_audit",
            rel(&["op"], acked.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let local = Session::builder(mirror).build();

        let mut client = Client::connect(addr)
            .expect("client connects")
            .with_retry(RetryPolicy { seed: seed + round as u64, ..RetryPolicy::default() });

        // Recovered state must match the mirror byte-for-byte in every
        // certainty mode — acked writes present, rejected ones absent.
        for (wire, cert) in modes {
            let want = answer_body(&local.execute(&audit_query, cert).expect("local audit"));
            let got = client.query(wire, &audit_query).expect("served audit");
            assert_eq!(
                got.canonical_bytes(),
                want.encode(),
                "recovered audit table diverges from acked writes (round {round}, {wire:?})"
            );
            verified_answers += 1;
        }
        let want_q3 =
            answer_body(&local.execute(&q3, Certainty::CertainPlus).expect("local Q3+")).encode();
        let got_q3 = client.query(WireCertainty::CertainPlus, &q3).expect("served Q3+");
        assert_eq!(got_q3.canonical_bytes(), want_q3, "Q3+ diverges after recovery");
        verified_answers += 1;

        if round == rounds {
            // Final generation is verification-only.
            client.close().expect("client closes");
            server.shutdown();
            break;
        }

        // Write batch with deterministic faults: odd rounds lose an fsync
        // mid-batch (the write must be refused and rolled back).
        for i in 0..writes_per_round {
            if round % 2 == 1 && i == writes_per_round / 2 {
                fp.arm(FP_FSYNC, FailAction::Error, 0, 1);
            }
            let t = std::time::Instant::now();
            let outcome = client.insert("chaos_audit", vec![Tuple::new(vec![Value::Int(next_op)])]);
            insert_wall_s += t.elapsed().as_secs_f64();
            match outcome {
                Ok(_) => acked.push(next_op),
                Err(_) => writes_rejected += 1,
            }
            next_op += 1;
        }

        // Every third round crashes mid-append: a torn record reaches disk
        // but is never acked, and recovery must truncate it.
        if round % 3 == 2 {
            fp.arm(FP_APPEND, FailAction::Torn(6), 0, 1);
            let outcome = client.insert("chaos_audit", vec![Tuple::new(vec![Value::Int(next_op)])]);
            assert!(outcome.is_err(), "a torn append must never be acknowledged");
            torn_injected += 1;
            writes_rejected += 1;
            next_op += 1;
        }
        fp.disarm_all();

        // Abrupt teardown: no clean close from the client, no checkpoint
        // request — the next generation gets exactly what the WAL holds.
        drop(client);
        server.shutdown();
    }
    fp.disarm_all();
    let _ = std::fs::remove_dir_all(&dir);

    let mean = recovery_ms.iter().sum::<f64>() / recovery_ms.len().max(1) as f64;
    let max = recovery_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    ChaosReport {
        rounds,
        writes_acked: acked.len() as u64,
        writes_rejected,
        torn_injected,
        recovery_ms_mean: mean,
        recovery_ms_max: max,
        durable_write_qps: acked.len() as f64 / insert_wall_s.max(1e-9),
        verified_answers,
    }
}

/// Print the chaos-run report.
pub fn print_chaos(r: &ChaosReport) {
    println!("== Chaos: {} crash/recover rounds under fault injection ==", r.rounds);
    println!(
        "writes      : {} acked (all survived recovery), {} refused by injected faults \
         ({} torn appends truncated)",
        r.writes_acked, r.writes_rejected, r.torn_injected
    );
    println!(
        "recovery    : {:.2}ms mean, {:.2}ms max (checkpoint + WAL replay)",
        r.recovery_ms_mean, r.recovery_ms_max
    );
    println!("durable qps : {:.1} fsync'd writes/s", r.durable_write_qps);
    println!(
        "verified    : {} served answers byte-identical to local execution",
        r.verified_answers
    );
}

/// Splice `section` (a flat JSON object rendered as `{...}`) into the
/// document at `path` under `key`, replacing any previous copy of that key
/// and leaving every other section untouched. Creates a minimal document
/// when the serve benchmark has not run yet.
fn amend_json_section(path: &std::path::Path, key: &str, section: &str) -> std::io::Result<()> {
    let mut s = std::fs::read_to_string(path)
        .unwrap_or_else(|_| "{\n  \"experiment\": \"server_throughput\"\n}\n".to_string());
    let marker = format!(",\n  \"{key}\":");
    if let Some(start) = s.find(&marker) {
        // Amended sections are rendered flat, so the first '}' after the
        // marker closes the object.
        if let Some(close) = s[start..].find('}') {
            s.replace_range(start..start + close + 1, "");
        }
    }
    let cut = s.rfind('}').unwrap_or(s.len());
    let mut out = s[..cut].trim_end().to_string();
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&format!("\n  \"{key}\": {section}\n}}\n"));
    std::fs::write(path, out)
}

/// Amend `BENCH_server.json` with the chaos section (recovery time and
/// durable write throughput), replacing any previous chaos section. Creates
/// a minimal document when the serve benchmark has not run yet.
pub fn append_chaos_json(path: &std::path::Path, r: &ChaosReport) -> std::io::Result<()> {
    let section = format!(
        "{{\"rounds\": {}, \"writes_acked\": {}, \"writes_rejected\": {}, \
         \"torn_injected\": {}, \"recovery_ms_mean\": {:.3}, \"recovery_ms_max\": {:.3}, \
         \"durable_write_qps\": {:.1}, \"verified_answers\": {}}}",
        r.rounds,
        r.writes_acked,
        r.writes_rejected,
        r.torn_injected,
        r.recovery_ms_mean,
        r.recovery_ms_max,
        r.durable_write_qps,
        r.verified_answers,
    );
    amend_json_section(path, "chaos", &section)
}

/// The report of the `experiments chaos --replicated` run: a kill/promote
/// loop over a sync-replicated primary/replica pair under stream fault
/// injection, with every quorum-acked write asserted present on the
/// promoted node and every served answer byte-checked against a local
/// mirror.
#[derive(Debug, Clone)]
pub struct ReplChaosReport {
    /// Kill/promote rounds (each one fails over to the replica).
    pub rounds: usize,
    /// Quorum-acked inserts; every one must survive every failover.
    pub writes_acked: u64,
    /// Inserts that errored with replication state unknown (quorum
    /// timeouts, injected publish faults); resolved after each promote.
    pub writes_indeterminate: u64,
    /// Indeterminate writes the promoted node turned out to hold.
    pub indeterminate_present: u64,
    /// Injected `repl.send` stream severs.
    pub send_faults: u64,
    /// Injected torn `WalSegment` frames (partial frame on the wire).
    pub torn_segments: u64,
    /// Injected `repl.apply` refusals on the replica.
    pub apply_faults: u64,
    /// Injected `server.publish` faults (durable but unacknowledged).
    pub publish_faults: u64,
    /// Promotions performed (one per round).
    pub promotions: u64,
    /// Mean time from killing the primary to the promoted node
    /// acknowledging its first write.
    pub failover_ms_mean: f64,
    /// Worst failover across all rounds.
    pub failover_ms_max: f64,
    /// Mean replication lag: the sync-quorum wait from locally-durable to
    /// replica-acked, including fault-triggered re-subscribes.
    pub repl_lag_ms_mean: f64,
    /// p99 replication lag (bucketed histogram resolution).
    pub repl_lag_ms_p99: f64,
    /// Served answers compared byte-for-byte against local execution.
    pub verified_answers: u64,
}

/// Kill/promote loop over a replicated pair: each round starts a sync-mode
/// primary (quorum 1) over the previous round's promoted state and a fresh
/// replica that bootstraps over the wire, byte-checks the recovered audit
/// table and a real TPC-H query against a local mirror of the acknowledged
/// writes, then issues a write batch with deterministic stream faults
/// (severed sends, torn segments, apply refusals, withheld acks) before
/// killing the primary and promoting the replica. Invariants under test:
/// every quorum-acked write is on the promoted node, a write that was
/// never durable anywhere never resurfaces, and errored writes are honest
/// indeterminates that resolve to exactly present-or-absent after failover.
pub fn replicated_chaos_experiment(
    scale_factor: f64,
    null_rate: f64,
    seed: u64,
    rounds: usize,
    writes_per_round: usize,
) -> ReplChaosReport {
    use certus::obs::{failpoints, names, registry, FailAction};
    use certus::{Certainty, Session};
    use certus_data::Tuple;
    use certus_server::client::Client;
    use certus_server::protocol::WireCertainty;
    use certus_server::replication::{FP_REPL_APPLY, FP_REPL_SEND};
    use certus_server::server::FP_PUBLISH;
    use certus_server::{answer_body, ReplMode, ReplicationConfig, Server, ServerConfig};

    let w = Workload::new(scale_factor, null_rate, seed);
    let mut db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = query_by_number(3, &params).expect("query exists");
    db.insert_relation("chaos_audit", rel(&["op"], Vec::new()));

    let pid = std::process::id();
    let dirs = [
        std::env::temp_dir().join(format!("certus-replchaos-a-{pid}-{seed}")),
        std::env::temp_dir().join(format!("certus-replchaos-b-{pid}-{seed}")),
    ];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    let modes = [
        (WireCertainty::Plain, Certainty::Plain),
        (WireCertainty::CertainPlus, Certainty::CertainPlus),
        (WireCertainty::PossibleStar, Certainty::PossibleStar),
        (WireCertainty::Both, Certainty::Both),
    ];
    let audit_query = RaExpr::relation("chaos_audit");
    let fp = failpoints();
    fp.disarm_all();
    let lag_before = registry().histogram(names::REPL_QUORUM_WAIT_NS).snapshot();

    let node_config = |dir: &std::path::Path, repl: ReplicationConfig| ServerConfig {
        executors: 2,
        engine_threads: 1,
        poll_interval_ms: 5,
        data_dir: Some(dir.to_path_buf()),
        // Small enough that batches cross folds, so the stream exercises
        // mid-load re-bootstraps and quiescent rotations too.
        checkpoint_every: (writes_per_round as u64 / 2).max(4),
        replication: Some(repl),
        ..ServerConfig::default()
    };
    // Generous ack budget: injected stream faults force a re-subscribe
    // (reconnect + re-ship) inside the quorum wait of a single insert.
    let primary_repl = || ReplicationConfig {
        ack_timeout_ms: 5_000,
        ..ReplicationConfig::primary(ReplMode::Sync { quorum: 1 })
    };
    let replica_repl = |addr: &str| ReplicationConfig {
        reconnect_ms: 5,
        ..ReplicationConfig::replica(addr, ReplMode::Async)
    };

    let mut acked: Vec<i64> = Vec::new();
    let mut next_op = 0i64;
    let mut writes_indeterminate = 0u64;
    let mut indeterminate_present = 0u64;
    let mut send_faults = 0u64;
    let mut torn_segments = 0u64;
    let mut apply_faults = 0u64;
    let mut publish_faults = 0u64;
    let mut promotions = 0u64;
    let mut verified_answers = 0u64;
    let mut failover_ms: Vec<f64> = Vec::new();

    let verify = |client: &mut Client, local: &Session, round: usize, tag: &str| -> u64 {
        let mut n = 0u64;
        for (wire, cert) in modes {
            let want = answer_body(&local.execute(&audit_query, cert).expect("local audit"));
            let got = client.query(wire, &audit_query).expect("served audit");
            assert_eq!(
                got.canonical_bytes(),
                want.encode(),
                "audit table diverges from acked writes ({tag}, round {round}, {wire:?})"
            );
            n += 1;
        }
        let want_q3 =
            answer_body(&local.execute(&q3, Certainty::CertainPlus).expect("local Q3+")).encode();
        let got_q3 = client.query(WireCertainty::CertainPlus, &q3).expect("served Q3+");
        assert_eq!(got_q3.canonical_bytes(), want_q3, "Q3+ diverges ({tag}, round {round})");
        n + 1
    };
    let mirror_session = |db: &certus_data::Database, acked: &[i64]| {
        let mut mirror = db.clone();
        mirror.insert_relation(
            "chaos_audit",
            rel(&["op"], acked.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        Session::builder(mirror).build()
    };

    for round in 0..rounds {
        // Ping-pong the roles: this round's primary recovers the state the
        // previous round's promotion left behind; the replica dir is stale
        // by two rounds and is overwritten by its wire bootstrap.
        let primary_dir = &dirs[round % 2];
        let replica_dir = &dirs[(round + 1) % 2];
        let primary =
            Server::start(db.clone(), node_config(primary_dir, primary_repl())).expect("primary");
        let paddr = primary.local_addr().to_string();
        let replica = Server::start(db.clone(), node_config(replica_dir, replica_repl(&paddr)))
            .expect("replica");

        let mut client = Client::connect(&paddr).expect("client connects");
        // The recovered chain: everything acked in previous rounds survived
        // the promotion(s) and restart(s), byte-for-byte in every mode.
        let local = mirror_session(&db, &acked);
        verified_answers += verify(&mut client, &local, round, "recovered primary");

        // Write batch under deterministic stream faults. Sync quorum 1:
        // an Ok here means the record is applied and fsync'd on the replica.
        let mut pending: Vec<(i64, bool)> = Vec::new(); // (op, publish fault armed)
        for i in 0..writes_per_round {
            let mut published_fault = false;
            if i == writes_per_round / 4 {
                fp.arm(FP_REPL_SEND, FailAction::Error, 0, 1);
                send_faults += 1;
            } else if i == writes_per_round / 2 {
                fp.arm(FP_REPL_SEND, FailAction::Torn(10), 0, 1);
                torn_segments += 1;
            } else if i == (writes_per_round * 3) / 4 {
                fp.arm(FP_REPL_APPLY, FailAction::Error, 0, 1);
                apply_faults += 1;
            } else if round % 2 == 1 && i == writes_per_round / 3 {
                fp.arm(FP_PUBLISH, FailAction::Error, 0, 1);
                publish_faults += 1;
                published_fault = true;
            }
            let outcome = client.insert("chaos_audit", vec![Tuple::new(vec![Value::Int(next_op)])]);
            match outcome {
                Ok(_) => acked.push(next_op),
                Err(_) => {
                    // Replication state unknown: durable locally (publish
                    // fault) or possibly shipped (quorum timeout). Resolved
                    // against the promoted node below.
                    writes_indeterminate += 1;
                    pending.push((next_op, published_fault));
                }
            }
            next_op += 1;
        }
        fp.disarm_all();

        // Kill the primary: no clean client close, then promote the replica
        // and require it to take a write. The failover clock runs from the
        // kill to that first post-promotion ack.
        drop(client);
        let t = std::time::Instant::now();
        primary.shutdown();
        let mut rc = Client::connect(replica.local_addr()).expect("replica client");
        rc.promote().expect("promote");
        promotions += 1;
        let first = next_op;
        rc.insert("chaos_audit", vec![Tuple::new(vec![Value::Int(first)])])
            .expect("promoted node takes writes");
        failover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        acked.push(first);
        next_op += 1;

        // Resolve this round's indeterminates against the promoted node:
        // present ones join the mirror, absent ones are gone for good (the
        // apply loop is sealed — nothing can land later).
        if !pending.is_empty() {
            let have = rc.query(WireCertainty::Plain, &audit_query).expect("audit");
            let present: std::collections::HashSet<i64> = have
                .body
                .plain
                .as_ref()
                .expect("plain answers")
                .iter()
                .map(|t| match t.values()[0] {
                    Value::Int(v) => v,
                    ref other => panic!("unexpected audit value {other:?}"),
                })
                .collect();
            for (op, published) in pending {
                if present.contains(&op) {
                    acked.push(op);
                    indeterminate_present += 1;
                } else {
                    // A write the primary published (it was durable there)
                    // ships with the stream; it must not vanish.
                    assert!(!published, "a published write disappeared on failover (op {op})");
                }
            }
            acked.sort_unstable();
        }

        // The promoted node serves the merged history, byte-for-byte.
        let local = mirror_session(&db, &acked);
        verified_answers += verify(&mut rc, &local, round, "promoted replica");
        drop(rc);
        replica.shutdown();
    }

    // Final generation: recover the last promoted state standalone and
    // verify it one more time without any replication in play.
    let last = Server::start(
        db.clone(),
        ServerConfig {
            executors: 2,
            engine_threads: 1,
            data_dir: Some(dirs[rounds % 2].clone()),
            ..ServerConfig::default()
        },
    )
    .expect("final recovery");
    let mut client = Client::connect(last.local_addr()).expect("final client");
    let local = mirror_session(&db, &acked);
    verified_answers += verify(&mut client, &local, rounds, "final standalone");
    client.close().expect("client closes");
    last.shutdown();
    fp.disarm_all();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    let lag_after = registry().histogram(names::REPL_QUORUM_WAIT_NS).snapshot();
    let lag_count = lag_after.count.saturating_sub(lag_before.count).max(1);
    let lag_sum = lag_after.sum.saturating_sub(lag_before.sum);
    let mean = failover_ms.iter().sum::<f64>() / failover_ms.len().max(1) as f64;
    let max = failover_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    ReplChaosReport {
        rounds,
        writes_acked: acked.len() as u64,
        writes_indeterminate,
        indeterminate_present,
        send_faults,
        torn_segments,
        apply_faults,
        publish_faults,
        promotions,
        failover_ms_mean: mean,
        failover_ms_max: max,
        repl_lag_ms_mean: lag_sum as f64 / lag_count as f64 / 1e6,
        repl_lag_ms_p99: lag_after.quantile(0.99) as f64 / 1e6,
        verified_answers,
    }
}

/// Print the replicated-chaos report.
pub fn print_repl_chaos(r: &ReplChaosReport) {
    println!("== Replicated chaos: {} kill/promote rounds under stream faults ==", r.rounds);
    println!(
        "writes      : {} acked (all survived failover), {} indeterminate \
         ({} resolved present on the promoted node)",
        r.writes_acked, r.writes_indeterminate, r.indeterminate_present
    );
    println!(
        "faults      : {} severed sends, {} torn segments, {} apply refusals, \
         {} withheld acks",
        r.send_faults, r.torn_segments, r.apply_faults, r.publish_faults
    );
    println!(
        "failover    : {:.2}ms mean, {:.2}ms max (kill -> promoted node acks a write; \
         {} promotions)",
        r.failover_ms_mean, r.failover_ms_max, r.promotions
    );
    println!(
        "repl lag    : {:.3}ms mean, {:.3}ms p99 (locally-durable -> replica-acked)",
        r.repl_lag_ms_mean, r.repl_lag_ms_p99
    );
    println!(
        "verified    : {} served answers byte-identical to local execution",
        r.verified_answers
    );
}

/// Amend `BENCH_server.json` with the replication section (failover time
/// and replication lag), replacing any previous replication section and
/// preserving the serve/chaos sections.
pub fn append_repl_chaos_json(path: &std::path::Path, r: &ReplChaosReport) -> std::io::Result<()> {
    let section = format!(
        "{{\"rounds\": {}, \"writes_acked\": {}, \"writes_indeterminate\": {}, \
         \"indeterminate_present\": {}, \"send_faults\": {}, \"torn_segments\": {}, \
         \"apply_faults\": {}, \"publish_faults\": {}, \"promotions\": {}, \
         \"failover_ms_mean\": {:.3}, \"failover_ms_max\": {:.3}, \
         \"repl_lag_ms_mean\": {:.3}, \"repl_lag_ms_p99\": {:.3}, \"verified_answers\": {}}}",
        r.rounds,
        r.writes_acked,
        r.writes_indeterminate,
        r.indeterminate_present,
        r.send_faults,
        r.torn_segments,
        r.apply_faults,
        r.publish_faults,
        r.promotions,
        r.failover_ms_mean,
        r.failover_ms_max,
        r.repl_lag_ms_mean,
        r.repl_lag_ms_p99,
        r.verified_answers,
    );
    amend_json_section(path, "replication", &section)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_chaos_smoke_survives_one_failover() {
        let r = replicated_chaos_experiment(0.0003, 0.02, 911, 1, 8);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.promotions, 1);
        // Stream faults were injected and every ack still held: the
        // byte-checks inside the experiment are the real assertions.
        assert_eq!(r.send_faults, 1);
        assert_eq!(r.torn_segments, 1);
        assert_eq!(r.apply_faults, 1);
        assert!(r.writes_acked >= 5, "{r:?}");
        assert!(r.failover_ms_max > 0.0);
        assert_eq!(r.verified_answers, 15, "3 verification points x 5 checks");
        print_repl_chaos(&r);
    }

    #[test]
    fn chaos_json_sections_amend_without_clobbering_each_other() {
        let path = std::env::temp_dir().join("BENCH_server_amend_test.json");
        let _ = std::fs::remove_file(&path);
        let chaos = ChaosReport {
            rounds: 3,
            writes_acked: 40,
            writes_rejected: 2,
            torn_injected: 1,
            recovery_ms_mean: 1.5,
            recovery_ms_max: 2.5,
            durable_write_qps: 100.0,
            verified_answers: 20,
        };
        let repl = ReplChaosReport {
            rounds: 5,
            writes_acked: 80,
            writes_indeterminate: 3,
            indeterminate_present: 2,
            send_faults: 5,
            torn_segments: 5,
            apply_faults: 5,
            publish_faults: 2,
            promotions: 5,
            failover_ms_mean: 4.0,
            failover_ms_max: 9.0,
            repl_lag_ms_mean: 0.8,
            repl_lag_ms_p99: 2.0,
            verified_answers: 55,
        };
        // Create from nothing, then amend in both orders, twice each: every
        // pass must keep the document balanced and keep both sections.
        append_chaos_json(&path, &chaos).expect("creates");
        append_repl_chaos_json(&path, &repl).expect("amends");
        append_chaos_json(&path, &chaos).expect("replaces chaos");
        append_repl_chaos_json(&path, &repl).expect("replaces replication");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
        assert_eq!(text.matches("\"chaos\":").count(), 1, "{text}");
        assert_eq!(text.matches("\"replication\":").count(), 1, "{text}");
        assert!(text.contains("\"failover_ms_mean\": 4.000"), "{text}");
        assert!(text.contains("\"durable_write_qps\": 100.0"), "{text}");
    }

    #[test]
    fn paper_null_rates_match_the_sweep() {
        let rates = paper_null_rates();
        assert_eq!(rates.len(), 16);
        assert!((rates[0] - 0.005).abs() < 1e-9);
        assert!((rates[15] - 0.10).abs() < 1e-9);
    }

    #[test]
    fn figure1_smoke_shows_false_positives() {
        let rows = figure1(0.0003, 1, 1, &[0.05]);
        assert_eq!(rows.len(), 1);
        // At a 5% null rate at least one query must show false positives.
        assert!(rows[0].fp_pct.iter().any(|&p| p > 0.0), "{rows:?}");
        print_figure1(&rows);
    }

    #[test]
    fn figure4_smoke_produces_ratios() {
        let rows = figure4(0.0004, &[0.02], 1, 1);
        assert_eq!(rows.len(), 1);
        for q in 0..4 {
            assert!(rows[0].ratio[q] > 0.0);
        }
        // The decorrelated null-check makes Q2+ no slower than ~Q2.
        assert!(rows[0].ratio[1] < 1.5, "Q2+ ratio {}", rows[0].ratio[1]);
        print_figure4(&rows);
    }

    #[test]
    fn section5_shows_fig2_blowup() {
        let rows = section5(&[8, 24]);
        assert_eq!(rows.len(), 2);
        // The Figure 2 translation is slower than Q+ already at these sizes,
        // and its disadvantage grows with the instance.
        assert!(rows[1].t_fig2 > rows[1].t_plus);
        print_section5(&rows);
    }

    #[test]
    fn precision_is_perfect_on_a_small_instance() {
        let rows = precision_recall(0.0003, 0.05, 5);
        for r in &rows {
            assert_eq!(
                r.qplus_false_positives, 0,
                "Q{} returned a detected false positive",
                r.query
            );
        }
        print_precision_recall(&rows);
    }

    #[test]
    fn raw_translations_need_no_rescue_from_the_pipeline() {
        // Q3+'s NOT EXISTS anti-join carries the translation's `… OR IS
        // NULL` disjuncts. They are null-aware hash keys, so the raw
        // translation (pipeline off) hashes just like the pipeline's output:
        // neither arm is quadratic. Results are asserted identical inside
        // the experiment; here we check that the raw arm stays within a
        // generous factor of the rewritten one (both are fast and
        // timing-noisy at this scale, and this test also runs in debug
        // builds).
        let rows = planner_on_off(0.0006, 0.02, 904, 1);
        assert_eq!(rows.len(), 4);
        let q3 = &rows[2];
        assert!(
            q3.t_off < q3.t_on * 2.0 + 0.05,
            "raw Q3+ should hash like the rewritten one: off {} vs on {}",
            q3.t_off,
            q3.t_on
        );
        // The guarded OR-split must not pessimize Q4+ the way unconditional
        // union-splitting does (generous factor: both arms are fast and
        // timing-noisy at this scale).
        let q4 = &rows[3];
        assert!(
            q4.t_on < q4.t_off * 2.0 + 0.05,
            "pipeline must not pessimize Q4+: off {} vs on {}",
            q4.t_off,
            q4.t_on
        );
        print_planner_on_off(&rows);
    }

    #[test]
    fn parallel_scaling_agrees_across_thread_counts() {
        // Correctness smoke: tiny instance, every thread count returns the
        // serial result (asserted inside the experiment). No wall-clock
        // assertions here — speedups depend on the host's core count.
        let rows = parallel_scaling(0.0004, 0.02, 33, 1, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].threads, 1);
        for r in &rows {
            assert!(r.t_q3 > 0.0 && r.t_q4 > 0.0);
            assert_eq!(r.answers, rows[0].answers);
        }
        print_parallel_scaling(&rows);
    }

    #[test]
    fn concurrency_scaling_agrees_and_records_curves() {
        // Correctness smoke: two clients on a shared two-wide pool still
        // return the serial answers (asserted inside the experiment), and
        // the JSON emitter round-trips the sweep's shape.
        let rows = concurrency_scaling(0.0004, 0.02, 33, 2, &[1, 2], &[1, 2]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.wall_s > 0.0 && r.queries_per_sec > 0.0);
            assert_eq!(r.answers, rows[0].answers);
        }
        print_concurrency_scaling(&rows);
        let scaling = parallel_scaling(0.0004, 0.02, 33, 1, &[1, 2]);
        let path = std::env::temp_dir().join("BENCH_parallel_test.json");
        write_parallel_bench_json(&path, &scaling, &rows).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches("\"clients\"").count(), rows.len());
        assert_eq!(text.matches("\"q3_wall_s\"").count(), scaling.len());
    }

    #[test]
    fn prepared_execution_agrees_and_hits_the_cache() {
        let (rows, cache) = prepared_execution(0.0005, 0.02, 906, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.t_per_call > 0.0 && r.t_prepared > 0.0);
        }
        // The warm `Session::execute` calls must have been served from the
        // plan cache: one miss per query, everything else hits.
        assert_eq!(cache.misses, 2);
        assert!(cache.hits >= 2, "{cache:?}");
        assert!(cache.hit_rate() > 0.0);
        print_prepared(&rows, &cache);
    }

    #[test]
    fn engine_pipeline_vectorized_runtime_beats_row_path() {
        let rows = engine_pipeline(0.0008, 0.03, 907, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.t_compiled > 0.0 && r.t_prepared > 0.0);
            assert!(r.t_vectorized > 0.0);
            assert!(r.plan_ops > 1);
        }
        // The vectorized runtime must beat the row path on at least one
        // query even in debug builds (the Q4+ gap is algorithmic: hoisted
        // loop-invariant predicates + typed loops vs per-pair dispatch), so
        // a bound barely above 1x only fails on a real regression, not on
        // scheduler noise.
        let best_vec = rows.iter().map(EnginePipelineRow::vec_speedup).fold(0.0, f64::max);
        assert!(best_vec > 1.05, "expected a vectorization speedup, got {rows:?}");
        print_engine_pipeline(&rows);
        // The JSON emitter must produce well-formed output that bench_check
        // can read back and judge.
        let path = std::env::temp_dir().join("BENCH_engine_test.json");
        write_engine_bench_json(&path, &rows).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        assert!(text.contains("\"experiment\": \"engine_pipeline\""));
        assert!(text.contains("\"speedup_vectorized_vs_compiled\""));
        let checks = bench_check(&path, 1.10).expect("parses");
        assert_eq!(checks.len(), 2);
        for (c, r) in checks.iter().zip(&rows) {
            assert_eq!(c.query, format!("Q{}+", r.query));
            assert!((c.compiled_wall - r.t_compiled).abs() < 1e-5);
            assert!((c.vectorized_wall - r.t_vectorized).abs() < 1e-5);
            assert_eq!(c.ok, c.vectorized_wall <= c.compiled_wall * 1.10);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_reports_operators_and_keeps_bench_check_readable() {
        let rows = profile_queries(0.0005, 0.03, 907, 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.profile.rows_out as usize, r.rows, "profile root mismatches answers");
            assert!(r.profile.node_count() > 1);
            assert!(!r.top_operators(5).is_empty());
            assert_eq!(r.analyzed.rows_act as usize, r.rows);
            assert!(r.t_prepared > 0.0 && r.t_profiled > 0.0);
        }
        print_profile(&rows);
        // Amending BENCH_engine.json must not confuse the bench-check scrape.
        let path = std::env::temp_dir().join("BENCH_engine_profile_test.json");
        let pipeline_rows = vec![EnginePipelineRow {
            query: 3,
            plan_ops: 5,
            rows: 10,
            t_compiled: 0.02,
            t_vectorized: 0.01,
            t_prepared: 0.008,
        }];
        write_engine_bench_json(&path, &pipeline_rows).expect("writes");
        append_profile_json(&path, &rows).expect("amends");
        // Amending twice replaces the operators section instead of stacking.
        append_profile_json(&path, &rows).expect("amends again");
        let text = std::fs::read_to_string(&path).expect("reads back");
        assert_eq!(text.matches("\"operators\":").count(), 1);
        assert!(text.contains("\"self_ns\":"));
        let checks = bench_check(&path, 1.10).expect("parses");
        assert_eq!(checks.len(), 1, "operators section leaked into bench-check: {checks:?}");
        assert!((checks[0].compiled_wall - 0.02).abs() < 1e-9);
        // A standalone profile run (no pipeline file) creates a valid doc.
        let _ = std::fs::remove_file(&path);
        append_profile_json(&path, &rows).expect("creates");
        let text = std::fs::read_to_string(&path).expect("reads back");
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert_eq!(bench_check(&path, 1.10).expect("parses").len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ablation_shows_no_cost_gap() {
        let r = or_split_ablation(0.001, 0.0001, 0.02);
        // The paper reports plan costs "thousands of times higher" for the
        // direct translation, whose OR .. IS NULL conditions defeat an
        // optimizer's hash joins. Here they are null-aware hash keys, priced
        // like any hash join: the unsplit translation must cost about what
        // the original query does.
        assert!(
            r.unsplit_estimated_cost < 2.0 * r.original_estimated_cost,
            "unsplit {} vs original {}",
            r.unsplit_estimated_cost,
            r.original_estimated_cost
        );
        assert!(r.split_time_tiny > 0.0 && r.unsplit_time_tiny > 0.0);
        print_ablation(&r);
    }
}
