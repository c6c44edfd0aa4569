//! The price of correctness: how much slower (or faster) are the rewritten
//! queries? A miniature Figure 4, followed by the planner-on/off ablation
//! (raw translations vs the rewrite-pass pipeline's output).
//!
//! Run with `cargo run --release --example price_of_correctness`.

use certus::tpch::{query_by_number, Workload};
use certus::{CertainRewriter, Engine, EngineConfig, NullSemantics};
use certus_bench::experiments::{
    parallel_scaling, planner_on_off, prepared_execution, print_parallel_scaling,
    print_planner_on_off, print_prepared,
};
use std::time::Instant;

fn time_it(mut f: impl FnMut()) -> f64 {
    // One warm-up run, then the mean of three measured runs.
    f();
    let start = Instant::now();
    for _ in 0..3 {
        f();
    }
    start.elapsed().as_secs_f64() / 3.0
}

fn main() {
    let workload = Workload::new(0.001, 0.02, 7);
    let db = workload.incomplete_instance();
    let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::default());
    let rewriter = CertainRewriter::new();
    let params = workload.params(&db, 0);

    println!("TPC-H micro-instance: {} tuples, 2% null rate\n", db.total_tuples());
    println!("{:>5} {:>12} {:>12} {:>10} {:>10}", "query", "t(Q) s", "t(Q+) s", "ratio", "answers");
    for q in 1..=4 {
        let expr = query_by_number(q, &params).expect("query exists");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translation succeeds");
        let t_orig = time_it(|| {
            engine.execute(&expr).expect("runs");
        });
        let t_plus = time_it(|| {
            engine.execute(&plus).expect("runs");
        });
        let answers = engine.execute(&plus).expect("runs").len();
        println!(
            "{:>5} {:>12.5} {:>12.5} {:>10.3} {:>10}",
            format!("Q{q}"),
            t_orig,
            t_plus,
            t_plus / t_orig.max(1e-9),
            answers
        );
    }
    println!("\nRatios near 1 mean correctness is almost free; Q2's ratio is far below 1");
    println!("because the rewriting detects early that the certain answer is empty.");

    println!();
    print_planner_on_off(&planner_on_off(0.001, 0.02, 7, 3));
    println!("\nThe 'off' column runs the raw translation; 'on' runs it through");
    println!("certus-plan's rewrite-pass pipeline. The translation's OR .. IS NULL");
    println!("conditions are null-aware hash keys, so neither column runs a nested");
    println!("loop; the pipeline's share is pruning, pushdown and the decorrelated");
    println!("NOT EXISTS chain of Q2+.");

    println!();
    print_parallel_scaling(&parallel_scaling(0.001, 0.02, 7, 1, &[1, 2, 4, 8]));
    println!("\nEach row runs the optimized Q3+/Q4+ with the engine's exchange operators");
    println!("fanned out to that many worker threads (CERTUS_THREADS overrides the");
    println!("default); speedups are relative to the single-thread row and depend on");
    println!("the machine's core count.");

    println!();
    let (rows, cache) = prepared_execution(0.001, 0.02, 7, 3);
    print_prepared(&rows, &cache);
    println!("\nThe per-call arm re-runs translation + rewrite passes + planning on every");
    println!("execution; the prepared arm plans once via Session::prepare and then only");
    println!("executes — the overhead column is the planning share a plan cache saves");
    println!("on repeated workload queries.");
}
