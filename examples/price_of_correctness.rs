//! The price of correctness: how much slower (or faster) are the rewritten
//! queries? A miniature Figure 4.
//!
//! Run with `cargo run --release --example price_of_correctness`.

use certus::tpch::{query_by_number, Workload};
use certus::{CertainRewriter, Engine, EngineConfig, NullSemantics};
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
}
