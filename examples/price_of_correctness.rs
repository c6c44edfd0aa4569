//! The price of correctness: how much slower (or faster) are the rewritten
//! queries? A miniature Figure 4.
//!
//! Run with `cargo run --release --example price_of_correctness`.

use certus::tpch::{query_by_number, Workload};
use certus::{Certainty, Session};
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
    let params = workload.params(&db, 0);
    println!("TPC-H micro-instance: {} tuples, 2% null rate\n", db.total_tuples());
    let session = Session::new(db);

    println!("{:>5} {:>12} {:>12} {:>10} {:>10}", "query", "t(Q) s", "t(Q+) s", "ratio", "answers");
    for q in 1..=4 {
        let expr = query_by_number(q, &params).expect("query exists");
        // Both sides take the same road — rewrite passes, planner, compiled
        // once — so the ratio is the one the system delivers.
        let plain = session.prepare(&expr, Certainty::Plain).expect("plans");
        let certain = session.prepare(&expr, Certainty::CertainPlus).expect("plans");
        let t_orig = time_it(|| {
            session.execute_prepared(&plain).expect("runs");
        });
        let t_plus = time_it(|| {
            session.execute_prepared(&certain).expect("runs");
        });
        let answers = session.execute_prepared(&certain).expect("runs").len();
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
