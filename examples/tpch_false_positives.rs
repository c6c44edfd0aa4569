//! How many wrong answers does SQL return on TPC-H with nulls?
//!
//! Generates a small TPC-H instance, injects nulls at increasing rates, runs
//! the paper's queries Q1–Q4 and reports the share of answers that the
//! Section 4 detectors prove to be false positives — a miniature Figure 1.
//!
//! Run with `cargo run --release --example tpch_false_positives`.

use certus::tpch::fp_detect::count_false_positives;
use certus::tpch::{query_by_number, Workload};
use certus::{Engine, EngineConfig, NullSemantics};

fn main() {
    println!("{:>9} {:>8} {:>8} {:>8} {:>8}", "null rate", "Q1", "Q2", "Q3", "Q4");
    for rate in [0.01, 0.02, 0.05, 0.10] {
        let workload = Workload::new(0.0005, rate, 42);
        let db = workload.incomplete_instance();
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::default());
        let params = workload.params(&db, 0);
        let mut cells = Vec::new();
        for q in 1..=4 {
            let expr = query_by_number(q, &params).expect("query exists");
            let answers = engine.execute(&expr).expect("query runs");
            if answers.is_empty() {
                cells.push("  (none)".to_string());
                continue;
            }
            let fp = count_false_positives(q, &db, &params, &answers);
            cells.push(format!("{:>7.1}%", 100.0 * fp as f64 / answers.len() as f64));
        }
        println!("{:>8.0}% {} {} {} {}", rate * 100.0, cells[0], cells[1], cells[2], cells[3]);
    }
    println!("\nEvery percentage above is a *lower bound* on the share of plain-wrong answers.");
}
