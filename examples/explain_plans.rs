//! What the certain-answer rewriting does to a plan. The translation turns
//! every equality into `A = B OR A IS NULL [OR B IS NULL]` — the shape that
//! confuses the paper's optimizer into nested loops — and the planner reads
//! those as *null-aware hash keys*. Prints `EXPLAIN` trees (with
//! statistics-backed row/cost estimates and the chosen join algorithm per
//! node, null-aware keys marked `| <column> null matches`) for query Q4 and
//! its translation through `Session::explain`, plus the raw (pipeline-off)
//! translation via the low-level planner API.
//!
//! Run with `cargo run --release --example explain_plans`.

use certus::core::rewriter::CertainRewriter;
use certus::plan::PhysicalPlanner;
use certus::tpch::{q4, Workload};
use certus::{Certainty, Session};

fn main() {
    let workload = Workload::new(0.001, 0.02, 99);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    let query = q4(&params);

    // The raw translation needs the low-level API: `Session` always runs the
    // rewrite-pass pipeline, which is exactly what this example ablates.
    let unsplit =
        CertainRewriter::unoptimized().rewrite_plus(&query, &db).expect("translation succeeds");

    // Explicitly serial, so the first three trees carry no exchange
    // operators whatever CERTUS_THREADS / the core count says — the contrast
    // with the 4-thread session below is the point of this example.
    let session = Session::builder(db).threads(1).build();

    println!("=== Original Q4 ===");
    println!("{}", session.explain(&query, Certainty::Plain).expect("plans"));

    println!(
        "=== Direct translation Q4+ (its OR .. IS NULL conditions are null-aware hash keys) ==="
    );
    let stats = session.statistics();
    let planner = PhysicalPlanner::new(session.database(), &stats);
    println!("{}", planner.explain(&unsplit).expect("plans"));

    println!("=== Optimized translation Q4+ (null checks on keys pruned, single-table conjuncts pushed down) ===");
    println!("{}", session.explain(&query, Certainty::CertainPlus).expect("plans"));

    // The same queries, explained by a 4-thread session: exchange operators
    // mark where hash-join builds are partitioned and union arms run
    // concurrently (only inputs clearing the planner's row threshold are
    // exchanged — Q4's lineitem build qualifies, tiny builds stay serial).
    let parallel = Session::builder(session.into_database()).threads(4).build();
    println!("=== Original Q4, planned for 4 worker threads ===");
    println!("{}", parallel.explain(&query, Certainty::Plain).expect("plans"));
    println!("=== Optimized translation Q4+, planned for 4 worker threads ===");
    println!("{}", parallel.explain(&query, Certainty::CertainPlus).expect("plans"));
}
