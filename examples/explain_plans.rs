//! What the certain-answer rewriting does to a plan. The translation turns
//! every equality into `A = B OR A IS NULL [OR B IS NULL]` — the shape that
//! confuses the paper's optimizer into nested loops — and the planner reads
//! those as *null-aware hash keys*. Prints the `EXPLAIN` trees of query Q4
//! and of its translation Q⁺4 — the plans the session executes, with
//! statistics-backed row/cost estimates, the chosen join algorithm per node
//! and null-aware keys marked `| <column> null matches` — for a serial and
//! for a 4-thread session. Under the `NOT EXISTS` only existence matters:
//! the joins whose right columns nobody reads are planned, shown and run as
//! `HashSemiJoin`s, in Q4 and Q⁺4 alike. The key lookup on `nation` goes
//! into the join input it reads, `supplier`; then nothing reads
//! `s_nationkey` above the join with `supplier` either, and it is a
//! semijoin of `lineitem` over `supplier ⋉ nation`: no `HashJoin` is left.
//!
//! Run with `cargo run --release --example explain_plans`.

use certus::tpch::{q4, Workload};
use certus::{Certainty, Session};

fn main() {
    let workload = Workload::new(0.001, 0.02, 99);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    let query = q4(&params);

    // Explicitly serial, so the first two trees carry no exchange operators
    // whatever CERTUS_THREADS / the core count says — the contrast with the
    // 4-thread session below is the point of this example.
    let session = Session::builder(db).threads(1).build();

    println!("=== Original Q4 ===");
    println!("{}", session.explain(&query, Certainty::Plain).expect("plans"));

    println!("=== Translation Q4+ (its OR .. IS NULL conditions are null-aware hash keys) ===");
    println!("{}", session.explain(&query, Certainty::CertainPlus).expect("plans"));

    // The same queries, explained by a 4-thread session: an `Exchange x4`
    // marks every site the engine may fan out — a hash operator's build side
    // (the probe then runs in morsels), a filter's input, a union's arms.
    // Whether it does is decided at run time, on the rows that actually
    // arrive. Nothing else differs from the serial trees.
    let parallel = Session::builder(session.into_database()).threads(4).build();
    println!("=== Original Q4, planned for 4 worker threads ===");
    println!("{}", parallel.explain(&query, Certainty::Plain).expect("plans"));
    println!("=== Translation Q4+, planned for 4 worker threads ===");
    println!("{}", parallel.explain(&query, Certainty::CertainPlus).expect("plans"));
}
