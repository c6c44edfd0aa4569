//! Paper benchmarks, one group per paper artefact, plus the planner
//! ablation. Runs under `cargo bench` with `harness = false` — the container
//! has no crates.io access, so instead of criterion this uses the workspace's
//! own timing utilities and prints a compact mean/min report per case.
//!
//! * `fig1_false_positive_detection` — the Section 4 pipeline (run a query,
//!   detect false positives) at a fixed null rate.
//! * `fig4_price_of_correctness` — original vs translated queries (Figure 4).
//! * `table1_scaling` — translated Q3 at growing scale factors (Table 1's
//!   stability claim).
//! * `sec5_fig2_translation` — the Figure 2 translation vs Q⁺ (Section 5).
//! * `ablation_or_split` — unsplit vs split translated Q4 (Section 7
//!   discussion).
//! * `planner_on_off` — raw translations vs the full rewrite-pass pipeline.

use certus_algebra::NullSemantics;
use certus_bench::timing::time_mean;
use certus_core::{translate_plus, CertainRewriter, ConditionDialect};
use certus_engine::{Engine, EngineConfig};
use certus_plan::Planner;
use certus_tpch::fp_detect::count_false_positives;
use certus_tpch::{query_by_number, Workload};
use std::time::Instant;

const REPS: usize = 5;

fn serial_engine(db: &certus_data::Database) -> Engine<'_> {
    Engine::configured(db, NullSemantics::Sql, EngineConfig::serial())
}

struct Reporter {
    group: &'static str,
}

impl Reporter {
    fn group(name: &'static str) -> Reporter {
        println!("\n== bench group: {name} ==");
        Reporter { group: name }
    }

    fn bench<T>(&self, case: &str, mut f: impl FnMut() -> T) {
        // One warm-up, then REPS measured runs; report mean and min.
        f();
        let mut times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed().as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("{:<28} {:>30}  mean {:>12.6}s  min {:>12.6}s", self.group, case, mean, min);
    }
}

fn prepared(
    scale: f64,
    null_rate: f64,
    seed: u64,
) -> (certus_data::Database, certus_tpch::QueryParams) {
    let w = Workload::new(scale, null_rate, seed);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    (db, params)
}

fn fig1_false_positive_detection() {
    let (db, params) = prepared(0.0004, 0.05, 1);
    let engine = serial_engine(&db);
    let r = Reporter::group("fig1_false_positive_detection");
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).unwrap();
        r.bench(&format!("Q{q}"), || {
            let answers = engine.execute(&expr).unwrap();
            count_false_positives(q, &db, &params, &answers)
        });
    }
}

fn fig4_price_of_correctness() {
    let (db, params) = prepared(0.0008, 0.02, 2);
    let engine = serial_engine(&db);
    let rewriter = CertainRewriter::new();
    let r = Reporter::group("fig4_price_of_correctness");
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).unwrap();
        let plus = rewriter.rewrite_plus(&expr, &db).unwrap();
        r.bench(&format!("Q{q}_original"), || engine.execute(&expr).unwrap());
        r.bench(&format!("Q{q}_certain"), || engine.execute(&plus).unwrap());
    }
}

fn table1_scaling() {
    let r = Reporter::group("table1_scaling");
    for scale in [0.0005, 0.001, 0.002] {
        let (db, params) = prepared(scale, 0.02, 3);
        let engine = serial_engine(&db);
        let rewriter = CertainRewriter::new();
        let q3 = certus_tpch::q3(&params);
        let plus = rewriter.rewrite_plus(&q3, &db).unwrap();
        r.bench(&format!("Q3_original/{scale}"), || engine.execute(&q3).unwrap());
        r.bench(&format!("Q3_certain/{scale}"), || engine.execute(&plus).unwrap());
    }
}

fn sec5_fig2_translation() {
    use certus_algebra::builder::eq_const;
    use certus_algebra::RaExpr;
    use certus_data::builder::rel;
    use certus_data::{Database, Value};
    let mut db = Database::new();
    let rows =
        |o: i64| (0..32).map(|i| vec![Value::Int(o + i), Value::Int(i % 9)]).collect::<Vec<_>>();
    db.insert_relation("r", rel(&["a", "b"], rows(0)));
    db.insert_relation("s", rel(&["a", "b"], rows(5)));
    db.insert_relation("t", rel(&["a", "b"], rows(11)));
    let q = RaExpr::relation("r").difference(
        RaExpr::relation("t")
            .project(&["a", "b"])
            .difference(RaExpr::relation("s").select(eq_const("b", 3i64))),
    );
    let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
    let fig2 = certus_core::naive_translation::translate_t(&q, &db, ConditionDialect::Sql).unwrap();
    let engine = serial_engine(&db);
    let r = Reporter::group("sec5_fig2_translation");
    r.bench("improved_Q_plus", || engine.execute(&plus).unwrap());
    r.bench("figure2_Qt", || engine.execute(&fig2).unwrap());
}

fn ablation_or_split() {
    let (db, params) = prepared(0.0002, 0.02, 4);
    let engine = serial_engine(&db);
    let q4 = certus_tpch::q4(&params);
    let unsplit = CertainRewriter::unoptimized().rewrite_plus(&q4, &db).unwrap();
    let split = CertainRewriter::new().rewrite_plus(&q4, &db).unwrap();
    let r = Reporter::group("ablation_or_split");
    r.bench("Q4_original", || engine.execute(&q4).unwrap());
    r.bench("Q4_plus_unsplit", || engine.execute(&unsplit).unwrap());
    r.bench("Q4_plus_split", || engine.execute(&split).unwrap());
}

fn planner_on_off() {
    let (db, params) = prepared(0.002, 0.02, 5);
    let engine = serial_engine(&db);
    let raw_rewriter = CertainRewriter::unoptimized();
    let planner = Planner::new();
    let r = Reporter::group("planner_on_off");
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).unwrap();
        let raw = raw_rewriter.rewrite_plus(&expr, &db).unwrap();
        let planned = planner.optimize(&raw, &db).unwrap();
        r.bench(&format!("Q{q}_plus_pipeline_off"), || engine.execute(&raw).unwrap());
        r.bench(&format!("Q{q}_plus_pipeline_on"), || engine.execute(&planned).unwrap());
    }
}

fn main() {
    // `cargo bench` passes flags like --bench; a `--quick` anywhere trims reps
    // implicitly by running the cheap groups only.
    let quick = std::env::args().any(|a| a == "--quick");
    let t = time_mean(1, || {
        fig1_false_positive_detection();
        fig4_price_of_correctness();
        if !quick {
            table1_scaling();
            sec5_fig2_translation();
            ablation_or_split();
            planner_on_off();
        }
    });
    println!("\ntotal bench wall time: {t:.2}s");
}
