//! `tpch-prepared`: a local session executes Q1–Q4, prepared once as written
//! and once as certain-answer queries, in a fixed interleaving.
//!
//! The engine does nearly all the work here (preparing the eight queries
//! takes a millisecond, one cycle through them 170 ms): this is the paper's
//! Figure 4 / Table 1 workload. It bypasses the server, the WAL and, after
//! set-up, translation and planning — a planner or translation change
//! predicts no move here, an engine change does.

use super::layers::{self, ChainPlan};
use super::{
    fingerprint, fingerprint_of, generate, push_end_to_end, push_instance_layers, push_trace,
    reference_check, set_up_repeatedly, tpch_classes, traced_round, Class, Data, Fingerprint, Rng,
    RunConfig, CERT, PAIRS, PLAIN, Q1, Q1P, Q2, Q2P, Q3, Q3P, Q4, Q4P, SCALE, SCALE_ADHOC,
    WARMUP_EXECUTIONS,
};
use crate::env::{peak_rss_mb, reset_peak_rss};
use crate::report::RunResult;
use crate::samples::{ops_per_s, RoundClock, Samples};
use crate::stats::{geomean, Agg};
use crate::trace::{self, Tracer};
use certus::engine::EngineConfig;
use certus::{Database, PreparedQuery, Session};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often one process sets the workload up (`setup_s` is the median: one
/// set-up per run left the figure to a single page-in or slow second).
const SET_UPS: usize = 3;

/// One cycle: each of the four expensive executions is followed by the
/// cheap ones, so every query runs next to every other (the `Q⁺`/`Q` ratio
/// survives machine drift) and the 0.2 ms class collects eight samples per
/// cycle, so a round's median rests on a few hundred. Each cheap pair runs in both
/// orders, so neither twin always runs on the warmer cache. `--seed` decides
/// the order of the four slots; the work in a cycle is the same for all.
fn cycle(seed: u64) -> Vec<usize> {
    let mut slots = [
        [Q1, Q2, Q2P, Q3, Q3P, Q2P, Q2],
        [Q1P, Q2P, Q2, Q3P, Q3, Q2, Q2P],
        [Q4, Q2, Q2P, Q3, Q3P, Q2P, Q2],
        [Q4P, Q2P, Q2, Q3P, Q3, Q2, Q2P],
    ];
    Rng::new(seed).shuffle(&mut slots);
    slots.concat()
}

struct SetUp {
    data_ms: (f64, f64),
    db: Arc<Database>,
    session: Session,
    classes: Vec<Class>,
    prepared: Vec<PreparedQuery>,
    /// Cold `Session::prepare` per class, microseconds.
    prepare_us: Vec<f64>,
}

/// dbgen, null injection, session build, prepare ×8, warm-up by count.
fn set_up() -> SetUp {
    let Data { workload, db, dbgen_ms, inject_ms } = generate(SCALE, 0);
    let classes = tpch_classes(&workload.params(&db, 0));
    let db = Arc::new(db);
    // One engine thread: medians measure the program, not the scheduler.
    let session = Session::builder_over(db.clone()).threads(1).build();
    let mut prepare_us = Vec::new();
    let prepared: Vec<PreparedQuery> = classes
        .iter()
        .map(|class| {
            let t = Instant::now();
            let prepared = session.prepare(&class.query, class.certainty).expect("prepare");
            prepare_us.push(t.elapsed().as_secs_f64() * 1e6);
            prepared
        })
        .collect();
    for query in &prepared {
        for _ in 0..WARMUP_EXECUTIONS {
            black_box(session.execute_prepared(query).expect("warm-up execution"));
        }
    }
    SetUp { data_ms: (dbgen_ms, inject_ms), db, session, classes, prepared, prepare_us }
}

/// The expected answer of every class, after checking it. The reference
/// evaluator needs 40 s for these eight queries at this scale (the package's
/// tests spend them), so a run checks the classes against it on the small
/// instance, and at this scale against the engine's other execution path
/// (row-at-a-time if the run is vectorized, and the reverse).
fn expectations(s: &SetUp) -> Result<Vec<Fingerprint>, String> {
    reference_check(SCALE_ADHOC, |d| tpch_classes(&d.workload.params(&d.db, 0)))?;
    let under_test = s.session.config().clone();
    let other_path = Session::builder_over(s.db.clone())
        .config(EngineConfig { vectorized: !under_test.vectorized, ..under_test })
        .build();
    s.classes
        .iter()
        .zip(&s.prepared)
        .map(|(class, prepared)| {
            let answers = s.session.execute_prepared(prepared).map_err(|e| e.to_string())?;
            let other =
                other_path.execute(&class.query, class.certainty).map_err(|e| e.to_string())?;
            if answers.relation().sorted().tuples() != other.relation().sorted().tuples() {
                return Err(format!("{}: vectorized and row-at-a-time answers differ", class.name));
            }
            Ok(fingerprint_of(&answers))
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let mut result = cfg.result("tpch-prepared", SCALE);
    let cycle = cycle(cfg.seed);
    result.note(format!(
        "local Session, heuristic planner, 1 engine thread, 1 caller; cycle of {} executions; \
         warm-up {WARMUP_EXECUTIONS} executions per class; {SET_UPS} set-ups per run",
        cycle.len()
    ));

    let mut data_ms = Vec::new();
    let (s, setup_s) = set_up_repeatedly(
        SET_UPS,
        |_| {
            let s = set_up();
            data_ms.push(s.data_ms);
            s
        },
        drop,
    );
    let expected = match expectations(&s) {
        Ok(expected) => expected,
        Err(why) => return result.fail_set_up(&why),
    };

    let names: Vec<&'static str> = s.classes.iter().map(|c| c.name).collect();
    let mut samples = Samples::new(names);
    let config = s.session.config().clone();

    // Traced run: the explicit chain `Session::prepare` wraps, whose compiled
    // plans the traced rounds execute through `Engine::execute_compiled`.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let chains: Vec<ChainPlan> = if cfg.traced {
        let mut scratch = Tracer::new(epoch, 1);
        s.classes
            .iter()
            .zip(&expected)
            .map(|(class, want)| {
                let chain = layers::chain_prepare(&s.db, class, &mut scratch, 0, 0);
                let answer = layers::chain_execute(
                    &s.db,
                    &config,
                    &chain.compiled,
                    class.name,
                    &mut scratch,
                    0,
                    0,
                );
                assert_eq!(
                    fingerprint(&answer),
                    *want,
                    "{}: chain and Session disagree",
                    class.name
                );
                chain
            })
            .collect()
    } else {
        Vec::new()
    };

    reset_peak_rss();
    let mut clock = RoundClock::start(Duration::from_secs(cfg.seconds));
    let mut op = 0u64;
    loop {
        let round = clock.round();
        let traced = traced_round(cfg, round);
        for &class in &cycle {
            op += 1;
            let t = Instant::now();
            let (ms, got) = if traced {
                let name = s.classes[class].name;
                let root = tracer.begin("op", name, 0, op);
                let answer = layers::chain_execute(
                    &s.db,
                    &config,
                    &chains[class].compiled,
                    name,
                    &mut tracer,
                    root,
                    op,
                );
                tracer.end(root);
                (t.elapsed().as_secs_f64() * 1e3, fingerprint(&answer))
            } else {
                let answers = s.session.execute_prepared(&s.prepared[class]).expect("execution");
                (t.elapsed().as_secs_f64() * 1e3, fingerprint_of(&answers))
            };
            result.attempted += 1;
            if got == expected[class] {
                samples.push(class, round, ms);
            } else {
                result.failed += 1;
            }
        }
        if !clock.tick(cycle.len() as u64) {
            break;
        }
    }

    let cert_ms_geomean = samples.geomean_of_medians(&CERT);
    if !cfg.traced {
        let rate = ops_per_s(&clock.ops, &clock.seconds);
        push_end_to_end(&mut result, setup_s, cert_ms_geomean, rate, peak_rss_mb());
    }
    // The end-to-end metrics of the local workloads only.
    result.push("plain_ms_geomean", samples.geomean_of_medians(&PLAIN));
    result.push("price_of_correctness", samples.geomean_of_ratios(&PAIRS));
    result.push("q4_cert_ms_p50", samples.class_median(Q4P));
    if !cfg.traced {
        return result;
    }

    // Per-layer figures.
    let spans = tracer.into_spans();
    let selfs = trace::self_times_by_name(&spans);
    let cert = CERT;
    for (class, metric) in cert.iter().zip(["q1p", "q2p", "q3p", "q4p"]) {
        let ns = &selfs[&("engine.execute", s.classes[*class].name)];
        result.push(&format!("engine.execute_ms.{metric}"), Agg::of_samples(ns).scaled(1e-6));
    }
    result.push(
        "bench.layer_coverage",
        Agg::exact(trace::layer_coverage(&spans), spans.len() as u64),
    );
    push_instance_layers(&mut result, &s.db, &data_ms);
    let nl: u64 = cert.iter().map(|&c| layers::nl_nodes(&chains[c].physical)).sum();
    result.push("plan.nl_nodes", Agg::exact(nl as f64, 4));
    let hard: Vec<&Class> = vec![&s.classes[Q3P], &s.classes[Q4P]];
    result.push("plan.est_act_max_ratio", layers::est_act_max_ratio(&s.session, &hard));

    let cert_prepared: Vec<&PreparedQuery> = cert.iter().map(|&c| &s.prepared[c]).collect();
    let profile = layers::operator_profile(&s.session, &cert_prepared);
    result.push("engine.nl_join_self_share", Agg::exact(profile.nl_join_self_share, 4));
    result.push("engine.hash_self_share", Agg::exact(profile.hash_self_share, 4));
    result.push("engine.fused_self_share", Agg::exact(profile.fused_self_share, 4));
    result.push("engine.rows_examined_per_answer", Agg::exact(profile.rows_examined_per_answer, 4));
    result.push("engine.row_fallbacks", Agg::exact(profile.row_fallbacks as f64, 4));
    result.push(
        "obs.profiled_overhead_pct",
        layers::profiled_overhead_pct(&s.session, &cert_prepared, 7),
    );

    let exec = layers::exec_metrics(&s.db, &s.classes[Q4P], cfg.c);
    result.push("exec.scope_overhead_us", exec.scope_overhead_us);
    match exec.parallel_speedup {
        Some(speedup) => result.push("exec.parallel_speedup_q4", speedup),
        None => result.note("exec.parallel_speedup_q4: not measurable with fewer than 2 cores"),
    }
    result.push("exec.tasks_stolen", Agg::exact(exec.tasks_stolen as f64, 1));
    result.push("data.to_batches_ms", layers::to_batches_ms(&s.db));

    // Preparing is paid once here: its share of a certain-answer execution.
    let cold: Vec<f64> = cert.iter().map(|&c| s.prepare_us[c]).collect();
    result.push("certus.prepare_cold_us", Agg::exact(geomean(&cold), 4));
    let prepare_us: f64 = cold.iter().sum();
    let execute_us: f64 = cert.iter().map(|&c| samples.class_median(c).value * 1e3).sum();
    result.push("certus.prepare_share", Agg::exact(prepare_us / (prepare_us + execute_us), 4));

    push_trace(&mut result, cfg, &samples, &cert, &spans);
    result
}
