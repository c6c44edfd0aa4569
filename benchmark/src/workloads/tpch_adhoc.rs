//! `tpch-adhoc`: every operation prepares a query it has not just seen and
//! executes it once, on an instance small enough (~800 tuples) that
//! translating, rewriting, planning and compiling a certain-answer query costs
//! about what running it does.
//!
//! Translation (`core`), the rewrite passes and physical planning (`plan`)
//! and operator compilation (`engine`) are about half of an operation here
//! and under 1% on `tpch-prepared`: a planner or translation change moves
//! this workload and predicts no change there; an engine change the reverse.

use super::layers::{self, ChainPlan};
use super::{
    check_against_reference, fingerprint, fingerprint_of, generate, push_end_to_end,
    push_instance_layers, push_trace, set_up_repeatedly, tpch_classes, traced_round, Class, Data,
    Fingerprint, Rng, RunConfig, CERT, PAIRS, PLAIN, SCALE_ADHOC, WARMUP_EXECUTIONS,
};
use crate::env::{peak_rss_mb, reset_peak_rss};
use crate::report::RunResult;
use crate::samples::{ops_per_s, RoundClock, Samples};
use crate::stats::{geomean, median, Agg};
use crate::trace::{self, Tracer};
use certus::{Database, Session};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up takes a tenth of a second here, so its median can afford more
/// repetitions than on the larger instance.
const SET_UPS: usize = 9;
/// Parameter sets the operations rotate through. With a plan cache of one
/// entry and eight classes per set, no prepare ever finds its plan cached.
const PARAM_SETS: usize = 16;
/// Classes per parameter set: Q1–Q4, as written and as `Q⁺`, alternating.
const CLASSES: usize = 8;

struct SetUp {
    data_ms: (f64, f64),
    db: Arc<Database>,
    session: Session,
    /// `classes[set][class]`.
    classes: Vec<Vec<Class>>,
}

/// dbgen, null injection, parameter draws, session build, warm-up by count.
fn set_up() -> SetUp {
    let Data { workload, db, dbgen_ms, inject_ms } = generate(SCALE_ADHOC, 0);
    let classes: Vec<Vec<Class>> =
        (0..PARAM_SETS).map(|i| tpch_classes(&workload.params(&db, i as u64))).collect();
    let db = Arc::new(db);
    let session = Session::builder_over(db.clone()).threads(1).cache_capacity(1).build();
    for i in 0..WARMUP_EXECUTIONS {
        for class in &classes[i % PARAM_SETS] {
            let prepared = session.prepare(&class.query, class.certainty).expect("prepare");
            black_box(session.execute_prepared(&prepared).expect("warm-up execution"));
        }
    }
    SetUp { data_ms: (dbgen_ms, inject_ms), db, session, classes }
}

/// Every (parameter set, class) answer checked, as sorted rows, against the
/// reference evaluator — affordable at this scale — and fingerprinted.
fn expectations(s: &SetUp) -> Result<Vec<Vec<Fingerprint>>, String> {
    s.classes
        .iter()
        .map(|set| {
            set.iter()
                .map(|class| {
                    let answers = s
                        .session
                        .execute(&class.query, class.certainty)
                        .map_err(|e| e.to_string())?;
                    check_against_reference(&s.db, class, answers.relation())?;
                    Ok(fingerprint_of(&answers))
                })
                .collect()
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let mut result = cfg.result("tpch-adhoc", SCALE_ADHOC);
    result.note(format!(
        "local Session, heuristic planner, 1 engine thread, 1 caller, plan cache of 1 entry; \
         each operation is prepare + execute_prepared; {PARAM_SETS} parameter sets x {CLASSES} \
         classes in rotation; warm-up {WARMUP_EXECUTIONS} operations per class; {SET_UPS} set-ups per run"
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

    let names: Vec<&'static str> = s.classes[0].iter().map(|c| c.name).collect();
    // Twice what a round holds at the usual 2500 operations a second.
    let room = 2 * 2500 * cfg.seconds as usize / (CLASSES * crate::samples::ROUNDS);
    let mut op_ms = Samples::with_room(names.clone(), room);
    let mut prepare_ms = Samples::with_room(names, room);
    let config = s.session.config().clone();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let cache_before = s.session.cache_stats();
    let mut session_ops = 0u64;

    reset_peak_rss();
    // `--seed` decides the order the parameter sets are visited in; a lap
    // through them is the same work for every seed.
    let mut order: Vec<usize> = (0..PARAM_SETS).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    let mut clock = RoundClock::start(Duration::from_secs(cfg.seconds));
    let mut op = 0u64;
    let mut lap = 0usize;
    loop {
        let set = order[lap % PARAM_SETS];
        let round = clock.round();
        // The untraced rounds of a traced run go through `Session::prepare`:
        // the baseline for the tracing overhead. The traced rounds run the
        // explicit chain the session wraps, stage by stage under spans.
        let traced = traced_round(cfg, round);
        for (c, class) in s.classes[set].iter().enumerate() {
            op += 1;
            let t = Instant::now();
            let (prepared_at, done_at, got) = if traced {
                let root = tracer.begin("op", class.name, 0, op);
                let plan = layers::chain_prepare(&s.db, class, &mut tracer, root, op);
                let prepared_at = t.elapsed();
                let answer = layers::chain_execute(
                    &s.db,
                    &config,
                    &plan.compiled,
                    class.name,
                    &mut tracer,
                    root,
                    op,
                );
                tracer.end(root);
                (prepared_at, t.elapsed(), fingerprint(&answer))
            } else {
                session_ops += 1;
                let prepared = s.session.prepare(&class.query, class.certainty).expect("prepare");
                let prepared_at = t.elapsed();
                let answers = s.session.execute_prepared(&prepared).expect("execution");
                (prepared_at, t.elapsed(), fingerprint_of(&answers))
            };
            result.attempted += 1;
            if got == expected[set][c] {
                op_ms.push(c, round, done_at.as_secs_f64() * 1e3);
                prepare_ms.push(c, round, prepared_at.as_secs_f64() * 1e3);
            } else {
                result.failed += 1;
            }
        }
        lap += 1;
        if !clock.tick(CLASSES as u64) {
            break;
        }
    }

    // The workload's premise: no prepare was served from the plan cache.
    let cache = s.session.cache_stats();
    let (misses, hits) = (cache.misses - cache_before.misses, cache.hits - cache_before.hits);
    assert_eq!((misses, hits), (session_ops, 0), "every Session::prepare must miss the plan cache");

    if !cfg.traced {
        let rate = ops_per_s(&clock.ops, &clock.seconds);
        let cert_ms_geomean = op_ms.geomean_of_medians(&CERT);
        push_end_to_end(&mut result, setup_s, cert_ms_geomean, rate, peak_rss_mb());
    }
    // The end-to-end metrics of the local workloads only, and of this one.
    result.push("plain_ms_geomean", op_ms.geomean_of_medians(&PLAIN));
    result.push("price_of_correctness", op_ms.geomean_of_ratios(&PAIRS));
    result.push("prepare_ms_geomean", prepare_ms.geomean_of_medians(&CERT));
    if !cfg.traced {
        return result;
    }

    // Per-layer figures: for each stage of the chain, the geometric mean
    // over the four certain-answer classes of its median self time.
    let spans = tracer.into_spans();
    let selfs = trace::self_times_by_name(&spans);
    let stage_us = |stage: &'static str| -> Agg {
        let medians: Vec<f64> =
            CERT.iter().map(|&c| median(&selfs[&(stage, s.classes[0][c].name)]) * 1e-3).collect();
        let n = CERT.iter().map(|&c| selfs[&(stage, s.classes[0][c].name)].len() as u64).sum();
        Agg::exact(geomean(&medians), n)
    };
    result.push("core.translate_us", stage_us("core.translate"));
    result.push("plan.passes_us", stage_us("plan.passes"));
    result.push("plan.physical_us", stage_us("plan.physical"));
    result.push("engine.compile_us", stage_us("engine.compile"));
    result.push(
        "bench.layer_coverage",
        Agg::exact(trace::layer_coverage(&spans), spans.len() as u64),
    );

    let mut scratch = Tracer::new(Instant::now(), 1);
    let chains: Vec<ChainPlan> = CERT
        .iter()
        .map(|&c| layers::chain_prepare(&s.db, &s.classes[0][c], &mut scratch, 0, 0))
        .collect();
    let sum = |f: fn(&ChainPlan) -> usize| chains.iter().map(f).sum::<usize>() as f64;
    result.push(
        "core.plus_nodes_ratio",
        Agg::exact(sum(|c| c.nodes_raw) / sum(|c| c.nodes_query), 4),
    );
    result.push("plan.pass_rounds", Agg::exact(sum(|c| c.pass_rounds), 4));
    result.push("plan.nodes_after_passes", Agg::exact(sum(|c| c.nodes_after_passes), 4));

    let cert_classes: Vec<&Class> = CERT.iter().map(|&c| &s.classes[0][c]).collect();
    result.push("plan.physical_costbased_us", layers::physical_costbased_us(&s.db, &cert_classes));
    let (_, hit) = layers::prepare_cold_hit_us(&s.db, &cert_classes);
    // Cold prepares are what round 0 measured, through the session.
    let cold_us: Vec<f64> =
        CERT.iter().filter_map(|&c| prepare_ms.round_median(c, 0)).map(|ms| ms * 1e3).collect();
    result.push("certus.prepare_cold_us", Agg::exact(geomean(&cold_us), op_ms.in_round(0) / 2));
    result.push("certus.prepare_hit_us", hit);
    // Time-weighted over the four classes: all prepares over all operations.
    let sum = |samples: &Samples| CERT.iter().map(|&c| samples.class_median(c).value).sum::<f64>();
    result.push("certus.prepare_share", Agg::exact(sum(&prepare_ms) / sum(&op_ms), op_ms.total()));

    let cert_prepared: Vec<_> = cert_classes
        .iter()
        .map(|c| s.session.prepare(&c.query, c.certainty).expect("prepare"))
        .collect();
    let by_ref: Vec<_> = cert_prepared.iter().collect();
    result
        .push("obs.profiled_overhead_pct", layers::profiled_overhead_pct(&s.session, &by_ref, 200));

    push_instance_layers(&mut result, &s.db, &data_ms);
    push_trace(&mut result, cfg, &op_ms, &CERT, &spans);
    result
}
