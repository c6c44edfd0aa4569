//! The four workloads and what they share: input generation from the seed,
//! the query classes, the correctness check, and repeated set-up.

pub mod layers;
pub mod served;
pub mod tpch_adhoc;
pub mod tpch_prepared;

use crate::env::Stamp;
use crate::report::RunResult;
use crate::samples::{Samples, ROUNDS};
use crate::stats::{median, Agg};
use crate::trace::{self, Span};
use certus::algebra::eval::eval;
use certus::data::inject::NullInjector;
use certus::tpch::{q1, q2, q3, q4, QueryParams, Workload};
use certus::{AnswerSet, CertainRewriter, Certainty, Database, NullSemantics, RaExpr, Relation};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["tpch-prepared", "tpch-adhoc", "served-read", "served-durable-mix"];

/// Null rate of every generated instance (the paper sweeps 0.5%–10%).
pub const NULL_RATE: f64 = 0.03;
/// Scale of the instance the engine-bound and served workloads run on
/// (~17k tuples).
pub const SCALE: f64 = 0.002;
/// Scale of the instance `tpch-adhoc` runs on (~800 tuples), small enough
/// that translating and planning a query costs about what running it does.
pub const SCALE_ADHOC: f64 = 0.0001;
/// Warm-up is by count, not by time: executions per query class.
pub const WARMUP_EXECUTIONS: usize = 20;

#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of the load generator (see [`DATA_SEED`] for what it leaves alone).
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Load-generator threads / connections, and server executors.
    pub c: usize,
    /// The benchmark package's directory (where `git` is asked for the commit).
    pub package_dir: PathBuf,
    /// Where result files, traces and the durable server's directory go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// An empty result for `workload`, stamped with this run's environment.
    pub fn result(&self, workload: &'static str, scale: f64) -> RunResult {
        let stamp = Stamp::gather(self, scale, NULL_RATE);
        RunResult::new(workload, self.traced, stamp)
    }
}

pub fn run(name: &str, cfg: &RunConfig) -> Option<RunResult> {
    match name {
        "tpch-prepared" => Some(tpch_prepared::run(cfg)),
        "tpch-adhoc" => Some(tpch_adhoc::run(cfg)),
        "served-read" => Some(served::run_read(cfg)),
        "served-durable-mix" => Some(served::run_durable_mix(cfg)),
        _ => None,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A generated incomplete TPC-H instance with the time its two steps took.
pub struct Data {
    pub workload: Workload,
    pub db: Database,
    pub dbgen_ms: f64,
    pub inject_ms: f64,
}

/// Seed of the TPC-H instance (dbgen and null injection) and of the query
/// parameters. A constant, not `--seed`: at these scales the instance decides
/// how hard the queries are — with 20 suppliers `$nation` has none, one or
/// three, so Q1 and Q4 cost twice as much under one dbgen seed as under
/// another, and whether the handful of rows a join hinges on carry a null
/// moves Q4⁺ by a tenth — and runs that differ only in `--seed`, which is how
/// a run is repeated, must measure the same work. `--seed` drives the load
/// generator: the order operations are issued in, the class each served
/// caller draws next, the rows the durable mix inserts.
pub const DATA_SEED: u64 = 42;

/// `Workload::new(scale, 0.03, DATA_SEED + instance).incomplete_instance()`
/// taken apart so that generation and null injection are timed separately
/// (a test asserts it is the same instance). `instance` 0 is the instance
/// the queries run on; 1 is the donor whose `lineitem` rows the durable mix
/// inserts.
pub fn generate(scale: f64, instance: u64) -> Data {
    let workload = Workload::new(scale, NULL_RATE, DATA_SEED + instance);
    let t = Instant::now();
    let complete = workload.complete_instance();
    let dbgen_ms = ms_since(t);
    let null_seed = workload.seed.wrapping_mul(31).wrapping_add(7);
    let t = Instant::now();
    let db = NullInjector::new(NULL_RATE, null_seed).inject(&complete);
    let inject_ms = ms_since(t);
    Data { workload, db, dbgen_ms, inject_ms }
}

/// One kind of operation a workload issues.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub query: RaExpr,
    pub certainty: Certainty,
}

impl Class {
    fn new(name: &'static str, query: RaExpr, certainty: Certainty) -> Class {
        Class { name, query, certainty }
    }
}

/// Q1–Q4 as written (`q1`…) and as certain-answer queries (`q1p`…), in the
/// order the local workloads index them: plain at `2k`, `Q⁺` at `2k + 1`.
pub fn tpch_classes(params: &QueryParams) -> Vec<Class> {
    let names = [("q1", "q1p"), ("q2", "q2p"), ("q3", "q3p"), ("q4", "q4p")];
    let queries = [q1(params), q2(params), q3(params), q4(params)];
    names
        .into_iter()
        .zip(queries)
        .flat_map(|((plain, cert), q)| {
            [
                Class::new(plain, q.clone(), Certainty::Plain),
                Class::new(cert, q, Certainty::CertainPlus),
            ]
        })
        .collect()
}

/// Indices into [`tpch_classes`].
pub const Q1: usize = 0;
pub const Q1P: usize = 1;
pub const Q2: usize = 2;
pub const Q2P: usize = 3;
pub const Q3: usize = 4;
pub const Q3P: usize = 5;
pub const Q4: usize = 6;
pub const Q4P: usize = 7;
/// The certain-answer classes of [`tpch_classes`].
pub const CERT: [usize; 4] = [Q1P, Q2P, Q3P, Q4P];

/// The plain classes, and each `Q⁺` with the `Q` it is the price of.
pub const PLAIN: [usize; 4] = [Q1, Q2, Q3, Q4];
pub const PAIRS: [(usize, usize); 4] = [(Q1P, Q1), (Q2P, Q2), (Q3P, Q3), (Q4P, Q4)];

/// Row count and an order-independent hash of an answer: what every answer
/// during measurement is compared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

pub fn fingerprint(rel: &Relation) -> Fingerprint {
    let hash = rel.iter().fold(0u64, |acc, tuple| {
        let mut h = DefaultHasher::new();
        tuple.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    Fingerprint { rows: rel.len() as u64, hash }
}

pub fn fingerprint_of(answers: &AnswerSet) -> Fingerprint {
    fingerprint(answers.relation())
}

/// Compare the engine's answer for `class`, as sorted rows, with the
/// reference evaluator in `certus_algebra::eval` — an independent
/// interpreter — run on the same translated expression.
pub fn check_against_reference(
    db: &Database,
    class: &Class,
    answer: &Relation,
) -> Result<(), String> {
    let expr = match class.certainty {
        Certainty::Plain => class.query.clone(),
        _ => CertainRewriter::new()
            .rewrite_plus(&class.query, db)
            .map_err(|e| format!("{}: translation failed: {e}", class.name))?,
    };
    let reference = eval(&expr, db, NullSemantics::Sql)
        .map_err(|e| format!("{}: reference evaluation failed: {e}", class.name))?;
    if reference.sorted().tuples() == answer.sorted().tuples() {
        Ok(())
    } else {
        Err(format!(
            "{}: engine answer ({} rows) differs from the reference evaluator's ({} rows)",
            class.name,
            answer.len(),
            reference.len()
        ))
    }
}

/// Check every class of `classes_of` on the instance of the given scale
/// against the reference evaluator. It is quadratic: at scale 0.0001 the
/// eight TPC-H classes take it a tenth of a second, which every run spends at
/// set-up; at 0.002 they take 40 s, which the package's tests spend.
pub fn reference_check(scale: f64, classes_of: impl Fn(&Data) -> Vec<Class>) -> Result<(), String> {
    let data = generate(scale, 0);
    let classes = classes_of(&data);
    let session = certus::Session::builder(data.db.clone()).threads(1).build();
    for class in &classes {
        let answers = session
            .execute(&class.query, class.certainty)
            .map_err(|e| format!("{}: {e}", class.name))?;
        check_against_reference(&data.db, class, answers.relation())?;
    }
    Ok(())
}

/// SplitMix64: the load generators' seeded random source (the workspace's
/// `rand` stand-in is not a dependency of this package).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What every untraced run reports: `setup_s`, `cert_ms_geomean`,
/// `ops_per_s`, `peak_rss_mb` (read when the measured interval ended) and
/// `failed_share`. Each workload adds the metrics only it produces.
pub fn push_end_to_end(
    result: &mut RunResult,
    setup_s: Agg,
    cert_ms_geomean: Agg,
    ops_per_s: Agg,
    peak_rss_mb: f64,
) {
    result.push("setup_s", setup_s);
    result.push("cert_ms_geomean", cert_ms_geomean);
    result.push("ops_per_s", ops_per_s);
    result.push("peak_rss_mb", Agg::exact(peak_rss_mb, 1));
    let failed_share = result.failed_share();
    result.push("failed_share", Agg::exact(failed_share, result.attempted));
}

/// What every traced run reports about its instance: generation and null
/// injection (medians over the run's set-ups) and `StatisticsCatalog::analyze`
/// — which no served metric moves with today (server sessions plan
/// heuristically); a move there would mean the server went cost-based.
pub fn push_instance_layers(result: &mut RunResult, db: &Database, data_ms: &[(f64, f64)]) {
    let dbgen: Vec<f64> = data_ms.iter().map(|d| d.0).collect();
    let inject: Vec<f64> = data_ms.iter().map(|d| d.1).collect();
    result.push("tpch.dbgen_ms", Agg::of_samples(&dbgen));
    result.push("tpch.inject_ms", Agg::of_samples(&inject));
    result.push("plan.stats_analyze_ms", layers::stats_analyze_ms(db));
}

/// Whether operations that start in `round` of a traced run are traced. The
/// even rounds stay untraced, as the baseline for the tracing overhead; the
/// two kinds alternate so that a table growing under the run (the durable
/// mix) weighs on both alike.
pub fn traced_round(cfg: &RunConfig, round: usize) -> bool {
    cfg.traced && round % 2 == 1
}

/// The end of a traced run: `bench.trace_overhead_pct` — the traced rounds'
/// `cert_ms_geomean` against the untraced rounds' — and the spans, written to
/// `trace-<workload>.jsonl`.
pub fn push_trace(
    result: &mut RunResult,
    cfg: &RunConfig,
    samples: &Samples,
    cert: &[usize],
    spans: &[Span],
) {
    let geomeans = |traced: bool| -> Vec<f64> {
        (0..ROUNDS)
            .filter(|&r| traced_round(cfg, r) == traced)
            .filter_map(|r| samples.round_geomean(cert, r))
            .collect()
    };
    let (untraced, traced) = (geomeans(false), geomeans(true));
    if !untraced.is_empty() && !traced.is_empty() {
        let overhead = (median(&traced) / median(&untraced) - 1.0) * 100.0;
        result.push("bench.trace_overhead_pct", Agg::exact(overhead, samples.total()));
    }
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", result.workload));
    trace::write_jsonl(&path, spans).expect("write the trace file");
    result.note(format!("{} spans written to {}", spans.len(), path.display()));
}

/// Set up `reps` times and keep the last: `setup_s` is the median, so that
/// one slow page-in does not decide it. `tear_down` releases a set-up that
/// is not kept before the next one starts (ports, files, memory).
pub fn set_up_repeatedly<S>(
    reps: usize,
    mut set_up: impl FnMut(usize) -> S,
    mut tear_down: impl FnMut(S),
) -> (S, Agg) {
    let mut seconds = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        kept = Some(set_up(rep));
        seconds.push(t.elapsed().as_secs_f64());
    }
    let (q1, _, q3) = crate::stats::quartiles(&seconds);
    let agg = Agg { value: median(&seconds), q1, q3, n: reps as u64 };
    (kept.expect("at least one set-up"), agg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_repeatable_and_matches_the_library() {
        let lineitem = |d: &Data| d.db.relation("lineitem").unwrap().clone();
        let a = generate(SCALE_ADHOC, 0);
        assert_eq!(lineitem(&a), lineitem(&generate(SCALE_ADHOC, 0)));
        assert_ne!(lineitem(&a), lineitem(&generate(SCALE_ADHOC, 1)));
        assert_eq!(lineitem(&a), *a.workload.incomplete_instance().relation("lineitem").unwrap());
    }

    #[test]
    fn fingerprints_ignore_order_but_not_content() {
        let data = generate(SCALE_ADHOC, 0);
        let nation = data.db.relation("nation").unwrap();
        let mut reversed = nation.tuples().to_vec();
        reversed.reverse();
        let reversed = Relation::from_parts(nation.schema().clone(), reversed);
        assert_eq!(fingerprint(nation), fingerprint(&reversed));
        let fewer = Relation::from_parts(nation.schema().clone(), nation.tuples()[1..].to_vec());
        assert_ne!(fingerprint(nation), fingerprint(&fewer));
    }

    /// What no run can afford: every class of the scale-0.002 workloads —
    /// Q1–Q4 as written and as `Q⁺`, and the served `bulk` — against the
    /// reference evaluator on the very instance they run on (40 s; the test
    /// profile is optimised for it).
    #[test]
    fn engine_agrees_with_the_reference_at_full_scale() {
        reference_check(SCALE, |d| {
            let mut classes = tpch_classes(&d.workload.params(&d.db, 0));
            classes.extend(served::served_classes(d).into_iter().filter(|c| c.name == "bulk"));
            classes
        })
        .unwrap();
    }

    #[test]
    fn rng_is_seeded() {
        let draws = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(100)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        let mut order: Vec<u32> = (0..16).collect();
        Rng::new(3).shuffle(&mut order);
        assert_ne!(order, (0..16).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_set_up_keeps_the_last_and_tears_down_the_rest() {
        let mut torn = Vec::new();
        let (kept, agg) = set_up_repeatedly(3, |rep| rep, |s| torn.push(s));
        assert_eq!((kept, torn, agg.n), (2, vec![0, 1], 3));
    }
}
