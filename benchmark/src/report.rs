//! The metric catalogue (names, units, directions, regression bounds) and
//! the three renderings of a run: the printed table, the result file, and
//! the one-line object the driver reads.

use crate::env::Stamp;
use crate::json::Json;
use crate::stats::{highest_supported_percentile, Agg};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before `compare` calls it a regression. `None`: per-layer, unbounded.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The thirteen end-to-end metrics with the bounds `compare` judges them by:
/// a tenth, and wider only for set-up, the tails and recovery. Where the runs
/// of one commit disagree by more than a bound, `compare` says `unresolved`,
/// not `ok`. A workload omits a metric it does not produce.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cert_ms_geomean", "ms", Lower, 0.10),
    e2e("plain_ms_geomean", "ms", Lower, 0.10),
    e2e("price_of_correctness", "ratio", Lower, 0.10),
    e2e("q4_cert_ms_p50", "ms", Lower, 0.10),
    e2e("prepare_ms_geomean", "ms", Lower, 0.10),
    e2e("ops_per_s", "1/s", Higher, 0.10),
    e2e("point_ms_p95", "ms", Lower, 0.20),
    e2e("insert_ms_p50", "ms", Lower, 0.10),
    e2e("insert_ms_p95", "ms", Lower, 0.20),
    e2e("recovery_ms", "ms", Lower, 0.15),
    // Expected 0; any increase is a regression.
    e2e("failed_share", "fraction", Lower, 0.0),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// `BENCHMARK.json`'s `end_to_end`, with the bounds the driver rejects a later
/// change by. The driver wants every listed metric from every workload, never
/// 0, so these are the four all four workloads produce; the other nine reach
/// it, unbounded, at the end of `per_layer`. Its bounds are its own because
/// it has no `unresolved` verdict: it turns down a change on the bound alone,
/// and turns down this benchmark if ten runs of one commit spread wider, so
/// each is at least three times the spread `BASELINE.md` records.
pub const DRIVER_END_TO_END: &[(&str, f64)] =
    &[("setup_s", 0.25), ("cert_ms_geomean", 0.25), ("ops_per_s", 0.25), ("peak_rss_mb", 0.20)];

/// Per-layer metrics, layers named after the crates. A workload that
/// bypasses a layer reports 0 for it: no span recorded, no time spent.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tpch.dbgen_ms", "ms", Lower),
    layer("tpch.inject_ms", "ms", Lower),
    layer("core.translate_us", "us", Lower),
    layer("core.plus_nodes_ratio", "ratio", Lower),
    layer("plan.passes_us", "us", Lower),
    layer("plan.pass_rounds", "count", Lower),
    layer("plan.nodes_after_passes", "count", Lower),
    layer("plan.physical_us", "us", Lower),
    layer("plan.physical_costbased_us", "us", Lower),
    layer("plan.stats_analyze_ms", "ms", Lower),
    layer("plan.nl_nodes", "count", Lower),
    layer("plan.est_act_max_ratio", "ratio", Lower),
    layer("plan.cache_hit_share", "fraction", Higher),
    layer("engine.compile_us", "us", Lower),
    layer("engine.execute_ms.q1p", "ms", Lower),
    layer("engine.execute_ms.q2p", "ms", Lower),
    layer("engine.execute_ms.q3p", "ms", Lower),
    layer("engine.execute_ms.q4p", "ms", Lower),
    layer("engine.nl_join_self_share", "fraction", Lower),
    layer("engine.hash_self_share", "fraction", Higher),
    layer("engine.fused_self_share", "fraction", Higher),
    layer("engine.rows_examined_per_answer", "ratio", Lower),
    layer("engine.row_fallbacks", "count", Lower),
    layer("exec.scope_overhead_us", "us", Lower),
    layer("exec.parallel_speedup_q4", "ratio", Higher),
    layer("exec.tasks_stolen", "count", Higher),
    layer("data.to_batches_ms", "ms", Lower),
    layer("data.snapshot_pin_ns", "ns", Lower),
    layer("data.snapshot_update_us", "us", Lower),
    layer("data.wal_insert_us", "us", Lower),
    layer("data.wal_record_encode_us", "us", Lower),
    layer("data.wal_bytes_per_user_byte", "ratio", Lower),
    layer("data.wal_checkpoint_ms", "ms", Lower),
    layer("data.checkpoint_bytes", "bytes", Lower),
    layer("data.wal_checkpoints", "count", Lower),
    layer("data.wal_recover_ms", "ms", Lower),
    layer("certus.prepare_cold_us", "us", Lower),
    layer("certus.prepare_hit_us", "us", Lower),
    layer("certus.prepare_share", "fraction", Lower),
    layer("certus.session_overhead_us", "us", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.request_encode_us", "us", Lower),
    layer("server.request_decode_us", "us", Lower),
    layer("server.answer_encode_us.point", "us", Lower),
    layer("server.answer_encode_us.short", "us", Lower),
    layer("server.answer_encode_us.bulk", "us", Lower),
    layer("server.answer_encode_us.heavy", "us", Lower),
    layer("server.answer_decode_us.point", "us", Lower),
    layer("server.answer_decode_us.short", "us", Lower),
    layer("server.answer_decode_us.bulk", "us", Lower),
    layer("server.answer_decode_us.heavy", "us", Lower),
    layer("server.answer_bytes.point", "bytes", Lower),
    layer("server.answer_bytes.short", "bytes", Lower),
    layer("server.answer_bytes.bulk", "bytes", Lower),
    layer("server.answer_bytes.heavy", "bytes", Lower),
    layer("server.residual_ms.point", "ms", Lower),
    layer("server.residual_ms.short", "ms", Lower),
    layer("server.residual_ms.bulk", "ms", Lower),
    layer("server.residual_ms.heavy", "ms", Lower),
    layer("server.replan_read_ms", "ms", Lower),
    layer("server.stale_replans", "count", Lower),
    layer("server.rejected", "count", Lower),
    layer("obs.profiled_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.layer_coverage", "fraction", Higher),
    layer("bench.insert_lateness_ms_p95", "ms", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[derive(Debug, Clone)]
pub struct Row {
    pub def: &'static MetricDef,
    pub agg: Agg,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub stamp: Stamp,
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form facts the figures depend on (flush policy, class mix, …).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &'static str, traced: bool, stamp: Stamp) -> RunResult {
        RunResult {
            workload,
            traced,
            stamp,
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: vec![],
        }
    }

    /// Record a metric. The name must be in the catalogue: a typo here would
    /// silently drop a figure from the driver's line.
    pub fn push(&mut self, name: &str, agg: Agg) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.rows.push(Row { def, agg });
    }

    /// A set-up check failed: nothing was measured, and the run is incorrect.
    pub fn fail_set_up(mut self, why: &str) -> RunResult {
        self.note(format!("INCORRECT at set-up: {why}"));
        (self.attempted, self.failed) = (1, 1);
        self
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn get(&self, name: &str) -> Option<&Agg> {
        self.rows.iter().find(|r| r.def.name == name).map(|r| &r.agg)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn print_table(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced { "traced run: per-layer" } else { "untraced run: end-to-end" }
        );
        println!("env: {}", self.stamp.line());
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "{:<34} {:>14} {:<9} {:>8} {:>14} {:>14} {:>8}",
            "metric", "value", "unit", "n", "q1", "q3", "spread"
        );
        for row in &self.rows {
            let Agg { value, q1, q3, n } = row.agg;
            let mut line = format!(
                "{:<34} {:>14.4} {:<9} {:>8} {:>14.4} {:>14.4} {:>7.1}%",
                row.def.name,
                value,
                row.def.unit,
                n,
                q1,
                q3,
                row.agg.spread() * 100.0
            );
            if row.def.name.ends_with("_p95")
                && highest_supported_percentile(n as usize).is_none_or(|p| p < 95)
            {
                line.push_str("  (fewer than 10 samples beyond the p95)");
            }
            println!("{line}");
        }
        println!(
            "attempted={} failed={} failed_share={} correct={}",
            self.attempted,
            self.failed,
            self.failed_share(),
            self.correct()
        );
    }

    /// The result file: environment, spread and sample count on every row.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::str(r.def.name)),
                    ("unit", Json::str(r.def.unit)),
                    ("value", Json::Num(r.agg.value)),
                    ("n", Json::Num(r.agg.n as f64)),
                    ("q1", Json::Num(r.agg.q1)),
                    ("q3", Json::Num(r.agg.q3)),
                    ("better", Json::str(r.def.better.as_str())),
                    ("bound", r.def.bound.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            // This benchmark measures; it claims no gain.
            ("claim", Json::Null),
            ("env", self.stamp.to_json()),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// The last line of standard output: what the driver parses. An untraced
    /// run reports every `end_to_end` metric of `BENCHMARK.json` — it is an
    /// error for one to be missing or 0 — a traced run every `per_layer` one
    /// (0 where this workload bypasses the layer).
    pub fn driver_line(&self) -> Result<String, String> {
        let defs: Vec<&MetricDef> =
            if self.traced { driver_per_layer().collect() } else { driver_end_to_end().collect() };
        let mut metrics = Vec::new();
        for def in defs {
            let value = self.get(def.name).map_or(0.0, |a| a.value);
            if !self.traced && value <= 0.0 {
                return Err(format!("end-to-end metric `{}` is missing or 0", def.name));
            }
            let entry = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(def.unit))]);
            metrics.push((def.name.to_string(), entry));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }
}

fn in_driver_end_to_end(def: &MetricDef) -> bool {
    DRIVER_END_TO_END.iter().any(|(name, _)| *name == def.name)
}

/// `BENCHMARK.json`'s `end_to_end`: the metrics every workload produces.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().filter(|d| in_driver_end_to_end(d))
}

/// `BENCHMARK.json`'s `per_layer`: the layer metrics, then the end-to-end
/// metrics only some workloads produce, as the traced run saw them.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER.iter().chain(END_TO_END.iter().filter(|d| !in_driver_end_to_end(d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(END_TO_END.len(), 13);
        assert_eq!(driver_end_to_end().count(), DRIVER_END_TO_END.len());
        assert!(DRIVER_END_TO_END.iter().any(|(name, _)| *name == "setup_s"));
        assert!(DRIVER_END_TO_END.iter().all(|&(_, bound)| bound > 0.0 && bound <= 0.25));
        assert!(driver_per_layer().count() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the catalogue
    /// from drifting apart.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            file.get(key)
                .and_then(Json::as_arr)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expect = |defs: Vec<&MetricDef>, with_bound: bool| -> Vec<_> {
            defs.into_iter()
                .map(|d| {
                    let bound = DRIVER_END_TO_END.iter().find(|(name, _)| *name == d.name);
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        bound.map(|b| b.1).filter(|_| with_bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(driver_end_to_end().collect(), true));
        assert_eq!(listed("per_layer"), expect(driver_per_layer().collect(), false));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
