//! Per-execution operator profiles.
//!
//! An instrumented run records into a flat table: one [`NodeStats`] per
//! node of the physical plan, indexed by the node's id — its pre-order
//! position. Every compiled operator records at the id of the node it
//! implements, and every filter step of a fused pipeline at its own; the
//! counters are relaxed atomics, so morsel workers on scoped threads record
//! into one entry without locking. Afterwards one walk over the compiled
//! plan freezes the table into a [`QueryProfile`], a plain tree in the
//! compiled plan's shape (`engine::analyze`), and `EXPLAIN ANALYZE` reads
//! the same table by id.
//!
//! It also keeps three process-wide counters for the hot-path work the
//! compiled operator runtime is supposed to eliminate, read as a
//! [`ProfileSnapshot`]. Column-name *resolution* (string lookups in
//! `crate::data::Schema::position_of`) and *schema inference* (re-deriving
//! operator output schemas) belong to planning and compilation, never to
//! executing a compiled plan. *Column extraction*
//! (`crate::data::column::Column::extract`) belongs to execution but depends
//! only on the snapshot for base relations, which keep their extracted
//! columns ([`crate::data::Relation::column`]); re-executing a plan over an
//! unchanged snapshot extracts only the columns of its intermediates. The
//! counters live in the [`crate::obs::metrics::MetricsRegistry`] under the
//! `data.*` names, so registry readers see the same values. They are global
//! and monotone — meaningful as *deltas* taken while no other engine work
//! runs in the process.

use crate::obs::json;
use crate::obs::metrics::{registry, Counter};
use crate::obs::names;
use crate::obs::time::fmt_ns;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Live actuals of one plan node, all relaxed atomics so concurrent morsel
/// workers can record without synchronisation.
#[derive(Debug, Default)]
pub(crate) struct NodeStats {
    /// Tuples entering the operator (for pipelines: source cardinality).
    pub rows_in: AtomicU64,
    /// Tuples produced by the operator.
    pub rows_out: AtomicU64,
    /// Values the operator built into new rows: rows built × their width.
    /// Zero where rows were only selected, paired or passed on by pointer.
    pub values_out: AtomicU64,
    /// Batches/morsels processed on chunked paths.
    pub batches: AtomicU64,
    /// Times the operator ran (>1 under re-execution of a cached plan tree).
    pub invocations: AtomicU64,
    /// Wall time spent in the operator **including** its children.
    pub wall_ns: AtomicU64,
    /// Runs that took the vectorized columnar path.
    pub vec_runs: AtomicU64,
    /// Runs that wanted the vectorized path but fell back to row-at-a-time.
    pub row_fallbacks: AtomicU64,
    /// Hash-table build-side rows (joins/semijoins).
    pub build_rows: AtomicU64,
    /// Time spent building a hash operator's matcher — both sides' key
    /// columns and the table — apart from probing it.
    pub build_ns: AtomicU64,
    /// Probe rows that found at least one build match.
    pub probe_hits: AtomicU64,
    /// Probe rows that found no build match.
    pub probe_misses: AtomicU64,
    /// Morsels dispatched on parallel paths.
    pub morsels: AtomicU64,
    /// Worker threads that participated on parallel paths.
    pub workers: AtomicU64,
    /// Rows this node's filter kept, when it ran as a step of a fused
    /// pipeline.
    pub step_rows: AtomicU64,
}

impl NodeStats {
    #[inline]
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one invocation producing `rows_out` tuples in `wall_ns`.
    #[inline]
    pub(crate) fn record_invocation(&self, rows_out: u64, wall_ns: u64) {
        Self::add(&self.invocations, 1);
        Self::add(&self.rows_out, rows_out);
        Self::add(&self.wall_ns, wall_ns);
    }

    /// Record the values an invocation built (rows × width).
    #[inline]
    pub(crate) fn record_values_out(&self, n: u64) {
        Self::add(&self.values_out, n);
    }

    /// Record input cardinality.
    #[inline]
    pub(crate) fn record_rows_in(&self, n: u64) {
        Self::add(&self.rows_in, n);
    }

    /// Record batches processed.
    #[inline]
    pub(crate) fn record_batches(&self, n: u64) {
        Self::add(&self.batches, n);
    }

    /// Record that the vectorized path ran.
    #[inline]
    pub(crate) fn record_vec_run(&self) {
        Self::add(&self.vec_runs, 1);
    }

    /// Record a fallback from the vectorized path to the row path.
    #[inline]
    pub(crate) fn record_row_fallback(&self) {
        Self::add(&self.row_fallbacks, 1);
    }

    /// Record hash-table build size.
    #[inline]
    pub(crate) fn record_build_rows(&self, n: u64) {
        Self::add(&self.build_rows, n);
    }

    /// Record the time a hash operator's build took.
    #[inline]
    pub(crate) fn record_build_ns(&self, ns: u64) {
        Self::add(&self.build_ns, ns);
    }

    /// Record probe outcomes.
    #[inline]
    pub(crate) fn record_probes(&self, hits: u64, misses: u64) {
        Self::add(&self.probe_hits, hits);
        Self::add(&self.probe_misses, misses);
    }

    /// Record a parallel dispatch of `morsels` work items over `workers`
    /// threads.
    #[inline]
    pub(crate) fn record_parallel(&self, morsels: u64, workers: u64) {
        Self::add(&self.morsels, morsels);
        Self::add(&self.workers, workers);
    }

    /// Record rows a fused filter step kept.
    #[inline]
    pub(crate) fn record_step_rows(&self, n: u64) {
        Self::add(&self.step_rows, n);
    }

    /// Freeze the counters into a profile node labelled `op`, with its fused
    /// steps and its children.
    pub(crate) fn finish(
        &self,
        op: String,
        steps: Vec<StepProfile>,
        children: Vec<QueryProfile>,
    ) -> QueryProfile {
        let load = |f: &AtomicU64| f.load(Ordering::Relaxed);
        QueryProfile {
            op,
            rows_in: load(&self.rows_in),
            rows_out: load(&self.rows_out),
            values_out: load(&self.values_out),
            batches: load(&self.batches),
            invocations: load(&self.invocations),
            wall_ns: load(&self.wall_ns),
            vec_runs: load(&self.vec_runs),
            row_fallbacks: load(&self.row_fallbacks),
            build_rows: load(&self.build_rows),
            build_ns: load(&self.build_ns),
            probe_hits: load(&self.probe_hits),
            probe_misses: load(&self.probe_misses),
            morsels: load(&self.morsels),
            workers: load(&self.workers),
            steps,
            children,
        }
    }
}

/// Actuals for one fused pipeline step (a filter or a projection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProfile {
    /// Step label (`"filter"` or `"project"`).
    pub op: String,
    /// Tuples surviving this step across all invocations.
    pub rows_out: u64,
}

/// A frozen per-execution operator profile: the same tree shape as the
/// compiled plan, with measured actuals at every operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Operator label (e.g. `"hash_join"`, `"fused"`, `"scan(r)"`).
    pub op: String,
    /// Tuples entering the operator.
    pub rows_in: u64,
    /// Tuples produced.
    pub rows_out: u64,
    /// Values built into new rows: rows built × their width (zero where
    /// rows were only selected, paired or passed on by pointer).
    pub values_out: u64,
    /// Batches/morsels processed.
    pub batches: u64,
    /// Times the operator ran.
    pub invocations: u64,
    /// Wall time including children, in nanoseconds.
    pub wall_ns: u64,
    /// Vectorized-path runs.
    pub vec_runs: u64,
    /// Row-path fallbacks from the vectorized path.
    pub row_fallbacks: u64,
    /// Hash-table build rows.
    pub build_rows: u64,
    /// Time building the hash matcher (key columns and table), in
    /// nanoseconds; part of `wall_ns`.
    pub build_ns: u64,
    /// Probe rows with at least one match.
    pub probe_hits: u64,
    /// Probe rows with no match.
    pub probe_misses: u64,
    /// Morsels dispatched on parallel paths.
    pub morsels: u64,
    /// Worker threads that participated.
    pub workers: u64,
    /// Fused pipeline steps with per-step survivor counts.
    pub steps: Vec<StepProfile>,
    /// Child operators, in plan order.
    pub children: Vec<QueryProfile>,
}

impl QueryProfile {
    /// Wall time spent in this operator alone: its inclusive time minus its
    /// children's (saturating — on parallel paths children overlap the
    /// parent, so the subtraction clamps at zero rather than going negative).
    pub fn self_wall_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.wall_ns).sum();
        self.wall_ns.saturating_sub(child_ns)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(QueryProfile::node_count).sum::<usize>()
    }

    /// `build=<time>` when this hash operator's build was timed: key columns
    /// and table, apart from the probes.
    pub(crate) fn build_time(&self) -> Option<String> {
        (self.build_ns > 0).then(|| format!("build={}", fmt_ns(self.build_ns)))
    }

    /// Probe hit rate for hash operators (0 when nothing was probed).
    pub(crate) fn probe_hit_rate(&self) -> f64 {
        let total = self.probe_hits + self.probe_misses;
        if total == 0 {
            0.0
        } else {
            self.probe_hits as f64 / total as f64
        }
    }

    /// Every node of the tree, preorder.
    pub fn flatten(&self) -> Vec<&QueryProfile> {
        let mut out = Vec::with_capacity(self.node_count());
        fn walk<'a>(node: &'a QueryProfile, out: &mut Vec<&'a QueryProfile>) {
            out.push(node);
            for c in &node.children {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{}  (rows={}, time={}, self={})",
            self.op,
            self.rows_out,
            fmt_ns(self.wall_ns),
            fmt_ns(self.self_wall_ns())
        ));
        if self.vec_runs > 0 {
            out.push_str(" [vec]");
        }
        if self.row_fallbacks > 0 {
            out.push_str(" [row-fallback]");
        }
        if self.build_rows > 0 || self.probe_hits + self.probe_misses > 0 {
            out.push_str(&format!(
                " [build={}, probe_hit_rate={:.2}]",
                self.build_rows,
                self.probe_hit_rate()
            ));
        }
        if self.build_ns > 0 {
            out.push_str(&format!(" [build_time={}]", fmt_ns(self.build_ns)));
        }
        if self.workers > 0 {
            out.push_str(&format!(" [morsels={}, workers={}]", self.morsels, self.workers));
        }
        out.push('\n');
        for step in &self.steps {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!("· {}  (rows={})\n", step.op, step.rows_out));
        }
        for child in &self.children {
            child.render(depth + 1, out);
        }
    }

    /// Render the profile tree as JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"op\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \"values_out\": {}, \
             \"batches\": {}, \"invocations\": {}, \"wall_ns\": {}, \"self_ns\": {}, \
             \"vec_runs\": {}, \"row_fallbacks\": {}, \"build_rows\": {}, \"build_ns\": {}, \
             \"probe_hits\": {}, \"probe_misses\": {}, \"morsels\": {}, \"workers\": {}",
            json::escape(&self.op),
            self.rows_in,
            self.rows_out,
            self.values_out,
            self.batches,
            self.invocations,
            self.wall_ns,
            self.self_wall_ns(),
            self.vec_runs,
            self.row_fallbacks,
            self.build_rows,
            self.build_ns,
            self.probe_hits,
            self.probe_misses,
            self.morsels,
            self.workers
        );
        if !self.steps.is_empty() {
            out.push_str(", \"steps\": [");
            for (i, s) in self.steps.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"op\": \"{}\", \"rows_out\": {}}}",
                    json::escape(&s.op),
                    s.rows_out
                ));
            }
            out.push(']');
        }
        if !self.children.is_empty() {
            out.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_json());
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(out.trim_end_matches('\n'))
    }
}

fn name_resolutions() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_NAME_RESOLUTIONS))
}

fn schema_inferences() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_SCHEMA_INFERENCES))
}

fn column_extractions() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_COLUMN_EXTRACTIONS))
}

/// A snapshot of all profiling counters, for delta assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Column-name → position resolutions performed so far.
    pub name_resolutions: u64,
    /// Operator output-schema inferences performed so far.
    pub schema_inferences: u64,
    /// Columns extracted from rows so far.
    pub column_extractions: u64,
}

impl ProfileSnapshot {
    /// Take a snapshot of the current counter values.
    pub fn now() -> ProfileSnapshot {
        ProfileSnapshot {
            name_resolutions: name_resolutions().value(),
            schema_inferences: schema_inferences().value(),
            column_extractions: column_extractions().value(),
        }
    }

    /// The counter increments since an earlier snapshot.
    pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            name_resolutions: self.name_resolutions - earlier.name_resolutions,
            schema_inferences: self.schema_inferences - earlier.schema_inferences,
            column_extractions: self.column_extractions - earlier.column_extractions,
        }
    }

    /// Whether no planning or compilation work (name resolution, schema
    /// inference) happened between `earlier` and this snapshot. Column
    /// extraction is execution work and does not count.
    pub fn is_zero(&self) -> bool {
        self.name_resolutions == 0 && self.schema_inferences == 0
    }
}

/// Record one column-name resolution (called by [`crate::data::Schema::position_of`]).
#[inline]
pub(crate) fn record_name_resolution() {
    name_resolutions().incr();
}

/// Record one operator output-schema inference (called by the algebra module's
/// `output_schema`).
#[inline]
pub(crate) fn record_schema_inference() {
    schema_inferences().incr();
}

/// Record one column extraction (called by
/// [`crate::data::column::Column::extract`]).
#[inline]
pub(crate) fn record_column_extraction() {
    column_extractions().incr();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::MetricsSnapshot;

    /// A join over a fused pipeline over one scan, and a second scan, with
    /// the counters `record` left on each operator, in pre-order.
    fn sample(record: impl Fn(usize, &NodeStats)) -> QueryProfile {
        let stats: Vec<NodeStats> = (0..4).map(|_| NodeStats::default()).collect();
        stats.iter().enumerate().for_each(|(i, s)| record(i, s));
        let leaf = |i: usize, op: &str| stats[i].finish(op.into(), Vec::new(), Vec::new());
        let steps = vec![
            StepProfile { op: "filter".into(), rows_out: 30 },
            StepProfile { op: "project".into(), rows_out: 0 },
        ];
        let fused = stats[1].finish("fused".into(), steps, vec![leaf(2, "scan(r)")]);
        stats[0].finish("hash_join".into(), Vec::new(), vec![fused, leaf(3, "scan(s)")])
    }

    #[test]
    fn finish_freezes_recorded_counters() {
        let snap = sample(|i, s| match i {
            0 => {
                s.record_invocation(10, 500);
                s.record_values_out(30);
                s.record_build_rows(4);
                s.record_build_ns(150);
                s.record_probes(8, 2);
            }
            1 => {
                s.record_invocation(20, 300);
                s.record_rows_in(100);
                s.record_vec_run();
            }
            _ => {}
        });
        assert_eq!(snap.op, "hash_join");
        assert_eq!(snap.rows_out, 10);
        assert_eq!(snap.values_out, 30);
        assert_eq!(snap.wall_ns, 500);
        assert_eq!(snap.self_wall_ns(), 200);
        assert_eq!(snap.build_rows, 4);
        assert_eq!(snap.build_time().as_deref(), Some("build=150ns"));
        assert!(snap.to_string().lines().next().unwrap().contains("[build_time=150ns]"));
        assert!(snap.to_json().contains("\"build_ns\": 150"));
        assert_eq!(snap.children[1].build_time(), None, "an untimed node has no build tag");
        assert!((snap.probe_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(snap.node_count(), 4);
        let fused = &snap.children[0];
        assert_eq!(fused.rows_in, 100);
        assert_eq!(fused.vec_runs, 1);
        assert_eq!(fused.steps[0], StepProfile { op: "filter".into(), rows_out: 30 });
    }

    #[test]
    fn self_time_saturates_on_overlapping_children() {
        let snap = sample(|i, s| match i {
            0 => s.record_invocation(1, 100),
            1 => s.record_invocation(1, 80),
            3 => s.record_invocation(1, 90),
            _ => {}
        });
        assert_eq!(snap.self_wall_ns(), 0);
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let snap = sample(|i, s| match i {
            0 => s.record_invocation(3, 1_000),
            1 => s.record_vec_run(),
            _ => {}
        });
        let text = snap.to_string();
        assert!(text.contains("hash_join"));
        assert!(text.contains("[vec]"));
        assert!(text.contains("· filter"));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"op\": \"scan(s)\""));
        assert_eq!(json.matches("\"op\":").count(), 4 + 2); // 4 nodes + 2 steps
    }

    #[test]
    fn flatten_is_preorder() {
        let snap = sample(|_, _| {});
        let ops: Vec<&str> = snap.flatten().iter().map(|n| n.op.as_str()).collect();
        assert_eq!(ops, vec!["hash_join", "fused", "scan(r)", "scan(s)"]);
    }

    #[test]
    fn defensive_accessors_do_not_panic() {
        // A node that never ran: no probes to divide by, no build to time.
        let leaf = NodeStats::default().finish("leaf".into(), Vec::new(), Vec::new());
        assert_eq!(leaf.probe_hit_rate(), 0.0);
        assert_eq!(leaf.build_time(), None);
        assert_eq!((leaf.self_wall_ns(), leaf.node_count()), (0, 1));
    }

    #[test]
    fn deltas_track_recorded_events() {
        let before = ProfileSnapshot::now();
        record_name_resolution();
        record_schema_inference();
        record_column_extraction();
        let delta = ProfileSnapshot::now().delta_since(&before);
        // Other tests in this process may also record events concurrently,
        // so only lower bounds are stable here.
        assert!(delta.name_resolutions >= 1);
        assert!(delta.schema_inferences >= 1);
        assert!(delta.column_extractions >= 1);
        assert!(!delta.is_zero());
    }

    #[test]
    fn shim_and_registry_read_the_same_counters() {
        let before = MetricsSnapshot::now();
        record_name_resolution();
        let delta = MetricsSnapshot::now().delta_since(&before);
        assert!(delta.counter(names::DATA_NAME_RESOLUTIONS) >= 1);
        // One counter behind both readers. Other tests record concurrently,
        // so the shim's read falls between two registry reads.
        assert!(std::ptr::eq(
            name_resolutions(),
            &*registry().counter(names::DATA_NAME_RESOLUTIONS)
        ));
        let registry_read = || MetricsSnapshot::now().counter(names::DATA_NAME_RESOLUTIONS);
        let low = registry_read();
        let shim = ProfileSnapshot::now().name_resolutions;
        let high = registry_read();
        assert!(low <= shim && shim <= high, "{low} <= {shim} <= {high}");
    }
}
