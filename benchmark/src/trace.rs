//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, operation id); spans of one operation
//! share the operation id. They are kept in memory and written out as JSON
//! lines when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a span within one run; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Operation the span belongs to (spans of one request share it).
    pub op: u64,
    /// Layer entry point, e.g. `plan.passes`.
    pub name: &'static str,
    /// Query class of the operation, e.g. `q4p`.
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Ids are drawn from a per-thread range so
/// recorders of several client threads merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    /// `lane` separates the id ranges of concurrent recorders.
    pub fn new(epoch: Instant, lane: u32) -> Tracer {
        Tracer { epoch, next_id: lane * (1 << 26) + 1, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        class: &'static str,
        parent: SpanId,
        op: u64,
    ) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, class, start_ns, end_ns: start_ns });
        id
    }

    /// Close a span opened by this recorder. Spans close in LIFO order, so
    /// the search from the back ends after a handful of steps.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end_ns;
        }
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        class: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, class, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent, so an overlapping or overrunning child
/// is never counted twice or beyond the parent's end).
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self times in nanoseconds grouped by (span name, class).
pub fn self_times_by_name(spans: &[Span]) -> HashMap<(&'static str, &'static str), Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: HashMap<(&'static str, &'static str), Vec<f64>> = HashMap::new();
    for s in spans {
        out.entry((s.name, s.class)).or_default().push(selfs[&s.id] as f64);
    }
    out
}

/// Share of the operations' traced time that the layer spans under them
/// account for (the rest is the benchmark's own loop).
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for root in spans.iter().filter(|s| s.parent == 0) {
        total += root.end_ns - root.start_ns;
        own += selfs[&root.id];
    }
    1.0 - own as f64 / total.max(1) as f64
}

/// Write the spans as JSON lines:
/// `{"id":..,"parent":..,"op":..,"name":"..","class":"..","start_ns":..,"end_ns":..}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"class\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.class, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "x", class: "c", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 0, 100), // root
            span(2, 1, 10, 30), // child: 20
            span(3, 1, 40, 70), // child: 30
            span(4, 3, 45, 55), // grandchild: counts against 3, not 1
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
        // Self times of an operation's spans add up to its root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
        assert_eq!(layer_coverage(&spans), 0.5);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_not_double_counted() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),  // overlaps 2 on [40, 60)
            span(4, 1, 90, 130), // runs past the parent's end
        ];
        // Covered: [10, 80) and [90, 100) = 80.
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn tracer_nests_and_lanes_do_not_collide() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let mut b = Tracer::new(epoch, 1);
        let root = a.begin("op", "q1", 0, 7);
        let inner = a.span("engine.execute", "q1", root, 7, || 42);
        a.end(root);
        assert_eq!(inner, 42);
        let other = b.begin("op", "q2", 0, 8);
        b.end(other);
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let mut ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name[&("op", "q1")].len(), 1);
        assert_eq!(by_name[&("engine.execute", "q1")].len(), 1);
    }
}
