//! `EXPLAIN ANALYZE` output: cost-model estimates and measured actuals side
//! by side for every plan node.
//!
//! The session facade zips the planner's static `ExplainPlan` against the
//! engine's [`crate::obs::QueryProfile`] into this tree. Rendering follows the
//! planner's explain format, extended with actual rows, wall time, path
//! tags (`[vec]` / `[row-fallback]`) and an `[est↯act ×N]` marker wherever
//! the cost model's cardinality estimate diverged from reality.

use crate::obs::json;
use crate::obs::time::fmt_ns;
use std::fmt;

/// Estimate-vs-actual ratio at which a node is flagged as diverged. A factor
/// of 4 means the cost model was off by 4× in either direction — enough to
/// change join-order decisions, small enough to catch on modest databases.
pub(crate) const DIVERGENCE_FACTOR: f64 = 4.0;

/// Rows below which divergence is not flagged: on tiny intermediates a
/// ratio says nothing (estimating 0.5 rows when 2 show up is factor 4 but
/// planner-irrelevant).
pub(crate) const DIVERGENCE_MIN_ROWS: f64 = 4.0;

/// One plan node annotated with both the cost model's estimates and the
/// measured actuals from an instrumented execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedPlan {
    /// Operator label, as rendered by the planner's explain.
    pub op: String,
    /// Cost model's cardinality estimate.
    pub rows_est: f64,
    /// Cost model's cost estimate.
    pub cost_est: f64,
    /// Measured output rows.
    pub rows_act: u64,
    /// Measured wall time (inclusive of children), nanoseconds. Zero for
    /// nodes that execute as part of a fused pipeline rather than standalone.
    pub wall_ns: u64,
    /// Tags: the path taken (`"vec"`, `"row-fallback"`), a hash operator's
    /// build time (`"build=…"`).
    pub tags: Vec<String>,
    /// Children, mirroring the plan tree.
    pub children: Vec<AnalyzedPlan>,
}

impl AnalyzedPlan {
    /// How far the estimate was from the actual, as a ≥ 1 ratio
    /// (`max(est/act, act/est)`, with both sides clamped away from zero).
    pub fn divergence(&self) -> f64 {
        let est = self.rows_est.max(0.5);
        let act = (self.rows_act as f64).max(0.5);
        (est / act).max(act / est)
    }

    /// Whether this node's estimate diverged enough to flag: off by 4× or
    /// more, on a node where the estimate or the actual reaches 4 rows.
    pub fn diverged(&self) -> bool {
        self.divergence() >= DIVERGENCE_FACTOR
            && self.rows_est.max(self.rows_act as f64) >= DIVERGENCE_MIN_ROWS
    }

    /// Whether any node in the tree is flagged as diverged.
    pub fn any_divergence(&self) -> bool {
        self.diverged() || self.children.iter().any(AnalyzedPlan::any_divergence)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(AnalyzedPlan::node_count).sum::<usize>()
    }

    /// Every node of the tree, preorder.
    pub fn flatten(&self) -> Vec<&AnalyzedPlan> {
        let mut out = Vec::with_capacity(self.node_count());
        fn walk<'a>(node: &'a AnalyzedPlan, out: &mut Vec<&'a AnalyzedPlan>) {
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
            "{}  (rows est≈{:.0} act={}, time={})",
            self.op,
            self.rows_est,
            self.rows_act,
            fmt_ns(self.wall_ns)
        ));
        for tag in &self.tags {
            out.push_str(&format!(" [{tag}]"));
        }
        if self.diverged() {
            out.push_str(&format!(" [est↯act ×{:.0}]", self.divergence()));
        }
        out.push('\n');
        for child in &self.children {
            child.render(depth + 1, out);
        }
    }

    /// Render the annotated tree as JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"op\": \"{}\", \"rows_est\": {}, \"cost_est\": {}, \"rows_act\": {}, \
             \"wall_ns\": {}, \"diverged\": {}",
            json::escape(&self.op),
            json::number(self.rows_est),
            json::number(self.cost_est),
            self.rows_act,
            self.wall_ns,
            self.diverged()
        );
        if !self.tags.is_empty() {
            out.push_str(", \"tags\": [");
            for (i, t) in self.tags.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json::escape(t)));
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

impl fmt::Display for AnalyzedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(out.trim_end_matches('\n'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(op: &str, est: f64, act: u64) -> AnalyzedPlan {
        AnalyzedPlan {
            op: op.to_string(),
            rows_est: est,
            cost_est: est * 2.0,
            rows_act: act,
            wall_ns: 1_000,
            tags: Vec::new(),
            children: Vec::new(),
        }
    }

    #[test]
    fn divergence_is_symmetric_and_gated() {
        assert!(node("a", 100.0, 10).diverged()); // 10× over
        assert!(node("a", 10.0, 100).diverged()); // 10× under
        assert!(!node("a", 100.0, 80).diverged()); // close enough
        assert!(!node("a", 2.0, 0).diverged()); // tiny rows: gated off
        assert!((node("a", 100.0, 10).divergence() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn any_divergence_searches_the_tree() {
        let mut root = node("join", 50.0, 40);
        root.children.push(node("scan", 1000.0, 10));
        assert!(!root.diverged());
        assert!(root.any_divergence());
        assert_eq!(root.node_count(), 2);
        assert_eq!(root.flatten().len(), 2);
    }

    #[test]
    fn render_shows_estimates_actuals_and_tags() {
        let mut root = node("Filter [p]", 100.0, 7);
        root.tags.push("vec".to_string());
        let text = root.to_string();
        assert!(text.contains("rows est≈100 act=7"));
        assert!(text.contains("[vec]"));
        assert!(text.contains("[est↯act ×14]"));
    }

    #[test]
    fn json_is_well_formed() {
        let mut root = node("join", 50.0, 40);
        root.tags.push("vec".to_string());
        root.children.push(node("scan \"r\"", 1000.0, 10));
        let s = root.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"scan \\\"r\\\"\""));
        assert!(s.contains("\"diverged\": true"));
        assert!(s.contains("\"tags\": [\"vec\"]"));
    }
}
