//! `EXPLAIN` and `EXPLAIN ANALYZE`: one view of a physical plan.
//!
//! An [`ExplainPlan`] is the plan's nodes in pre-order, so a node's index
//! is its id. [`ExplainPlan::new`] builds it in one walk over the plan with
//! two lookups by id: the cost model's estimates (`plan::cost::explain`)
//! and, for `EXPLAIN ANALYZE`, the measured [`Actual`]s of an instrumented
//! run (`engine::analyze::actuals`). One renderer prints both: estimates
//! alone, or estimates beside actual rows, wall time, path tags
//! (`[vec]` / `[row-fallback]` / `[build=…]`) and an `[est↯act ×N]` marker
//! wherever the cost model's cardinality estimate diverged from reality.

use crate::obs::json;
use crate::obs::time::fmt_ns;
use crate::plan::cost::{batch_eligible, Estimate};
use crate::plan::physical::PhysicalExpr;
use std::fmt::{self, Write};

/// Estimate-vs-actual ratio at which a node is flagged as diverged. A factor
/// of 4 means the cost model was off by 4× in either direction — enough to
/// change join-order decisions, small enough to catch on modest databases.
pub(crate) const DIVERGENCE_FACTOR: f64 = 4.0;

/// Rows below which divergence is not flagged: on tiny intermediates a
/// ratio says nothing (estimating 0.5 rows when 2 show up is factor 4 but
/// planner-irrelevant).
pub(crate) const DIVERGENCE_MIN_ROWS: f64 = 4.0;

/// What a plan node did when the plan ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Actual {
    /// Output rows.
    pub rows: u64,
    /// Wall time (inclusive of the node's inputs), nanoseconds. Zero for
    /// nodes that ran inside the operator above them — a fused step, an
    /// exchange, a flattened union.
    pub wall_ns: u64,
    /// The path taken (`"vec"`, `"row-fallback"`) and a hash operator's
    /// build time (`"build=…"`).
    pub tags: Vec<String>,
    /// Whether the node ran at all.
    pub executed: bool,
}

/// One plan node: its label, its depth in the plan, the cost model's
/// estimates and, under `EXPLAIN ANALYZE`, its actuals.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Operator label, including the chosen algorithm.
    pub op: String,
    /// Distance from the root.
    pub depth: usize,
    /// Estimated output rows.
    pub rows_est: f64,
    /// Estimated cumulative cost (abstract row operations).
    pub cost_est: f64,
    /// The measured actuals; `None` under plain `EXPLAIN`.
    pub actual: Option<Actual>,
}

impl ExplainNode {
    /// How far the estimate was from the actual, as a ≥ 1 ratio
    /// (`max(est/act, act/est)`, with both sides clamped away from zero);
    /// 1 without actuals, and for a node that never ran: its zero rows say
    /// nothing about the estimate.
    pub fn divergence(&self) -> f64 {
        match &self.actual {
            Some(a) if a.executed => {
                let est = self.rows_est.max(0.5);
                let act = (a.rows as f64).max(0.5);
                (est / act).max(act / est)
            }
            _ => 1.0,
        }
    }

    /// Whether this node's estimate diverged enough to flag: off by 4× or
    /// more, on a node where the estimate or the actual reaches 4 rows.
    pub fn diverged(&self) -> bool {
        let act = self.actual.as_ref().map_or(0, |a| a.rows) as f64;
        self.divergence() >= DIVERGENCE_FACTOR && self.rows_est.max(act) >= DIVERGENCE_MIN_ROWS
    }
}

/// `EXPLAIN`, or `EXPLAIN ANALYZE`, of a physical plan: its nodes in
/// pre-order, each at the index that is its id.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    nodes: Vec<ExplainNode>,
}

impl ExplainPlan {
    /// The view of `plan`: every node with `estimates[id]` and, when the
    /// plan ran, `actuals[id]`.
    pub(crate) fn new(
        plan: &PhysicalExpr,
        estimates: &[Estimate],
        actuals: Option<&[Actual]>,
    ) -> ExplainPlan {
        fn walk(
            plan: &PhysicalExpr,
            depth: usize,
            (estimates, actuals): (&[Estimate], Option<&[Actual]>),
            nodes: &mut Vec<ExplainNode>,
        ) {
            let id = nodes.len();
            let mut op = plan.label();
            if matches!(plan, PhysicalExpr::Filter { condition, .. } if batch_eligible(condition)) {
                op.push_str(" [vec]");
            }
            let Estimate { rows, cost } = estimates[id];
            let actual = actuals.map(|a| a[id].clone());
            nodes.push(ExplainNode { op, depth, rows_est: rows, cost_est: cost, actual });
            for child in plan.children() {
                walk(child, depth + 1, (estimates, actuals), nodes);
            }
        }
        let mut nodes = Vec::with_capacity(estimates.len());
        walk(plan, 0, (estimates, actuals), &mut nodes);
        ExplainPlan { nodes }
    }

    /// The root node.
    pub fn root(&self) -> &ExplainNode {
        &self.nodes[0]
    }

    /// Number of nodes in the plan.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every node of the plan, pre-order: the node with id `i` is at `i`.
    pub fn flatten(&self) -> Vec<&ExplainNode> {
        self.nodes.iter().collect()
    }

    /// The node with id `id` and everything beneath it, pre-order.
    pub fn subtree(&self, id: usize) -> &[ExplainNode] {
        let depth = self.nodes[id].depth;
        let len = self.nodes[id + 1..].iter().take_while(|n| n.depth > depth).count();
        &self.nodes[id..=id + len]
    }

    /// Whether any node is flagged as diverged.
    pub fn any_divergence(&self) -> bool {
        self.nodes.iter().any(ExplainNode::diverged)
    }

    /// Render the plan as JSON, nested as the plan is.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json(0, &mut out);
        out
    }

    fn json(&self, id: usize, out: &mut String) {
        let node = &self.nodes[id];
        let _ = write!(
            out,
            "{{\"op\": \"{}\", \"rows_est\": {}, \"cost_est\": {}",
            json::escape(&node.op),
            json::number(node.rows_est),
            json::number(node.cost_est)
        );
        if let Some(a) = &node.actual {
            let _ = write!(
                out,
                ", \"rows_act\": {}, \"wall_ns\": {}, \"diverged\": {}, \"executed\": {}",
                a.rows,
                a.wall_ns,
                node.diverged(),
                a.executed
            );
            if !a.tags.is_empty() {
                let tags: Vec<String> =
                    a.tags.iter().map(|t| format!("\"{}\"", json::escape(t))).collect();
                let _ = write!(out, ", \"tags\": [{}]", tags.join(", "));
            }
        }
        let depth = node.depth + 1;
        let children = self.subtree(id).len();
        let mut first = true;
        for child in (id + 1..id + children).filter(|&c| self.nodes[c].depth == depth) {
            out.push_str(if first { ", \"children\": [" } else { ", " });
            first = false;
            self.json(child, out);
        }
        if !first {
            out.push(']');
        }
        out.push('}');
    }
}

impl fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        for node in &self.nodes {
            let _ = write!(out, "{}{}  ", "  ".repeat(node.depth), node.op);
            let Some(a) = &node.actual else {
                let _ = writeln!(out, "(rows≈{:.0}, cost≈{:.0})", node.rows_est, node.cost_est);
                continue;
            };
            if !a.executed {
                let _ = writeln!(out, "(rows est≈{:.0}, never executed)", node.rows_est);
                continue;
            }
            let _ = write!(
                out,
                "(rows est≈{:.0} act={}, time={})",
                node.rows_est,
                a.rows,
                fmt_ns(a.wall_ns)
            );
            for tag in &a.tags {
                let _ = write!(out, " [{tag}]");
            }
            if node.diverged() {
                let _ = write!(out, " [est↯act ×{:.0}]", node.divergence());
            }
            out.push('\n');
        }
        // EXPLAIN ends every line with a newline; EXPLAIN ANALYZE separates
        // its lines.
        let analyzed = self.root().actual.is_some();
        f.write_str(if analyzed { out.trim_end_matches('\n') } else { &out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan of one node per `(op, depth, estimate, actual rows)`.
    fn plan(nodes: &[(&str, usize, f64, u64)]) -> ExplainPlan {
        let nodes = nodes
            .iter()
            .map(|&(op, depth, est, act)| ExplainNode {
                op: op.to_string(),
                depth,
                rows_est: est,
                cost_est: est * 2.0,
                actual: Some(Actual {
                    rows: act,
                    wall_ns: 1_000,
                    tags: Vec::new(),
                    executed: true,
                }),
            })
            .collect();
        ExplainPlan { nodes }
    }

    fn node(est: f64, act: u64) -> ExplainNode {
        plan(&[("a", 0, est, act)]).nodes.remove(0)
    }

    #[test]
    fn divergence_is_symmetric_and_gated() {
        assert!(node(100.0, 10).diverged()); // 10× over
        assert!(node(10.0, 100).diverged()); // 10× under
        assert!(!node(100.0, 80).diverged()); // close enough
        assert!(!node(2.0, 0).diverged()); // tiny rows: gated off
        assert!((node(100.0, 10).divergence() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn any_divergence_searches_the_tree() {
        let tree = plan(&[("join", 0, 50.0, 40), ("scan", 1, 1000.0, 10)]);
        assert!(!tree.root().diverged());
        assert!(tree.any_divergence());
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.flatten().len(), 2);
        assert_eq!(tree.subtree(0).len(), 2);
    }

    #[test]
    fn render_shows_estimates_actuals_and_tags() {
        let mut tree = plan(&[("Filter [p]", 0, 100.0, 7)]);
        tree.nodes[0].actual.as_mut().unwrap().tags.push("vec".to_string());
        let text = tree.to_string();
        assert!(text.contains("rows est≈100 act=7"));
        assert!(text.contains("[vec]"));
        assert!(text.contains("[est↯act ×14]"));
        tree.nodes[0].actual = None;
        assert_eq!(tree.to_string(), "Filter [p]  (rows≈100, cost≈200)\n");
    }

    #[test]
    fn a_node_that_never_ran_is_not_misestimated() {
        let mut tree = plan(&[("Join", 0, 7.0, 0), ("Scan orders", 1, 3000.0, 0)]);
        tree.nodes[1].actual.as_mut().unwrap().executed = false;
        assert!(tree.root().diverged(), "the join ran and returned nothing: a real miss");
        assert_eq!(tree.flatten()[1].divergence(), 1.0);
        assert!(!tree.flatten()[1].diverged());
        let text = tree.to_string();
        assert!(text.ends_with("  Scan orders  (rows est≈3000, never executed)"), "{text}");
        assert!(tree.to_json().contains("\"diverged\": false, \"executed\": false"));
    }

    #[test]
    fn json_is_well_formed() {
        let mut tree = plan(&[("join", 0, 50.0, 40), ("scan \"r\"", 1, 1000.0, 10)]);
        tree.nodes[0].actual.as_mut().unwrap().tags.push("vec".to_string());
        let s = tree.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"scan \\\"r\\\"\""));
        assert!(s.contains("\"diverged\": true"));
        assert!(s.contains("\"tags\": [\"vec\"]"));
        assert_eq!(s.matches("\"children\"").count(), 1);
    }
}
