//! Reading a profiled run's table, two ways.
//!
//! An instrumented execution leaves one [`NodeStats`] per node of the
//! physical plan, indexed by node id. [`profile`] freezes it into the
//! compiled-shape [`QueryProfile`] tree, one node per operator, reading each
//! operator's entry and its fused steps' entries. [`actuals`] gives every
//! plan node its [`Actual`] by id for `EXPLAIN ANALYZE`: an operator's node
//! its own counters, and a node the compiler absorbed into the operator
//! above what the compiler recorded for it when it did ([`Report`]) — a
//! projection, rename or distinct inside a fused chain its input's rows,
//! flagged as counted before the chain's dedup.

use crate::engine::compile::{CompiledExpr, CompiledPlan, Op, Report, Step};
use crate::obs::profile::{NodeStats, QueryProfile, StepProfile};
use crate::obs::Actual;
use std::sync::atomic::Ordering;

/// The compiled-shape profile of the operator `node`, read from `stats`.
pub(crate) fn profile(node: &CompiledExpr, stats: &[NodeStats]) -> QueryProfile {
    let steps = match &node.op {
        Op::Fused { steps, .. } => steps
            .iter()
            .map(|step| StepProfile {
                op: match step {
                    Step::Filter { .. } => "filter",
                    Step::Project { .. } => "project",
                }
                .to_string(),
                rows_out: stats[step.id()].step_rows.load(Ordering::Relaxed),
            })
            .collect(),
        _ => Vec::new(),
    };
    let children = node.children().into_iter().map(|c| profile(c, stats)).collect();
    stats[node.id].finish(node.label(), steps, children)
}

/// Every plan node's actuals, by id. Inputs have higher ids than the nodes
/// above them, so one pass from the last id back fills each node after the
/// ones it reads.
pub(crate) fn actuals(plan: &CompiledPlan, stats: &[NodeStats]) -> Vec<Actual> {
    let mut out = vec![Actual::default(); plan.reports.len()];
    for id in (0..out.len()).rev() {
        let input =
            || Actual { tags: Vec::new(), wall_ns: 0, before_dedup: false, ..out[id + 1].clone() };
        out[id] = match plan.reports[id] {
            Report::Own => own(&stats[id]),
            Report::Step => Actual { rows: stats[id].step_rows.load(Ordering::Relaxed), ..input() },
            Report::Input => input(),
            Report::BeforeDedup => Actual { before_dedup: true, ..input() },
            Report::Concat(l, r) => Actual {
                rows: out[l].rows + out[r].rows,
                executed: out[l].executed || out[r].executed,
                ..Actual::default()
            },
        };
    }
    out
}

/// An operator's actuals: its output rows, inclusive time, and the path it
/// took — a hash operator's build time, `vec`, `row-fallback`.
fn own(stats: &NodeStats) -> Actual {
    let p = stats.finish(String::new(), Vec::new(), Vec::new());
    let mut tags: Vec<String> = p.build_time().into_iter().collect();
    if p.vec_runs > 0 {
        tags.push("vec".to_string());
    }
    if p.row_fallbacks > 0 {
        tags.push("row-fallback".to_string());
    }
    let executed = p.invocations > 0;
    Actual { rows: p.rows_out, wall_ns: p.wall_ns, tags, executed, before_dedup: false }
}
