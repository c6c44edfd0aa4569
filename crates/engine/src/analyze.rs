//! EXPLAIN ANALYZE support: build the [`ProfNode`] tree an instrumented
//! execution records into, and zip a finished [`QueryProfile`] back onto the
//! planner's (physical plan, [`ExplainPlan`]) pair to produce an
//! [`AnalyzedPlan`] — estimates and actuals side by side for every node.
//!
//! The two halves mirror the compiler's structural transformations in
//! opposite directions. `skeleton` follows the compiled plan: one profile
//! node per compiled operator, with fused `Filter`/`Project` chains as step
//! labels on a single node. [`annotate`] walks the *physical* plan (which
//! still has explicit `Exchange` operators, binary unions and un-fused
//! chains) in lockstep with the explain tree, replaying the compiler's
//! rules — exchanges are pass-throughs, chain nodes consume fused steps
//! top-down, union trees consume flattened arms left to right — so every
//! explain node gets its actuals even though the executed tree is shaped
//! differently. The walk is defensive: a structural mismatch yields zeroed
//! actuals on the affected subtree, never a panic.

use crate::compile::{CompiledExpr, Step};
use certus_obs::{AnalyzedPlan, ProfNode, QueryProfile};
use certus_plan::physical::{ExplainPlan, PhysicalExpr};

/// Build the profile tree for a compiled plan: same shape, kind-labelled
/// operators, fused chains as per-step labels.
pub(crate) fn skeleton(node: &CompiledExpr) -> ProfNode {
    let binary = |op: &str, l: &CompiledExpr, r: &CompiledExpr| {
        ProfNode::with(op, Vec::new(), vec![skeleton(l), skeleton(r)])
    };
    match node {
        CompiledExpr::Scan { name, .. } => ProfNode::new(format!("scan({name})")),
        CompiledExpr::Values { .. } => ProfNode::new("values"),
        CompiledExpr::Fused { source, steps, .. } => {
            let step_ops = steps
                .iter()
                .map(|s| match s {
                    Step::Filter(_) => "filter".to_string(),
                    Step::Project(_) => "project".to_string(),
                })
                .collect();
            ProfNode::with("fused", step_ops, vec![skeleton(source)])
        }
        CompiledExpr::HashJoin { left, right, .. } => binary("hash_join", left, right),
        CompiledExpr::NlJoin { left, right, .. } => binary("nl_join", left, right),
        CompiledExpr::HashSemi { left, right, .. } => binary("hash_semi", left, right),
        CompiledExpr::NlSemi { left, right, .. } => binary("nl_semi", left, right),
        CompiledExpr::DecorrelatedSemi { left, right, .. } => {
            binary("decorrelated_semi", left, right)
        }
        CompiledExpr::Union { arms, .. } => {
            ProfNode::with("union", Vec::new(), arms.iter().map(skeleton).collect())
        }
        CompiledExpr::Intersect { left, right, .. } => binary("intersect", left, right),
        CompiledExpr::Difference { left, right, .. } => binary("difference", left, right),
        CompiledExpr::UnifySemi { left, right, .. } => binary("unify_semi", left, right),
        CompiledExpr::Division { left, right, .. } => binary("division", left, right),
        CompiledExpr::Rename { input, .. } => {
            ProfNode::with("rename", Vec::new(), vec![skeleton(input)])
        }
        CompiledExpr::Distinct { input, .. } => {
            ProfNode::with("distinct", Vec::new(), vec![skeleton(input)])
        }
        CompiledExpr::Aggregate { input, .. } => {
            ProfNode::with("aggregate", Vec::new(), vec![skeleton(input)])
        }
    }
}

/// Zip a finished profile onto the physical plan and its explain tree:
/// every explain node annotated with measured actuals. `phys` and `explain`
/// must be the pair returned by the planner's `plan_explained`, and
/// `profile` the result of executing that plan's compilation under
/// instrumentation.
pub fn annotate(
    phys: &PhysicalExpr,
    explain: &ExplainPlan,
    profile: &QueryProfile,
) -> AnalyzedPlan {
    zip(phys, Some(explain), Some(profile))
}

fn tags_of(p: &QueryProfile) -> Vec<String> {
    let mut tags: Vec<String> = p.build_time().into_iter().collect();
    if p.vec_runs > 0 {
        tags.push("vec".to_string());
    }
    if p.row_fallbacks > 0 {
        tags.push("row-fallback".to_string());
    }
    tags
}

fn ex_parts(phys: &PhysicalExpr, ex: Option<&ExplainPlan>) -> (String, f64, f64) {
    match ex {
        Some(e) => (e.op.clone(), e.rows, e.cost),
        None => (phys.label(), 0.0, 0.0),
    }
}

fn ex_child(ex: Option<&ExplainPlan>, i: usize) -> Option<&ExplainPlan> {
    ex.and_then(|e| e.children.get(i))
}

fn node(
    parts: (String, f64, f64),
    rows_act: u64,
    wall_ns: u64,
    tags: Vec<String>,
    children: Vec<AnalyzedPlan>,
) -> AnalyzedPlan {
    AnalyzedPlan {
        op: parts.0,
        rows_est: parts.1,
        cost_est: parts.2,
        rows_act,
        wall_ns,
        tags,
        children,
    }
}

fn is_chain_head(phys: &PhysicalExpr) -> bool {
    matches!(
        phys,
        PhysicalExpr::Filter { .. }
            | PhysicalExpr::Project { .. }
            | PhysicalExpr::Rename { .. }
            | PhysicalExpr::Distinct { .. }
    )
}

fn zip(phys: &PhysicalExpr, ex: Option<&ExplainPlan>, prof: Option<&QueryProfile>) -> AnalyzedPlan {
    let parts = ex_parts(phys, ex);
    // An exchange was absorbed by the operator around it at compile time: it
    // is a pass-through here, reporting its input's cardinality.
    if let PhysicalExpr::Exchange { input, .. } = phys {
        let child = zip(input, ex_child(ex, 0), prof);
        let rows_act = child.rows_act;
        return node(parts, rows_act, 0, Vec::new(), vec![child]);
    }
    match prof {
        Some(p) if p.op == "fused" && is_chain_head(phys) => {
            zip_chain(phys, ex, p, p.steps.len(), true)
        }
        Some(p) if p.op == "union" && matches!(phys, PhysicalExpr::Union { .. }) => {
            let mut cursor = 0;
            zip_union(phys, ex, p, &mut cursor, true)
        }
        _ => {
            let children: Vec<AnalyzedPlan> = phys
                .children()
                .into_iter()
                .enumerate()
                .map(|(i, c)| zip(c, ex_child(ex, i), prof.and_then(|p| p.children.get(i))))
                .collect();
            node(
                parts,
                prof.map_or(0, |p| p.rows_out),
                prof.map_or(0, |p| p.wall_ns),
                prof.map_or_else(Vec::new, tags_of),
                children,
            )
        }
    }
}

/// Rows surviving fused steps `0..=k` (`k == -1` means the pipeline input):
/// filter steps record survivor counts; projection steps pass the count of
/// the nearest filter below them through unchanged.
fn rows_after_step(fused: &QueryProfile, k: isize) -> u64 {
    let mut i = k;
    while i >= 0 {
        let s = &fused.steps[i as usize];
        if s.op == "filter" {
            return s.rows_out;
        }
        i -= 1;
    }
    fused.rows_in
}

/// Walk a physical `Filter`/`Project`/`Rename`/`Distinct` chain that
/// compiled into one fused pipeline, consuming the pipeline's recorded steps
/// top-down. The chain's top node carries the pipeline's inclusive wall time
/// and path tags; inner nodes report per-step survivor counts with no time
/// of their own (they never execute standalone).
fn zip_chain(
    phys: &PhysicalExpr,
    ex: Option<&ExplainPlan>,
    fused: &QueryProfile,
    steps_remaining: usize,
    top: bool,
) -> AnalyzedPlan {
    let parts = ex_parts(phys, ex);
    let own = |remaining_after: usize| {
        if top {
            (fused.rows_out, fused.wall_ns, tags_of(fused))
        } else {
            (rows_after_step(fused, remaining_after as isize - 1), 0, Vec::new())
        }
    };
    match phys {
        PhysicalExpr::Filter { input, .. } | PhysicalExpr::Project { input, .. }
            if steps_remaining > 0 =>
        {
            let idx = steps_remaining - 1;
            let (rows_act, wall, tags) = own(steps_remaining);
            let child = zip_chain(input, ex_child(ex, 0), fused, idx, false);
            node(parts, rows_act, wall, tags, vec![child])
        }
        // Renames and distincts were absorbed into the pipeline without a
        // step of their own (a rename is a schema swap; the dedup runs once
        // at the pipeline edge).
        PhysicalExpr::Rename { input, .. } | PhysicalExpr::Distinct { input }
            if steps_remaining > 0 =>
        {
            let (rows_act, wall, tags) = own(steps_remaining);
            let child = zip_chain(input, ex_child(ex, 0), fused, steps_remaining, false);
            node(parts, rows_act, wall, tags, vec![child])
        }
        PhysicalExpr::Exchange { input, .. } => {
            let child = zip_chain(input, ex_child(ex, 0), fused, steps_remaining, false);
            let rows_act = child.rows_act;
            node(parts, rows_act, 0, Vec::new(), vec![child])
        }
        // Every step is consumed: this node is the pipeline's source.
        _ => zip(phys, ex, fused.children.first()),
    }
}

/// Walk a physical union tree that compiled into one flattened n-ary union,
/// consuming the profile's arms left to right. Inner union nodes report the
/// concatenation of their arms (deduplication happens once, at the top).
fn zip_union(
    phys: &PhysicalExpr,
    ex: Option<&ExplainPlan>,
    u: &QueryProfile,
    cursor: &mut usize,
    top: bool,
) -> AnalyzedPlan {
    let parts = ex_parts(phys, ex);
    match phys {
        PhysicalExpr::Union { left, right } => {
            let l = zip_union(left, ex_child(ex, 0), u, cursor, false);
            let r = zip_union(right, ex_child(ex, 1), u, cursor, false);
            let (rows_act, wall) =
                if top { (u.rows_out, u.wall_ns) } else { (l.rows_act + r.rows_act, 0) };
            node(parts, rows_act, wall, Vec::new(), vec![l, r])
        }
        PhysicalExpr::Exchange { input, .. } => {
            let child = zip_union(input, ex_child(ex, 0), u, cursor, false);
            let rows_act = child.rows_act;
            node(parts, rows_act, 0, Vec::new(), vec![child])
        }
        _ => {
            let arm = u.children.get(*cursor);
            *cursor += 1;
            zip(phys, ex, arm)
        }
    }
}
