//! The pass pipeline: a fixed, ordered list of logical rewrite passes over
//! [`RaExpr`], each run once.
//!
//! Every pass must be *semantics-preserving in the strong sense*: it may only
//! produce an expression that evaluates to the same relation on **every**
//! database (under both SQL and naive null semantics), so that translated
//! queries keep their certain-answer guarantee no matter what context the
//! rewritten subtree ends up in. The equivalence test suite at the repository
//! root checks exactly this on randomized databases with nulls.
//!
//! The order is deliberate, as in the incresql/readyset pipelines this design
//! follows: folding first so pushdown sees clean conditions, pushdown before
//! the Section 7 rewrites so they see conditions where they will execute,
//! the OR-splits late because they duplicate subtrees, and join-to-semijoin
//! last: it needs the conditions where pushdown left them (a filter still
//! sitting above a join would read the right columns it is about to drop),
//! and it must come after split-or-join, which only knows how to split a
//! *join* on a disjunction. No later pass opens work for an earlier one —
//! the semijoin a join becomes keeps its condition and its inputs, so
//! folding, pushdown and pruning find it as they left it, and a projection
//! it turns into the identity is written as `collapse` would write it —
//! running the list over its own output changes nothing, which debug builds
//! assert; so there is no loop. Should a pass ever need a second go, it is
//! listed a second time where it is needed.

use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::Catalog;
use crate::plan::passes::{collapse, fold, key_antijoin, null_prune, or_split, pushdown, semijoin};
use crate::Result;
use std::borrow::Cow;

/// A logical rewrite pass. Must be semantics-preserving on every database
/// and return a structurally identical expression when it has nothing to do.
pub type Pass = fn(&RaExpr, &dyn Catalog) -> Result<RaExpr>;

/// The pipeline, in execution order: folding, predicate pushdown, projection
/// collapsing, the paper's Section 7 rewrites (nullability pruning,
/// key-based anti-join simplification, OR-splitting of anti-joins and of
/// joins), then joins that only test existence to semijoins.
pub const PASSES: [(&str, Pass); 8] = [
    ("fold", fold::fold),
    ("predicate-pushdown", pushdown::pushdown),
    ("collapse-projections", collapse::collapse),
    ("prune-null-checks", null_prune::prune_null_checks),
    ("key-antijoin", key_antijoin::simplify_key_antijoin),
    ("split-or-antijoin", or_split::split_or_antijoin),
    ("split-or-join", or_split::split_or_join),
    ("join-to-semijoin", semijoin::join_to_semijoin),
];

/// One trace record per executed pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrace {
    /// Pass name.
    pub pass: &'static str,
    /// Always 1: every pass runs once.
    pub round: usize,
    /// Whether the pass changed the expression.
    pub changed: bool,
    /// Operator-node count before the pass.
    pub nodes_before: usize,
    /// Operator-node count after the pass.
    pub nodes_after: usize,
}

/// Runs [`PASSES`] over an expression.
#[derive(Debug)]
pub struct PassManager;

impl PassManager {
    /// The standard pipeline ([`PASSES`]).
    pub fn standard() -> Self {
        PassManager
    }

    /// Run every pass once, in order, and return the rewritten expression.
    pub fn run(&self, expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
        self.run_traced(expr, catalog).map(|(e, _)| e)
    }

    /// Run the pipeline, also returning one [`PassTrace`] per pass.
    pub fn run_traced(
        &self,
        expr: &RaExpr,
        catalog: &dyn Catalog,
    ) -> Result<(RaExpr, Vec<PassTrace>)> {
        let (out, traces) = walk(expr, catalog)?;
        debug_assert!(
            walk(&out, catalog).is_ok_and(|(again, _)| again == out),
            "a second walk over the pass list changed the plan of {expr}"
        );
        Ok((out, traces))
    }
}

fn walk(expr: &RaExpr, catalog: &dyn Catalog) -> Result<(RaExpr, Vec<PassTrace>)> {
    let mut current = Cow::Borrowed(expr);
    let mut nodes = expr.size();
    let mut traces = Vec::with_capacity(PASSES.len());
    for (name, pass) in PASSES {
        let next = pass(&current, catalog)?;
        let nodes_after = next.size();
        let changed = next != *current;
        traces.push(PassTrace { pass: name, round: 1, changed, nodes_before: nodes, nodes_after });
        (current, nodes) = (Cow::Owned(next), nodes_after);
    }
    Ok((current.into_owned(), traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::eq;
    use crate::data::builder::rel;
    use crate::data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db.insert_relation("s", rel(&["c", "d"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db
    }

    #[test]
    fn standard_manager_lists_the_passes_in_order() {
        assert_eq!(
            PASSES.map(|(name, _)| name),
            [
                "fold",
                "predicate-pushdown",
                "collapse-projections",
                "prune-null-checks",
                "key-antijoin",
                "split-or-antijoin",
                "split-or-join",
                "join-to-semijoin",
            ]
        );
    }

    #[test]
    fn pipeline_reaches_a_fixpoint_and_stops_early() {
        let db = db();
        let q =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")).select(eq("b", "d"));
        let m = PassManager::standard();
        let (out, traces) = m.run_traced(&q, &db).unwrap();
        // Re-running the pipeline on its own output is a no-op.
        let (again, traces2) = m.run_traced(&out, &db).unwrap();
        assert_eq!(out, again);
        assert!(traces2.iter().all(|t| !t.changed));
        // One walk: each pass ran exactly once.
        assert_eq!(traces.len(), PASSES.len());
        assert!(traces.iter().all(|t| t.round == 1));
    }

    #[test]
    fn traces_record_node_counts() {
        let db = db();
        let q = RaExpr::relation("r").select(crate::algebra::Condition::True);
        let (out, traces) = PassManager::standard().run_traced(&q, &db).unwrap();
        assert_eq!(out, RaExpr::relation("r"));
        let fold = traces.iter().find(|t| t.pass == "fold").unwrap();
        assert!(fold.changed);
        assert_eq!(fold.nodes_before, 2);
        assert_eq!(fold.nodes_after, 1);
    }
}
