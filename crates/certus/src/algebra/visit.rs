//! Generic traversal and rewriting helpers for [`RaExpr`] trees.
//!
//! Every rewrite pass in the planner is expressed through these primitives,
//! so the per-pass code only has to say what happens *at* a node, never how
//! to walk the tree:
//!
//! * `RaExpr::map_children` — rebuild a node with each child transformed by
//!   a (fallible) function; the node's own payload (conditions, columns) is
//!   cloned unchanged.
//! * `RaExpr::transform_up` — bottom-up rewriting: children first, then the
//!   rebuilt node is handed to the callback.
//! * `RaExpr::any_node` — read-only pre-order search.

use crate::algebra::expr::RaExpr;

impl RaExpr {
    /// Rebuild this node, applying a fallible transformation to every direct
    /// child. Leaf nodes are cloned.
    pub(crate) fn map_children<'a, E>(
        &'a self,
        f: &mut impl FnMut(&'a RaExpr) -> Result<RaExpr, E>,
    ) -> Result<RaExpr, E> {
        Ok(match self {
            RaExpr::Relation { .. } | RaExpr::Values { .. } => self.clone(),
            RaExpr::Select { input, condition } => f(input)?.select(condition.clone()),
            RaExpr::Project { input, columns } => f(input)?.project_cols(columns.clone()),
            RaExpr::Product { left, right } => f(left)?.product(f(right)?),
            RaExpr::Join { left, right, condition } => f(left)?.join(f(right)?, condition.clone()),
            RaExpr::Union { left, right } => f(left)?.union(f(right)?),
            RaExpr::Intersect { left, right } => f(left)?.intersect(f(right)?),
            RaExpr::Difference { left, right } => f(left)?.difference(f(right)?),
            RaExpr::SemiJoin { left, right, condition } => {
                f(left)?.semi_join(f(right)?, condition.clone())
            }
            RaExpr::AntiJoin { left, right, condition } => {
                f(left)?.anti_join(f(right)?, condition.clone())
            }
            RaExpr::UnifySemiJoin { left, right } => f(left)?.unify_semi_join(f(right)?),
            RaExpr::UnifyAntiSemiJoin { left, right } => f(left)?.unify_anti_join(f(right)?),
            RaExpr::Division { left, right } => f(left)?.divide(f(right)?),
            RaExpr::Rename { input, columns } => {
                RaExpr::Rename { input: Box::new(f(input)?), columns: columns.clone() }
            }
            RaExpr::Distinct { input } => f(input)?.distinct(),
            RaExpr::Aggregate { input, group_by, aggregates } => RaExpr::Aggregate {
                input: Box::new(f(input)?),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
        })
    }

    /// Bottom-up rewriting: transform every child recursively, rebuild this
    /// node over the transformed children, then hand the rebuilt node to `f`.
    pub(crate) fn transform_up<E>(
        &self,
        f: &mut impl FnMut(RaExpr) -> Result<RaExpr, E>,
    ) -> Result<RaExpr, E> {
        let rebuilt = self.map_children(&mut |c| c.transform_up(f))?;
        f(rebuilt)
    }

    /// Pre-order read-only traversal.
    pub(crate) fn visit_pre(&self, f: &mut impl FnMut(&RaExpr)) {
        f(self);
        for c in self.children() {
            c.visit_pre(f);
        }
    }

    /// Whether any node in the tree satisfies the predicate.
    pub(crate) fn any_node(&self, pred: &mut impl FnMut(&RaExpr) -> bool) -> bool {
        let mut found = false;
        self.visit_pre(&mut |n| found |= pred(n));
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::condition::Condition;
    use std::convert::Infallible;

    fn sample() -> RaExpr {
        RaExpr::relation("r")
            .join(RaExpr::relation("s"), Condition::eq_cols("a", "b"))
            .select(Condition::eq_cols("a", "a"))
            .project(&["a"])
    }

    #[test]
    fn map_children_is_identity_with_cloning_callback() {
        let q = sample();
        let same: RaExpr = q.map_children(&mut |c| Ok::<_, Infallible>(c.clone())).unwrap();
        assert_eq!(q, same);
    }

    #[test]
    fn transform_up_visits_every_node_once() {
        let q = sample();
        let mut count = 0usize;
        let out: RaExpr = q
            .transform_up(&mut |n| {
                count += 1;
                Ok::<_, Infallible>(n)
            })
            .unwrap();
        assert_eq!(out, q);
        assert_eq!(count, q.size());
    }

    #[test]
    fn transform_up_rewrites_leaves_first() {
        // Replace every base relation r by s; the rebuilt parents must see it.
        let q = sample();
        let out: RaExpr = q
            .transform_up(&mut |n| {
                Ok::<_, Infallible>(match n {
                    RaExpr::Relation { ref name, .. } if name == "r" => RaExpr::relation("s"),
                    other => other,
                })
            })
            .unwrap();
        let expected = RaExpr::relation("s")
            .join(RaExpr::relation("s"), Condition::eq_cols("a", "b"))
            .select(Condition::eq_cols("a", "a"))
            .project(&["a"]);
        assert_eq!(out, expected);
    }

    #[test]
    fn transform_up_propagates_errors() {
        let q = sample();
        let r: Result<RaExpr, &str> = q.transform_up(&mut |n| {
            if matches!(n, RaExpr::Relation { .. }) {
                Err("no scans allowed")
            } else {
                Ok(n)
            }
        });
        assert_eq!(r, Err("no scans allowed"));
    }

    #[test]
    fn visit_pre_and_any_node() {
        let q = sample();
        let mut ops = Vec::new();
        q.visit_pre(&mut |n| {
            ops.push(std::mem::discriminant(n));
        });
        assert_eq!(ops.len(), q.size());
        assert!(q.any_node(&mut |n| matches!(n, RaExpr::Join { .. })));
        assert!(!q.any_node(&mut |n| matches!(n, RaExpr::Division { .. })));
    }
}
