//! Relational algebra expressions.

use crate::algebra::condition::Condition;
use crate::data::{Schema, Tuple};
use std::fmt;

/// A projected column: a source column and an optional output name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjCol {
    /// Source column (resolved against the input schema).
    pub column: String,
    /// Output name; defaults to the source column name.
    pub alias: Option<String>,
}

impl ProjCol {
    /// Project a column under its own name.
    pub fn named(column: impl Into<String>) -> Self {
        ProjCol { column: column.into(), alias: None }
    }

    /// Project a column under a new name.
    pub fn aliased(column: impl Into<String>, alias: impl Into<String>) -> Self {
        ProjCol { column: column.into(), alias: Some(alias.into()) }
    }

    /// The output name of this projection column.
    pub(crate) fn output_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.column)
    }
}

/// Aggregate functions supported by the engine. The certain-answer
/// translations treat aggregate subqueries as black boxes (paper, Section 7);
/// full certainty for aggregation is future work (Section 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(col)` — counts non-null values.
    Count,
    /// `SUM(col)` over non-null values; `NULL` on empty input.
    Sum,
    /// `AVG(col)` over non-null values; `NULL` on empty input.
    Avg,
    /// `MIN(col)` over non-null values; `NULL` on empty input.
    Min,
    /// `MAX(col)` over non-null values; `NULL` on empty input.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A single aggregate computation within an [`RaExpr::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated column (`None` only for `COUNT(*)`).
    pub column: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Build an aggregate over a column.
    pub fn new(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr { func, column: Some(column.into()), alias: alias.into() }
    }

    /// Build a `COUNT(*)` aggregate.
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggExpr { func: AggFunc::CountStar, column: None, alias: alias.into() }
    }
}

/// A relational algebra expression over a database of named relations.
///
/// The *core* operators are those of the paper (Section 2): base relation,
/// selection, projection, product, union, intersection, difference. The
/// remaining variants are derived operators that the translations and the
/// SQL front-end use directly because they admit efficient physical plans:
/// theta-join, (anti)semijoin, the unification (anti)semijoin of Definition 4,
/// division, and a black-box aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum RaExpr {
    /// A base relation, optionally re-qualified under an alias (scanning `R`
    /// under alias `x` yields attributes `x.a` for every attribute `a` of `R`).
    Relation {
        /// Table name in the database.
        name: String,
        /// Optional alias used to qualify attribute names.
        alias: Option<String>,
    },
    /// A literal relation (used for parameters and unit tests).
    Values {
        /// Schema of the literal relation.
        schema: Schema,
        /// Its tuples.
        rows: Vec<Tuple>,
    },
    /// Selection `σ_θ(input)`.
    Select {
        /// Input expression.
        input: Box<RaExpr>,
        /// Selection condition.
        condition: Condition,
    },
    /// Projection `π_cols(input)` (set semantics: duplicates are removed).
    Project {
        /// Input expression.
        input: Box<RaExpr>,
        /// Output columns.
        columns: Vec<ProjCol>,
    },
    /// Cartesian product.
    Product {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Theta join (`σ_θ(left × right)`, kept as a single node so physical
    /// planning can pick join algorithms).
    Join {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
        /// Join condition.
        condition: Condition,
    },
    /// Set union.
    Union {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Set difference.
    Difference {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Semijoin `left ⋉_θ right`: tuples of `left` with at least one θ-match
    /// in `right` (the image of `EXISTS` subqueries).
    SemiJoin {
        /// Left input (preserved side).
        left: Box<RaExpr>,
        /// Right input (probe side).
        right: Box<RaExpr>,
        /// Matching condition over the concatenated schema.
        condition: Condition,
    },
    /// Anti-semijoin `left ▷_θ right`: tuples of `left` with no θ-match in
    /// `right` (the image of `NOT EXISTS` subqueries).
    AntiJoin {
        /// Left input (preserved side).
        left: Box<RaExpr>,
        /// Right input (probe side).
        right: Box<RaExpr>,
        /// Matching condition over the concatenated schema.
        condition: Condition,
    },
    /// Unification semijoin `left ⋉⇑ right` (Definition 4): tuples of `left`
    /// that unify with some tuple of `right`. Both sides must have the same
    /// arity.
    UnifySemiJoin {
        /// Left input (preserved side).
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Unification anti-semijoin `left ⋉̸⇑ right`: tuples of `left` that unify
    /// with no tuple of `right`.
    UnifyAntiSemiJoin {
        /// Left input (preserved side).
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
    /// Relational division `left ÷ right`: tuples over the non-shared columns
    /// of `left` that appear combined with *every* tuple of `right`
    /// ("students taking all courses").
    Division {
        /// Dividend.
        left: Box<RaExpr>,
        /// Divisor (its columns must be a subset of the dividend's, matched by
        /// unqualified name).
        right: Box<RaExpr>,
    },
    /// Rename the output columns.
    Rename {
        /// Input expression.
        input: Box<RaExpr>,
        /// New column names (must match the input arity).
        columns: Vec<String>,
    },
    /// Duplicate elimination (projection already deduplicates; this node lets
    /// the SQL front-end express `SELECT DISTINCT *`).
    Distinct {
        /// Input expression.
        input: Box<RaExpr>,
    },
    /// Grouping and aggregation (black box w.r.t. the certainty translations).
    Aggregate {
        /// Input expression.
        input: Box<RaExpr>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
    },
}

impl RaExpr {
    /// Scan a base relation under its own name.
    pub fn relation(name: impl Into<String>) -> RaExpr {
        RaExpr::Relation { name: name.into(), alias: None }
    }

    /// Scan a base relation under an alias.
    pub fn relation_as(name: impl Into<String>, alias: impl Into<String>) -> RaExpr {
        RaExpr::Relation { name: name.into(), alias: Some(alias.into()) }
    }

    /// Selection.
    pub fn select(self, condition: Condition) -> RaExpr {
        RaExpr::Select { input: Box::new(self), condition }
    }

    /// Projection onto named columns.
    pub fn project(self, columns: &[&str]) -> RaExpr {
        RaExpr::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| ProjCol::named(*c)).collect(),
        }
    }

    /// Projection with explicit [`ProjCol`]s.
    pub fn project_cols(self, columns: Vec<ProjCol>) -> RaExpr {
        RaExpr::Project { input: Box::new(self), columns }
    }

    /// Cartesian product.
    pub fn product(self, other: RaExpr) -> RaExpr {
        RaExpr::Product { left: Box::new(self), right: Box::new(other) }
    }

    /// Theta join.
    pub fn join(self, other: RaExpr, condition: Condition) -> RaExpr {
        RaExpr::Join { left: Box::new(self), right: Box::new(other), condition }
    }

    /// Union.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union { left: Box::new(self), right: Box::new(other) }
    }

    /// Intersection.
    pub fn intersect(self, other: RaExpr) -> RaExpr {
        RaExpr::Intersect { left: Box::new(self), right: Box::new(other) }
    }

    /// Difference.
    pub fn difference(self, other: RaExpr) -> RaExpr {
        RaExpr::Difference { left: Box::new(self), right: Box::new(other) }
    }

    /// Semijoin.
    pub fn semi_join(self, other: RaExpr, condition: Condition) -> RaExpr {
        RaExpr::SemiJoin { left: Box::new(self), right: Box::new(other), condition }
    }

    /// Anti-semijoin.
    pub fn anti_join(self, other: RaExpr, condition: Condition) -> RaExpr {
        RaExpr::AntiJoin { left: Box::new(self), right: Box::new(other), condition }
    }

    /// Unification semijoin.
    pub fn unify_semi_join(self, other: RaExpr) -> RaExpr {
        RaExpr::UnifySemiJoin { left: Box::new(self), right: Box::new(other) }
    }

    /// Unification anti-semijoin.
    pub fn unify_anti_join(self, other: RaExpr) -> RaExpr {
        RaExpr::UnifyAntiSemiJoin { left: Box::new(self), right: Box::new(other) }
    }

    /// Division.
    pub fn divide(self, other: RaExpr) -> RaExpr {
        RaExpr::Division { left: Box::new(self), right: Box::new(other) }
    }

    /// Rename output columns.
    pub fn rename(self, columns: &[&str]) -> RaExpr {
        RaExpr::Rename {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Duplicate elimination.
    pub fn distinct(self) -> RaExpr {
        RaExpr::Distinct { input: Box::new(self) }
    }

    /// Grouping and aggregation.
    pub fn aggregate(self, group_by: &[&str], aggregates: Vec<AggExpr>) -> RaExpr {
        RaExpr::Aggregate {
            input: Box::new(self),
            group_by: group_by.iter().map(|c| c.to_string()).collect(),
            aggregates,
        }
    }

    /// Immediate children of this node.
    pub fn children(&self) -> Vec<&RaExpr> {
        match self {
            RaExpr::Relation { .. } | RaExpr::Values { .. } => vec![],
            RaExpr::Select { input, .. }
            | RaExpr::Project { input, .. }
            | RaExpr::Rename { input, .. }
            | RaExpr::Distinct { input }
            | RaExpr::Aggregate { input, .. } => vec![input],
            RaExpr::Product { left, right }
            | RaExpr::Join { left, right, .. }
            | RaExpr::Union { left, right }
            | RaExpr::Intersect { left, right }
            | RaExpr::Difference { left, right }
            | RaExpr::SemiJoin { left, right, .. }
            | RaExpr::AntiJoin { left, right, .. }
            | RaExpr::UnifySemiJoin { left, right }
            | RaExpr::UnifyAntiSemiJoin { left, right }
            | RaExpr::Division { left, right } => vec![left, right],
        }
    }

    /// Number of operator nodes in the expression tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::condition::Condition;

    #[test]
    fn builder_methods_compose() {
        let q = RaExpr::relation("r").select(Condition::eq_cols("a", "b")).project(&["a"]);
        assert_eq!(q.size(), 3);
    }

    #[test]
    fn children_cover_all_variants() {
        let r = RaExpr::relation("r");
        let s = RaExpr::relation("s");
        let two_kids = r.clone().join(s.clone(), Condition::True);
        assert_eq!(two_kids.children().len(), 2);
        let one_kid = r.clone().distinct();
        assert_eq!(one_kid.children().len(), 1);
        assert!(r.children().is_empty());
    }

    #[test]
    fn projection_output_names() {
        assert_eq!(ProjCol::named("x").output_name(), "x");
        assert_eq!(ProjCol::aliased("x", "y").output_name(), "y");
    }

    #[test]
    fn base_relations_are_collected_in_preorder() {
        let q = RaExpr::relation("a").product(RaExpr::relation("b").union(RaExpr::relation("c")));
        let mut names = Vec::new();
        q.visit_pre(&mut |n| {
            if let RaExpr::Relation { name, .. } = n {
                names.push(name.clone());
            }
        });
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn agg_constructors() {
        let a = AggExpr::new(AggFunc::Avg, "c_acctbal", "avg_bal");
        assert_eq!(a.column.as_deref(), Some("c_acctbal"));
        let c = AggExpr::count_star("n");
        assert_eq!(c.column, None);
        assert_eq!(AggFunc::CountStar.to_string(), "COUNT(*)");
    }
}
