//! The relational-algebra layer of *certus*: the query IR on which the
//! certain-answer translations of the paper operate, together with a
//! reference (tuple-at-a-time) evaluator supporting both SQL's three-valued
//! semantics (`EvalSQL`) and naive evaluation.
//!
//! The IR ([`RaExpr`]) covers the paper's algebra — selection, projection,
//! product, union, intersection, difference — plus the derived operators the
//! paper relies on: theta-joins, (anti)semijoins, the *unification*
//! (anti)semijoins `⋉⇑` / `⋉̸⇑` of Definition 4, and division. Selection
//! conditions ([`Condition`]) are Boolean combinations of comparisons,
//! `IS [NOT] NULL` predicates (`const(A)` / `null(A)` in the paper), `LIKE`,
//! `IN`-lists and black-box scalar subqueries.

pub mod builder {
    pub use crate::builder::*;
}
pub mod condition {
    pub use crate::condition::*;
}
pub mod eval {
    pub use crate::eval::*;
}
pub mod expr {
    pub use crate::expr::*;
}
pub mod schema_infer {
    pub use crate::schema_infer::*;
}
pub mod semantics {
    pub use crate::semantics::*;
}

pub use condition::{Condition, Operand};
pub use eval::eval;
pub use expr::{AggExpr, AggFunc, ProjCol, RaExpr};
pub use semantics::NullSemantics;
