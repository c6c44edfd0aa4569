//! The primary contribution of the reproduced paper (Paolo Guagliardo and
//! Leonid Libkin, *Making SQL Queries Correct on Incomplete Databases: A
//! Feasibility Study*, Proceedings of the 35th ACM SIGMOD-SIGACT-SIGAI
//! Symposium on Principles of Database Systems — PODS 2016, pp. 211–223):
//! query translations that make SQL evaluation return **only certain
//! answers** on databases with nulls.
//!
//! * `theta` — the condition translations `θ*` and `θ**` of Sections 5–6,
//!   in both the *theoretical* dialect (paired with naive evaluation) and the
//!   *SQL-adjusted* dialect of Section 7 (paired with SQL's three-valued
//!   evaluation).
//! * [`translate::translate_plus`] / [`translate::translate_star`] — the
//!   improved, implementation-friendly translation `Q ↦ (Q⁺, Q★)` of Figure 3,
//!   extended to the derived operators (joins, semijoins, anti-joins) in the
//!   way sanctioned by Corollary 1.
//! * [`naive_translation::translate_t`] (with its dual `translate_f`) —
//!   the original translation `Q ↦ (Qᵗ, Qᶠ)` of \[22\] (Figure 2), kept as the
//!   baseline whose impracticality Section 5 demonstrates.
//! * [`certain`] — an exact (exponential) certain-answer oracle used as ground
//!   truth.
//! * [`rewriter::CertainRewriter`] — the high-level API tying it together:
//!   a translation followed by the rewrite passes of `certus::plan` (the
//!   syntactic manipulations of Section 7 among them). Evaluating the result
//!   is the engine's job (`certus::Session`).
//! * [`metrics`] — false-positive accounting of an answer against its
//!   certain part.

pub mod certain {
    pub use crate::certain::*;
}
pub mod dialect {
    pub use crate::dialect::*;
}
pub mod metrics;
pub mod naive_translation {
    pub use crate::naive_translation::*;
}
pub mod rewriter {
    pub use crate::rewriter::*;
}
pub(crate) use crate::theta;
pub mod translate {
    pub use crate::translate::*;
}

pub use dialect::ConditionDialect;
pub use rewriter::CertainRewriter;
pub use translate::{translate_plus, translate_star};
