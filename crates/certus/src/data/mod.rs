//! The data substrate of the *certus* workspace: everything the PODS'16 paper
//! "Making SQL Queries Correct on Incomplete Databases" assumes about the data
//! model is implemented here.
//!
//! * [`Value`] — constants of several SQL types plus *marked nulls*
//!   ([`NullId`](null::NullId)). Codd nulls are the special case where every
//!   null id occurs at most once in a database.
//! * `Truth` — SQL's three-valued logic (3VL) with Kleene connectives.
//! * Comparison semantics: `compare::sql_cmp` (3VL, `NULL` comparisons are
//!   `Unknown`) and `compare::naive_cmp` (naive evaluation — nulls behave as
//!   ordinary values, `⊥ᵢ = ⊥ᵢ` is true).
//! * `unify` — unifiability of values and tuples (Definition 2 of the
//!   paper), correct for repeated (marked) nulls via a union-find.
//! * [`Valuation`] — maps from nulls to constants; applying a valuation to a
//!   database yields one of the complete databases it represents.
//! * [`Schema`], [`Tuple`], [`Relation`], [`Database`] — incomplete relational
//!   instances, active domains, key constraints.
//! * [`mod@column`] — columnar batches: typed column vectors with null bitmaps
//!   that preserve marked-null ids, plus three-valued
//!   `TruthMask`s for vectorized predicate evaluation.
//! * [`intern`] — the per-database string pool ([`StrPool`](intern::StrPool)):
//!   deduplicated storage and dense ids for cheap hashing/equality on string
//!   columns.
//! * [`inject`] — the null-injection procedure of Section 3 of the paper
//!   (per-attribute coin flip at a configurable *null rate*).
//! * [`mod@codec`] — the binary encoding of values, schemas, tuples and
//!   relations, shared by the server's wire protocol and the durable
//!   storage layer.
//! * [`wal`] — durable snapshot storage: a checksummed write-ahead log with
//!   full-snapshot checkpoints and crash recovery ([`wal::DurableStore`]).

pub mod builder {
    pub use crate::builder::rel;
}
pub mod codec {
    pub use crate::codec::*;
}
pub mod column {
    pub use crate::column::*;
}
pub mod compare {
    pub use crate::compare::*;
}
pub mod database {
    pub use crate::database::*;
}
pub mod inject {
    pub use crate::inject::*;
}
pub mod intern {
    pub use crate::intern::*;
}
pub(crate) use crate::like;
pub mod null {
    pub use crate::null::*;
}
pub mod relation {
    pub use crate::relation::*;
}
pub mod schema {
    pub use crate::schema::*;
}
pub mod snapshot {
    pub use crate::snapshot::*;
}
pub(crate) use crate::truth;
pub mod tuple {
    pub use crate::tuple::*;
}
pub mod types {
    pub use crate::types::*;
}
pub(crate) use crate::unify;
pub mod valuation {
    pub use crate::valuation::*;
}
pub mod value {
    pub use crate::value::*;
}
pub mod wal {
    pub use crate::wal::*;
}

pub use database::Database;
pub use relation::Relation;
pub use schema::{Attribute, Schema};
pub use tuple::Tuple;
pub use types::ValueType;
pub use valuation::Valuation;
pub use value::Value;
