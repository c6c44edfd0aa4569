//! The one error type of certus.
//!
//! Every layer — data, algebra, translation, planning, execution and the
//! [`Session`](crate::Session) facade — reports failures as an [`Error`], so
//! `?` needs no conversions and callers match on one enum (or just print it).

use std::fmt;

/// Any error certus can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An attribute name could not be resolved against a schema.
    UnknownAttribute {
        /// The attribute that was requested.
        name: String,
        /// The attributes that were available.
        available: Vec<String>,
    },
    /// An attribute name resolves to more than one column.
    AmbiguousAttribute {
        /// The attribute that was requested.
        name: String,
        /// The columns it matched.
        matches: Vec<String>,
    },
    /// A tuple's arity does not match the schema it is inserted into.
    ArityMismatch {
        /// Expected number of columns.
        expected: usize,
        /// Number of values provided.
        found: usize,
    },
    /// Two schemas that were required to be identical differ.
    SchemaMismatch {
        /// Description of the context in which the mismatch occurred.
        context: String,
        /// Left-hand schema rendering.
        left: String,
        /// Right-hand schema rendering.
        right: String,
    },
    /// A value of an unexpected type was encountered.
    TypeError {
        /// Description of the expectation that was violated.
        expected: String,
        /// Rendering of the offending value.
        found: String,
    },
    /// A named table does not exist in the database/catalog.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// A NOT NULL / primary-key column received a null value.
    NullInNonNullable {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A data-layer invariant was violated.
    InvalidData(String),
    /// An expression is malformed (e.g. set operation over incompatible
    /// schemas, unification semijoin over different arities).
    Malformed(String),
    /// A scalar subquery returned more than one row or more than one column.
    ScalarSubquery(String),
    /// A feature is not supported by the operation that was attempted
    /// (e.g. desugaring an aggregate for the Figure-2 translation).
    Unsupported(String),
    /// Execution was cancelled cooperatively (deadline expired or the
    /// caller gave up); the partial work was discarded at a morsel boundary.
    Cancelled,
    /// The query uses an operator outside the supported fragment for the
    /// requested translation (e.g. aggregates in the main operator tree, or
    /// explicit unification semijoins in a source query).
    OutsideFragment(String),
    /// The certain-answer oracle would need to enumerate more valuations than
    /// the configured limit.
    TooManyValuations {
        /// Number of valuations that would be needed.
        needed: u128,
        /// The configured limit.
        limit: u128,
    },
    /// A rewrite pass or the physical planner produced or received an
    /// expression it cannot handle.
    InvalidPlan(String),
    /// A [`PreparedQuery`](crate::PreparedQuery) was executed against a
    /// database whose schema epoch moved past the one it was planned at;
    /// re-prepare the query to get a fresh plan.
    StalePlan {
        /// The schema epoch the query was prepared at.
        prepared_epoch: u64,
        /// The database's current schema epoch.
        current_epoch: u64,
    },
}

impl Error {
    /// Whether this error is a cooperative cancellation (deadline expiry or
    /// an explicit cancel), as opposed to a genuine failure. The server maps
    /// these to its `DeadlineExceeded` wire code.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Error::Cancelled)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { name, available } => {
                write!(f, "unknown attribute `{name}` (available: {})", available.join(", "))
            }
            Error::AmbiguousAttribute { name, matches } => {
                write!(f, "ambiguous attribute `{name}` (matches: {})", matches.join(", "))
            }
            Error::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected} columns, found {found}")
            }
            Error::SchemaMismatch { context, left, right } => {
                write!(f, "schema mismatch in {context}: {left} vs {right}")
            }
            Error::TypeError { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            Error::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            Error::DuplicateTable(name) => write!(f, "table `{name}` already exists"),
            Error::NullInNonNullable { table, column } => {
                write!(f, "null value in non-nullable column {table}.{column}")
            }
            Error::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            Error::Malformed(m) => write!(f, "malformed expression: {m}"),
            Error::ScalarSubquery(m) => write!(f, "scalar subquery error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Cancelled => write!(f, "execution cancelled"),
            Error::OutsideFragment(m) => write!(f, "query outside supported fragment: {m}"),
            Error::TooManyValuations { needed, limit } => {
                write!(f, "certain-answer oracle would need {needed} valuations (limit {limit})")
            }
            Error::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            Error::StalePlan { prepared_epoch, current_epoch } => write!(
                f,
                "prepared query is stale: planned at schema epoch {prepared_epoch}, \
                 database is now at {current_epoch} (re-prepare it)"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used across certus.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> String {
        v.to_string()
    }

    /// Asserts each error's text, as it reaches the wire in a `QueryError`
    /// message, and that no kind wraps another error.
    fn assert_texts(rows: Vec<(Error, &str)>) {
        for (error, text) in rows {
            assert_eq!(error.to_string(), text, "{error:?}");
            let as_std: &dyn std::error::Error = &error;
            assert!(as_std.source().is_none(), "{error:?}");
            assert_eq!(error.is_cancelled(), error == Error::Cancelled);
        }
    }

    #[test]
    fn display_text_of_every_kind() {
        assert_texts(vec![
            (
                Error::UnknownAttribute { name: s("x"), available: vec![s("a"), s("b")] },
                "unknown attribute `x` (available: a, b)",
            ),
            (
                Error::AmbiguousAttribute { name: s("a"), matches: vec![s("r.a"), s("s.a")] },
                "ambiguous attribute `a` (matches: r.a, s.a)",
            ),
            (
                Error::ArityMismatch { expected: 3, found: 2 },
                "arity mismatch: expected 3 columns, found 2",
            ),
            (
                Error::SchemaMismatch { context: s("union"), left: s("(a)"), right: s("(b)") },
                "schema mismatch in union: (a) vs (b)",
            ),
            (
                Error::TypeError { expected: s("int"), found: s("'x'") },
                "type error: expected int, found 'x'",
            ),
            (Error::UnknownTable(s("t")), "unknown table `t`"),
            (Error::DuplicateTable(s("t")), "table `t` already exists"),
            (
                Error::NullInNonNullable { table: s("t"), column: s("k") },
                "null value in non-nullable column t.k",
            ),
            (Error::InvalidData(s("d")), "invalid data: d"),
            (Error::Malformed(s("x")), "malformed expression: x"),
            (Error::ScalarSubquery(s("2 rows")), "scalar subquery error: 2 rows"),
            (Error::Unsupported(s("agg")), "unsupported: agg"),
            (Error::Cancelled, "execution cancelled"),
            (Error::OutsideFragment(s("agg")), "query outside supported fragment: agg"),
            (
                Error::TooManyValuations { needed: 1000, limit: 10 },
                "certain-answer oracle would need 1000 valuations (limit 10)",
            ),
            (Error::InvalidPlan(s("p")), "invalid plan: p"),
            (
                Error::StalePlan { prepared_epoch: 3, current_epoch: 5 },
                "prepared query is stale: planned at schema epoch 3, database is now at 5 \
                 (re-prepare it)",
            ),
        ]);
    }

    // The cases the layers' own error types were tested with, each now a
    // kind of `Error`: a data error reads the same wherever it surfaces.

    #[test]
    fn display_unknown_attribute() {
        assert_texts(vec![(
            Error::UnknownAttribute { name: s("x"), available: vec![s("a"), s("b")] },
            "unknown attribute `x` (available: a, b)",
        )]);
    }

    #[test]
    fn display_arity() {
        assert_texts(vec![(
            Error::ArityMismatch { expected: 3, found: 2 },
            "arity mismatch: expected 3 columns, found 2",
        )]);
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::UnknownTable(s("t")));
    }

    #[test]
    fn wraps_data_error() {
        assert_texts(vec![(Error::UnknownTable(s("t")), "unknown table `t`")]);
    }

    #[test]
    fn display_malformed() {
        assert_texts(vec![(Error::Malformed(s("x")), "malformed expression: x")]);
    }

    #[test]
    fn displays_wrap_sources() {
        assert_texts(vec![
            (Error::UnknownTable(s("t")), "unknown table `t`"),
            (
                Error::TooManyValuations { needed: 1000, limit: 10 },
                "certain-answer oracle would need 1000 valuations (limit 10)",
            ),
        ]);
    }

    #[test]
    fn wraps_and_displays_sources() {
        assert_texts(vec![
            (Error::UnknownTable(s("t")), "unknown table `t`"),
            (Error::Malformed(s("x")), "malformed expression: x"),
            (Error::InvalidPlan(s("p")), "invalid plan: p"),
        ]);
    }

    #[test]
    fn every_layer_error_converts() {
        assert_texts(vec![
            (Error::UnknownTable(s("t")), "unknown table `t`"),
            (Error::Malformed(s("x")), "malformed expression: x"),
            (Error::OutsideFragment(s("agg")), "query outside supported fragment: agg"),
            (Error::InvalidPlan(s("p")), "invalid plan: p"),
        ]);
    }

    #[test]
    fn stale_plan_reports_both_epochs() {
        assert_texts(vec![(
            Error::StalePlan { prepared_epoch: 3, current_epoch: 5 },
            "prepared query is stale: planned at schema epoch 3, database is now at 5 \
             (re-prepare it)",
        )]);
    }
}
