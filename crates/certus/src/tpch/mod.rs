//! The TPC-H substrate used by the paper's experiments, rebuilt in Rust:
//!
//! * `schema` — the TPC-H schema with primary keys and nullability flags
//!   (primary-key columns are non-nullable; every other column is nullable,
//!   exactly the split Section 3 of the paper uses for null injection).
//! * [`dbgen`] — a deterministic, scaled-down `DBGen`-style generator. The
//!   paper runs on 1–10 GB instances; our engine is in-memory, so a *scale
//!   factor* of `1.0` corresponds to the paper's 1 GB instance divided by
//!   1000 (the same reduction the paper itself applies for its
//!   false-positive experiments with DataFiller).
//! * [`datafiller`] — a simpler schema-driven random filler, standing in for
//!   the DataFiller tool used in Section 4.
//! * [`params`] — random query parameters (`$nation`, `$countries`,
//!   `$supp_key`, `$color`).
//! * [`queries`] — the four test queries Q1–Q4 as relational algebra
//!   expressions, following the SQL given in Section 3.
//! * [`fp_detect`] — the specialised false-positive detectors of Section 4
//!   (Algorithms 1 and 2 plus the simple checks for Q2 and Q3).
//! * [`workload`] — glue to produce incomplete instances at a given null rate.

pub mod datafiller {
    pub use crate::datafiller::*;
}
pub mod dbgen {
    pub use crate::dbgen::*;
}
pub mod fp_detect {
    pub use crate::fp_detect::*;
}
pub mod params {
    pub use crate::params::*;
}
pub mod queries {
    pub use crate::queries::*;
}
pub(crate) mod schema;
pub(crate) use crate::text;
pub mod workload {
    pub use crate::workload::*;
}

pub use dbgen::DbGen;
pub use params::QueryParams;
pub use queries::{q1, q2, q3, q4, query_by_number};
pub use workload::Workload;
