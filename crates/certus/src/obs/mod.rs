//! Observability layer for certus: a process-wide [`MetricsRegistry`](metrics::MetricsRegistry) of
//! relaxed-atomic counters/gauges/histograms, per-execution operator
//! profiles ([`QueryProfile`]), and `EXPLAIN` / `EXPLAIN ANALYZE`
//! ([`ExplainPlan`]).
//!
//! The module is std-only and sits at the bottom of the crate's dependency
//! graph so every layer — data substrate, planner, engine, session facade,
//! bench harness — can report through the same substrate without cycles.
//!
//! Three pieces:
//!
//! * [`metrics`] — named process-wide counters ("how many plan-cache hits
//!   since startup?") with a snapshot/delta API for tests and benches.
//! * [`profile`] — per-execution operator actuals (rows, batches, wall
//!   time, vectorized-vs-row-fallback, hash build/probe stats, morsel
//!   distribution), recorded by plan node id while a compiled plan runs and
//!   frozen into a tree in the compiled plan's shape.
//! * [`analyzed`] — `EXPLAIN` and `EXPLAIN ANALYZE`: one view of a plan's
//!   nodes by id, cost-model estimates alone or beside the measured
//!   actuals, with text and JSON renderers.
//!
//! Plus [`failpoint`] — deterministic fault injection for crash-safety
//! testing: named points production code checks at fault-prone boundaries,
//! armed by tests or `CERTUS_FAILPOINTS`, costing one relaxed atomic load
//! when disarmed.
//!
//! ```
//! use certus::obs::metrics::registry;
//!
//! let c = registry().counter("doc.example.events");
//! let before = registry().snapshot();
//! c.incr();
//! let delta = registry().snapshot().delta_since(&before);
//! assert_eq!(delta.counter("doc.example.events"), 1);
//! ```

pub mod analyzed {
    pub use crate::analyzed::*;
}
pub mod failpoint {
    pub use crate::failpoint::*;
}
pub mod json {
    pub use crate::json::*;
}
pub mod metrics {
    pub use crate::metrics::*;
}
pub mod names {
    pub use crate::names::*;
}
pub mod profile {
    pub use crate::profile::*;
}
pub mod time {
    pub use crate::time::*;
}

pub use analyzed::{Actual, ExplainNode, ExplainPlan};
pub use failpoint::{failpoints, FailAction};
pub use metrics::{registry, Counter};
pub use profile::QueryProfile;
pub use time::Timer;
