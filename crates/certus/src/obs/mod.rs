//! Observability layer for certus: a process-wide [`MetricsRegistry`](metrics::MetricsRegistry) of
//! relaxed-atomic counters/gauges/histograms, per-execution operator
//! profiles ([`QueryProfile`]), and estimate-vs-actual plan annotation
//! ([`AnalyzedPlan`]).
//!
//! The module is std-only and sits at the bottom of the crate's dependency
//! graph so every layer — data substrate, planner, engine, session facade,
//! bench harness — can report through the same substrate without cycles.
//!
//! Three pieces:
//!
//! * [`metrics`] — named process-wide counters ("how many plan-cache hits
//!   since startup?") with a snapshot/delta API for tests and benches.
//! * [`profile`] — a per-execution tree of operator actuals (rows, batches,
//!   wall time, vectorized-vs-row-fallback, hash build/probe stats, morsel
//!   distribution) collected while a compiled plan runs.
//! * [`analyzed`] — the `EXPLAIN ANALYZE` product: cost-model estimates and
//!   measured actuals side by side for every plan node, with text and JSON
//!   renderers.
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

pub use analyzed::AnalyzedPlan;
pub use failpoint::{failpoints, FailAction};
pub use metrics::{registry, Counter};
pub use profile::QueryProfile;
pub use time::Timer;
