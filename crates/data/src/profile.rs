//! Process-wide profiling counters for the hot-path work the compiled
//! operator runtime is supposed to eliminate.
//!
//! Two kinds of per-execution overhead belong to planning and compilation,
//! never to executing a compiled plan: column-*name resolution* (string
//! lookups in [`crate::Schema::position_of`]) and *schema inference*
//! (re-deriving operator output schemas). A third, *column extraction*
//! ([`crate::column::Column::extract`]), belongs to execution but depends
//! only on the snapshot for base relations, which keep their extracted
//! columns ([`crate::Relation::column`]); re-executing a plan over an
//! unchanged snapshot extracts only the columns of its intermediates.
//!
//! The counters themselves now live in the process-wide
//! [`certus_obs::metrics::MetricsRegistry`] under the `data.*` names — this
//! module is a thin shim that keeps the original record functions and the
//! [`ProfileSnapshot`]/[`ProfileSnapshot::delta_since`] API stable for
//! existing tests, while anything registry-aware (benches, the session
//! facade, future servers) reads the same counters through
//! [`certus_obs::MetricsSnapshot`].
//!
//! The counters are global and monotone — meaningful as *deltas* taken while
//! no other engine work runs in the process.

use certus_obs::metrics::{registry, Counter};
use certus_obs::names;
use std::sync::{Arc, OnceLock};

fn name_resolutions() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_NAME_RESOLUTIONS))
}

fn schema_inferences() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_SCHEMA_INFERENCES))
}

fn column_extractions() -> &'static Counter {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| registry().counter(names::DATA_COLUMN_EXTRACTIONS))
}

/// A snapshot of all profiling counters, for delta assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Column-name → position resolutions performed so far.
    pub name_resolutions: u64,
    /// Operator output-schema inferences performed so far.
    pub schema_inferences: u64,
    /// Columns extracted from rows so far.
    pub column_extractions: u64,
}

impl ProfileSnapshot {
    /// Take a snapshot of the current counter values.
    pub fn now() -> ProfileSnapshot {
        ProfileSnapshot {
            name_resolutions: name_resolutions().value(),
            schema_inferences: schema_inferences().value(),
            column_extractions: column_extractions().value(),
        }
    }

    /// The counter increments since an earlier snapshot.
    pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            name_resolutions: self.name_resolutions - earlier.name_resolutions,
            schema_inferences: self.schema_inferences - earlier.schema_inferences,
            column_extractions: self.column_extractions - earlier.column_extractions,
        }
    }

    /// Whether no planning or compilation work (name resolution, schema
    /// inference) happened between `earlier` and this snapshot. Column
    /// extraction is execution work and does not count.
    pub fn is_zero(&self) -> bool {
        self.name_resolutions == 0 && self.schema_inferences == 0
    }
}

/// Record one column-name resolution (called by [`crate::Schema::position_of`]).
#[inline]
pub(crate) fn record_name_resolution() {
    name_resolutions().incr();
}

/// Record one operator output-schema inference (called by the algebra crate's
/// `output_schema`).
#[inline]
pub fn record_schema_inference() {
    schema_inferences().incr();
}

/// Record one column extraction (called by
/// [`crate::column::Column::extract`]).
#[inline]
pub(crate) fn record_column_extraction() {
    column_extractions().incr();
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_obs::MetricsSnapshot;

    #[test]
    fn deltas_track_recorded_events() {
        let before = ProfileSnapshot::now();
        record_name_resolution();
        record_schema_inference();
        record_column_extraction();
        let delta = ProfileSnapshot::now().delta_since(&before);
        // Other tests in this process may also record events concurrently,
        // so only lower bounds are stable here.
        assert!(delta.name_resolutions >= 1);
        assert!(delta.schema_inferences >= 1);
        assert!(delta.column_extractions >= 1);
        assert!(!delta.is_zero());
    }

    #[test]
    fn shim_and_registry_read_the_same_counters() {
        let before = MetricsSnapshot::now();
        record_name_resolution();
        let delta = MetricsSnapshot::now().delta_since(&before);
        assert!(delta.counter(names::DATA_NAME_RESOLUTIONS) >= 1);
        assert_eq!(
            ProfileSnapshot::now().name_resolutions,
            MetricsSnapshot::now().counter(names::DATA_NAME_RESOLUTIONS)
        );
    }
}
