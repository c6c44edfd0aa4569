//! Marked nulls and null-id generation.
//!
//! The paper models missing information with elements of a countably infinite
//! set `Null`, written `⊥₁, ⊥₂, …`. *Codd nulls* are the special case where
//! each null occurs at most once in a database (this is how SQL's `NULL` is
//! usually modelled); *marked* (labelled) nulls may repeat. All translations
//! in `certus::core` are correct for both (paper, Section 2).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a (marked) null. Two occurrences of the same `NullId` denote
/// the *same* unknown value; distinct ids denote possibly different values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u64);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

/// Generator of fresh null identifiers.
///
/// A single process-wide generator (see [`NullGen::global`]) is used by the
/// null-injection code so that injected nulls are Codd nulls: every injection
/// site receives a fresh identifier.
#[derive(Debug)]
pub(crate) struct NullGen {
    next: AtomicU64,
}

impl NullGen {
    /// Create a new generator starting at the given id.
    pub(crate) fn starting_at(start: u64) -> Self {
        NullGen { next: AtomicU64::new(start) }
    }

    /// Create a new generator starting at 1.
    pub fn new() -> Self {
        Self::starting_at(1)
    }

    /// Produce a fresh, never-before-returned null id.
    pub fn fresh(&self) -> NullId {
        NullId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Access the process-wide generator.
    pub(crate) fn global() -> &'static NullGen {
        static GLOBAL: NullGen = NullGen { next: AtomicU64::new(1_000_000) };
        &GLOBAL
    }
}

impl Default for NullGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_distinct() {
        let g = NullGen::new();
        let a = g.fresh();
        let b = g.fresh();
        let c = g.fresh();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn starting_at_respected() {
        let g = NullGen::starting_at(42);
        assert_eq!(g.fresh(), NullId(42));
        assert_eq!(g.fresh(), NullId(43));
    }

    #[test]
    fn global_generator_monotone() {
        let a = NullGen::global().fresh();
        let b = NullGen::global().fresh();
        assert!(b.0 > a.0);
    }

    #[test]
    fn display_uses_bottom_symbol() {
        assert_eq!(NullId(7).to_string(), "⊥7");
    }
}
