//! The individual rewrite passes.
//!
//! Each module exposes its rewrite as a free function of the
//! [`crate::pass::Pass`] shape; [`crate::pass::PASSES`] lists them in order:
//!
//! * [`fold`] — constant / condition folding and trivial-selection removal;
//! * [`pushdown`] — predicate pushdown towards the scans;
//! * [`collapse`] — projection / distinct collapsing;
//! * [`null_prune`] — nullability-aware `IS [NOT] NULL` pruning (paper,
//!   Corollary 1);
//! * [`key_antijoin`] — the key-based simplification `R ⋉̸⇑ S → R − S`
//!   (paper, Section 7);
//! * [`or_split`] — OR-splitting of anti-join and join conditions (paper,
//!   Section 7).

pub mod collapse;
pub mod fold;
pub mod key_antijoin;
pub mod null_prune;
pub mod or_split;
pub mod pushdown;
