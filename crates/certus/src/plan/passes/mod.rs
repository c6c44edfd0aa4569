//! The individual rewrite passes.
//!
//! Each module exposes its rewrite as a free function of the
//! [`crate::plan::pass::Pass`] shape; [`crate::plan::pass::PASSES`] lists them in order:
//!
//! * [`fold`] — constant / condition folding and trivial-selection removal;
//! * [`pushdown`] — predicate pushdown towards the scans;
//! * [`collapse`] — projection / distinct collapsing;
//! * [`null_prune`] — nullability-aware `IS [NOT] NULL` pruning (paper,
//!   Corollary 1);
//! * [`key_antijoin`] — the key-based simplification `R ⋉̸⇑ S → R − S`
//!   (paper, Section 7);
//! * [`or_split`] — OR-splitting of anti-join and join conditions (paper,
//!   Section 7);
//! * [`semijoin`] — a join whose right columns nobody reads, under a
//!   consumer that ignores duplicate rows, becomes a semijoin, and a key
//!   lookup (an (anti-)semijoin on the declared key of a base relation)
//!   goes into the join input it reads. The two rules open work for each
//!   other, so they share one walk. Last in the list: it reads the
//!   conditions where [`pushdown`] left them and moves semijoins without
//!   changing their conditions or right inputs, so no earlier pass gets new
//!   work.

pub mod collapse;
pub mod fold;
pub mod key_antijoin;
pub mod null_prune;
pub mod or_split;
pub mod pushdown;
pub mod semijoin;
