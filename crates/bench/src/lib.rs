//! # certus-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation, plus the two fault-injection loops over the server:
//!
//! | paper artefact | function | binary |
//! |---|---|---|
//! | Figure 1 (false-positive rates) | [`experiments::figure1`] | `experiments fig1` |
//! | Figure 4 (price of correctness) | [`experiments::figure4`] | `experiments fig4` |
//! | Table 1 (scaling) | [`experiments::table1`] | `experiments table1` |
//! | Section 5 (Fig. 2 translation infeasible) | [`experiments::section5`] | `experiments sec5` |
//! | Precision / recall claims (§7) | [`experiments::precision_recall`] | `experiments precision` |
//! | §7 discussion (optimizer confusion ablation) | [`experiments::or_split_ablation`] | `experiments ablation` |
//! | — (crash/recover loop under WAL faults) | [`experiments::chaos_experiment`] | `experiments chaos` |
//! | — (kill/promote loop under stream faults) | [`experiments::replicated_chaos_experiment`] | `experiments chaos --replicated` |
//!
//! Absolute numbers differ from the paper (our substrate is an in-memory Rust
//! engine at milli-scale, not PostgreSQL on 1–10 GB instances); the *shape* —
//! who wins, by roughly what factor, and the trends across null rates and
//! scale — is what the harness reproduces. The chaos loops are correctness
//! runs: they assert and print, they do not measure. Every performance
//! figure of the system itself comes from the repository's `benchmark/`
//! package.

pub mod experiments;
pub(crate) mod timing;
