//! # pgssi-bench
//!
//! Workload generators and measurement harnesses reproducing the paper's
//! evaluation (§8):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`sibench`] | Figure 4 — SIBENCH microbenchmark |
//! | [`dbt2`] | Figures 5a/5b — DBT-2++ (TPC-C-like + Cahill's credit check) |
//! | [`rubis`] | Figure 6 — RUBiS-style auction bidding mix |
//! | [`deferrable`] | §8.4 — deferrable-transaction safe-snapshot latency |
//!
//! Each harness binary (`fig4_sibench`, `fig5_dbt2`, `fig6_rubis`,
//! `sec84_deferrable`) prints the same rows/series the paper reports; see
//! EXPERIMENTS.md for paper-vs-measured comparisons. Absolute numbers differ
//! from the paper's testbed, but the comparative *shape* (who wins, by what
//! factor, where curves converge) is the reproduction target.
//!
//! Three more binaries are the repo's own figures rather than the paper's
//! (`fig_sessions`, `fig_replication`, `fig_cluster`). Every binary accepts
//! `--stats` to print the aggregated
//! [`pgssi_engine::Database::stats_report`] after the run. Performance claims
//! are made with `benchmark/observatory`, not with these.

pub mod args;
pub mod dbt2;
pub mod deferrable;
pub mod harness;
pub mod rubis;
pub mod sibench;

pub use args::BenchArgs;
pub use harness::{Mode, RunResult};
