//! # pgssi-sim — deterministic simulation harness
//!
//! Runs the whole pgssi stack — storage, SSI core, engine, durability,
//! replication, and the session-pooled server — under the seeded cooperative
//! scheduler in [`pgssi_common::sim`], with faults injected from the same
//! seed. Every scheduling decision, wakeup fault, crash point, and workload
//! choice is a pure function of one `u64`, so **any failing run is a
//! replayable artifact**: re-run the `(scenario, seed)` pair and the exact
//! interleaving comes back, byte for byte.
//!
//! The harness has three layers (DESIGN.md §8):
//!
//! - [`fault`] — the seed-derived [`fault::FaultPlan`] (what breaks, when)
//!   and [`fault::SimWalStore`], an in-memory `WalStore` that tears writes,
//!   fails fsyncs, and "crashes" at a planned byte offset.
//! - [`history`] + [`scenario`] — seeded workloads over the real engine that
//!   record every committed transaction, then check the TLA+-style SSI
//!   properties (snapshot reads, first-committer-wins, serialization-graph
//!   acyclicity) plus engine oracles (recovery ≡ independent prefix replay,
//!   maintained snapshot ≡ rebuilt snapshot, atomic capture of shipped
//!   replication metadata).
//! - [`runner`] — dispatch and reporting; the `sim_ssi` binary drives seed
//!   sweeps from the command line and prints a replay line for any failure.
//!
//! One scenario doubles as a regression fixture: `pivot` accepts an `emulate`
//! flag that re-enables a historical race behind its original gate (the
//! pivot-precommit check race from the SSI core). Tests assert the harness
//! finds the bug with the flag on and stays silent with it off — evidence
//! the checker detects real violations, not just that the engine passes.

pub mod fault;
pub mod history;
pub mod runner;
pub mod scenario;

pub use fault::{FaultPlan, SimWalStore};
pub use runner::{run_scenario, SeedOutcome, DEFAULT_SCALE, SCENARIOS};
