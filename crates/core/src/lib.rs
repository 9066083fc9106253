//! # pgssi-core
//!
//! The paper's primary contribution: PostgreSQL 9.1's Serializable Snapshot
//! Isolation runtime (the `predicate.c` machinery), reimplemented over the
//! pgssi storage and lock-manager substrates.
//!
//! The [`SsiManager`] tracks one [`sxact::Sxact`] record per serializable
//! transaction and maintains the rw-antidependency graph restricted to what SSI
//! needs (§5.3): full in/out edge *lists* (not single flags), enabling
//!
//! * the **commit-ordering optimization** (§3.3.1): a dangerous structure
//!   `T1 –rw→ T2 –rw→ T3` only forces an abort if `T3` committed first;
//! * the **read-only snapshot ordering rule** (§4.1, Theorem 3): if `T1` is
//!   read-only, the structure is dangerous only if `T3` committed before `T1`'s
//!   snapshot (both rules are one pure function, [`rule::dangerous`]);
//! * **safe snapshots** and **deferrable transactions** (§4.2–4.3);
//! * **safe-retry victim selection** (§5.4);
//! * **aggressive cleanup** and **summarization** under fixed memory (§6), with
//!   the horizon-truncated [`serial::SerialTable`] holding summarized conflict
//!   data;
//! * **two-phase commit** integration (§7.1): a prepared transaction carries
//!   conservative conflict flags from PREPARE on, live or recovered.
//!
//! Conflicts reach the manager from two directions, exactly as in PostgreSQL
//! (§5.2): MVCC visibility checks report *write-before-read* conflicts
//! ([`SsiManager::on_mvcc_events`]), and the SIREAD lock manager reports
//! *read-before-write* conflicts ([`SsiManager::on_write`]).

pub mod manager;
mod registry;
pub mod rule;
pub mod serial;
pub mod sxact;
pub mod twophase;

pub use manager::{CommitDigest, SafetyState, SsiManager, SsiStats};
pub use sxact::SxactHandle;
pub use twophase::PreparedSsi;
