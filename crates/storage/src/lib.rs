//! # pgssi-storage
//!
//! The MVCC tuple-heap substrate (paper §5.1): PostgreSQL-style versioned tuples
//! tagged with creating (`xmin`) and deleting (`xmax`) transaction ids, snapshots
//! taken against a commit log, and the transaction manager that assigns transaction
//! ids and commit sequence numbers.
//!
//! Three properties of PostgreSQL that the paper's SSI implementation depends on are
//! reproduced faithfully here:
//!
//! 1. **Updates create new tuple versions at new physical locations** ("updating a
//!    tuple is, in most respects, identical to deleting the existing version and
//!    creating a new tuple", §5.1) — so tuple-granularity predicate locks are keyed
//!    by physical `(page, slot)` location.
//! 2. **Write-before-read rw-conflicts are inferred from MVCC data during visibility
//!    checks** (§5.2): [`visibility::check_mvcc`] reports the conflict events the SSI
//!    core consumes, without any locking.
//! 3. **Tuple write locks live in the tuple header** (the `xmax` field) rather than
//!    a lock table; waiting for a conflicting writer means waiting for its
//!    transaction to finish, with deadlock detection on the waits-for graph
//!    ([`txn::TxnManager::wait_for`]).

pub mod clog;
pub mod heap;
mod once_table;
pub mod txn;
pub mod visibility;
pub mod wal;

pub use clog::{CommitLog, TxnStatus};
pub use heap::{Heap, HeapTuple, LockOutcome, NextPtr, PruneOutcome, TUPLES_PER_PAGE};
pub use txn::{TxnManager, TxnStats, WaitObserver};
pub use visibility::{check_mvcc, OwnXids, SingleXid, VisCheck, VisEvent, VisEvents};
pub use wal::{crc32, FileWalStore, Lsn, MemWalStore, WalStore, FRAME_HEADER};
