//! # pgssi-lockmgr
//!
//! Two lock managers, mirroring the paper's implementation (§5.2.1) and its
//! evaluation baseline (§8):
//!
//! * [`siread::SireadLockManager`] — the new SSI lock manager. It stores **only**
//!   SIREAD locks, supports no other modes, and therefore **cannot block**; its
//!   job is answering "which serializable transactions have read this object?"
//!   when a write happens. It implements multigranularity targets *without*
//!   intention locks (writers check coarse→fine), threshold-driven granularity
//!   promotion, page-split lock copying, DDL promotion to relation granularity,
//!   and consolidation of committed transactions' locks onto a dummy owner for
//!   the paper's summarization scheme (§6.2). Like PostgreSQL's predicate lock
//!   table, it is hash-partitioned (§7/§8: 16 lightweight-lock partitions) with
//!   per-partition contention counters, so disjoint data takes disjoint mutexes.
//!   On top of the partitioning, reads are *batched*: a transaction accumulates
//!   its read set locally ([`readset::TxReadSet`]) and publishes it to the
//!   partition table in batches, with a shared presence filter
//!   ([`readset::PresenceFilter`]) keeping unpublished reads visible to
//!   writers — so the common read takes no partition mutex at all.
//!
//! * [`s2pl::S2plLockManager`] — a classic strict two-phase-locking manager with
//!   IS/IX/S/SIX/X modes, blocking wait queues, and waits-for-graph deadlock
//!   detection. The paper's S2PL baseline reuses the SSI lock manager's
//!   index-range and multigranularity scheme but takes "classic" read locks in
//!   the heavyweight lock manager; this is that heavyweight manager.
//!
//! Lock owners are opaque `u64`s ([`OwnerId`]); the SSI core maps them to its
//! serializable-transaction records, and the engine maps them to transactions.

pub mod readset;
pub mod s2pl;
pub mod siread;

/// Opaque lock-owner identifier (the SSI core's record id, which is the
/// transaction's top-level txid, or the engine's txn id for the S2PL
/// baseline).
pub type OwnerId = u64;

/// Owner id reserved for the dummy "old committed transaction" that absorbs
/// summarized transactions' SIREAD locks (paper §6.2).
pub const OLD_COMMITTED_OWNER: OwnerId = 0;
