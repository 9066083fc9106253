//! # pgssi-engine
//!
//! The embeddable relational engine that ties the pgssi substrates together the
//! way PostgreSQL 9.1 does (paper §5): an MVCC heap per table, B+-tree (and
//! hash) secondary indexes with index-range predicate locking, and four
//! isolation levels —
//!
//! | level | mechanism |
//! |---|---|
//! | [`IsolationLevel::ReadCommitted`] | per-statement snapshots, no read locks |
//! | [`IsolationLevel::RepeatableRead`] | transaction snapshot (classic SI — PostgreSQL's pre-9.1 "SERIALIZABLE") |
//! | [`IsolationLevel::Serializable`] | SI + SSI conflict tracking (the paper's contribution) |
//! | [`IsolationLevel::Serializable2pl`] | strict two-phase locking baseline used in §8 |
//!
//! Feature interactions from §7 are implemented: two-phase commit persists
//! SIREAD locks and recovers conservatively (§7.1); log-shipping replication
//! ships §8.4 commit-order/conflict metadata so a follower derives safe
//! snapshots locally (the §7.2 marker protocol is that rule's
//! empty-pending-set case);
//! savepoints keep SIREAD locks on subtransaction rollback and
//! suppress the write-lock-drop optimization (§7.3); hash indexes, lacking
//! predicate-lock support, fall back to relation-level locks (§7.4); and DDL
//! (`recluster`, `drop_index`) promotes physical SIREAD locks to relation
//! granularity (§5.2.1).

pub mod catalog;
pub mod cluster;
pub mod database;
pub mod durability;
pub mod replication;
pub mod retry;
pub mod twophase;
pub mod txn;
pub mod vacuum;

pub use catalog::{IndexDef, IndexKind, TableDef};
pub use cluster::{ClusterStats, Router, ShardedDatabase, ShardedTransaction};
pub use database::{
    BeginOptions, Database, IsolationLevel, LatencyReport, SessionStats, StatsReport,
};
pub use durability::{decode_commit, encode_commit, DurableWal, RedoOp, CHECKPOINT_FILE, WAL_FILE};
pub use pgssi_core::CommitDigest;
pub use replication::{Replica, ReplicationStats, WalRecord, WalStream};
pub use retry::with_retries;
pub use txn::Transaction;
