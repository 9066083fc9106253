//! # pgssi — Serializable Snapshot Isolation in PostgreSQL, in Rust
//!
//! A from-scratch reproduction of *Serializable Snapshot Isolation in
//! PostgreSQL* (Ports & Grittner, VLDB 2012): an embeddable multi-versioned
//! relational engine whose `SERIALIZABLE` isolation level is implemented with
//! SSI — snapshot isolation plus runtime detection of dangerous rw-
//! antidependency structures — rather than two-phase locking.
//!
//! ## Quickstart
//!
//! ```
//! use pgssi::{row, Database, IsolationLevel, TableDef};
//!
//! let db = Database::open();
//! db.create_table(TableDef::new("accounts", &["id", "balance"], vec![0])).unwrap();
//!
//! let mut txn = db.begin(IsolationLevel::Serializable);
//! txn.insert("accounts", row![1, 100]).unwrap();
//! txn.insert("accounts", row![2, 250]).unwrap();
//! txn.commit().unwrap();
//!
//! let mut txn = db.begin(IsolationLevel::Serializable);
//! let alice = txn.get("accounts", &row![1]).unwrap().unwrap();
//! assert_eq!(alice[1].as_int(), Some(100));
//! txn.commit().unwrap();
//! ```
//!
//! Serialization failures (SQLSTATE 40001 analogues) are normal operation:
//! wrap application transactions in [`with_retries`].
//!
//! ```
//! use pgssi::{row, with_retries, BeginOptions, Database, IsolationLevel, TableDef};
//!
//! let db = Database::open();
//! db.create_table(TableDef::new("kv", &["k", "v"], vec![0])).unwrap();
//! let out = with_retries(
//!     &db,
//!     BeginOptions::new(IsolationLevel::Serializable),
//!     10,
//!     |txn| txn.insert("kv", row![1, 1]),
//! ).unwrap();
//! assert_eq!(out.attempts, 1);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`pgssi_common`] | ids, snapshots, values, lock targets, errors, config |
//! | [`pgssi_storage`] | MVCC tuple heap, commit log, transaction manager |
//! | [`pgssi_index`] | B+-tree (gap-lock reporting) and hash indexes |
//! | [`pgssi_lockmgr`] | SIREAD lock manager + S2PL baseline lock manager |
//! | [`pgssi_core`] | the SSI runtime (PostgreSQL `predicate.c` analog) |
//! | [`pgssi_engine`] | tables, transactions, 2PC, replication, vacuum |

pub use pgssi_common::{
    row, CommitSeqNo, EngineConfig, Error, Key, Result, Row, SerializationKind, Snapshot,
    SsiConfig, TxnId, Value,
};
pub use pgssi_core::{SafetyState, SsiManager};
pub use pgssi_engine::{
    with_retries, BeginOptions, Database, IndexDef, IndexKind, IsolationLevel, Replica, TableDef,
    Transaction, WalRecord,
};

// Re-export the component crates for advanced use. (`pgssi_core` is exported
// as `ssi` to avoid shadowing the language's `core` crate.)
pub use pgssi_common as common;
pub use pgssi_core as ssi;
pub use pgssi_engine as engine;
pub use pgssi_index as index;
pub use pgssi_lockmgr as lockmgr;
pub use pgssi_storage as storage;
