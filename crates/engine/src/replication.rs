//! Log-shipping replication: §8.4 commit-metadata shipping.
//!
//! SSI breaks the classic "read-only queries on a replica's snapshot are
//! serializable" property: a read-only transaction can be the `T1` of a
//! dangerous structure (the batch-processing REPORT), and a replica cannot see
//! the master's rw-antidependency graph. The paper's §8.4 proposes shipping
//! commit-order/conflict metadata in the WAL — each commit record carries the
//! committer's CSN, its conflict digest, and the set of serializable
//! read/write transactions in flight at the commit — so a follower can decide
//! snapshot safety *locally*. That is the one protocol implemented here. The
//! stop-gap the paper actually shipped (§7.2: the master marks a **safe
//! snapshot**, §4.2, whenever a commit happens with no serializable
//! read/write transaction in flight) is the special case of the same rule
//! where the shipped concurrent set is empty; it survives only as a quantity
//! computed from the digests ([`ReplicationStats::marker_waits_avoided`]).
//!
//! Our WAL is logical and the replica shares the master's storage (physical
//! replication keeps the bytes identical anyway — see DESIGN.md §2); what is
//! faithfully modelled is the *protocol*: commit records with §8.4 metadata,
//! resolution records for serializable aborts and writeless commits, and the
//! replica's three options (latest safe snapshot, wait for the next one, or
//! run at a weaker isolation level).
//!
//! ## Why every record is published inside the commit-order critical section
//!
//! A digest read in one step and a snapshot taken in another would let a
//! serializable read/write transaction begin in between and be shipped
//! *inside* a snapshot whose pending set does not name it — exactly the
//! Figure-2 REPORT anomaly the protocol exists to prevent. Every publish path
//! runs under the SSI commit-order mutex
//! ([`pgssi_core::SsiManager::commit`] /
//! [`pgssi_core::SsiManager::observe_commit`] /
//! [`pgssi_core::SsiManager::abort`]), where serializable begins also
//! take their snapshots, so the {safety facts, snapshot, stream position}
//! triple is captured atomically. Two invariants follow by construction:
//!
//! 1. **candidates are complete**: every serializable read/write transaction
//!    in flight when a commit record's snapshot was captured is named in that
//!    record's `concurrent_rw`;
//! 2. **resolutions follow candidates**: a commit record that names `X` as
//!    concurrent precedes `X`'s own commit/abort record in the stream, so a
//!    follower may forget a resolution as soon as it has applied it.
//!
//! ## The follower's local safety rule (§4.2 / §8.4)
//!
//! Each shipped commit record opens a *candidate* snapshot (the post-commit
//! snapshot, captured with the digest) whose pending set is the shipped
//! `concurrent_rw`. Transactions that begin after the candidate cannot make
//! it unsafe: an rw-antidependency out to a transaction whose commit the
//! reader's snapshot already sees is impossible, so their conflict bounds are
//! necessarily `≥` the candidate's csn (same argument the master's own safe
//! snapshot tracking relies on). The candidate resolves as each pending
//! transaction's record arrives: an abort or writeless commit is harmless; a
//! writing commit with `earliest_out_conflict_commit < candidate.csn` proves
//! the candidate unsafe (the committer is a pivot a reader on that snapshot
//! could complete, Theorem 3) and the candidate is dropped. When the pending
//! set drains, the candidate *is* a safe snapshot — derived locally, with no
//! master round-trip. A candidate born with an empty pending set is safe on
//! arrival: the §7.2 case.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pgssi_common::stats::Counter;
use pgssi_common::{CommitSeqNo, Snapshot, TxnId};
use pgssi_core::CommitDigest;

use crate::database::DbInner;
use crate::txn::Transaction;
use crate::{BeginOptions, Database, IsolationLevel};

/// One record in the shipped log.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A writing transaction committed.
    Commit {
        /// The committed transaction.
        txid: TxnId,
        /// Its commit sequence number.
        csn: CommitSeqNo,
        /// §8.4 payload: the post-commit snapshot (the follower's candidate)
        /// and the commit digest, captured together in the master's
        /// commit-order critical section. The snapshot is a shared handle to
        /// the transaction manager's maintained snapshot — no `xip` copy is
        /// made on the commit path.
        meta: (Arc<Snapshot>, CommitDigest),
    },
    /// A serializable read/write transaction finished without a data-bearing
    /// commit record (it aborted, or committed without writing): followers
    /// drop it from their pending sets.
    Resolve {
        /// The resolved transaction.
        txid: TxnId,
        /// Its digest if it committed writeless; `None` if it aborted.
        digest: Option<CommitDigest>,
    },
}

/// Master-side replication counters (plus the replica-side derivation
/// counters, accumulated here so [`crate::Database::stats_report`] stays the
/// single aggregation point — replicas bump their master's counters, like the
/// session layer does).
#[derive(Default)]
pub struct ReplicationStats {
    /// WAL records appended, all kinds.
    pub records: Counter,
    /// Resolution records appended.
    pub resolves_shipped: Counter,
    /// Safe snapshots replicas derived locally from shipped metadata.
    pub safe_local: Counter,
    /// Locally derived safe snapshots whose candidate had serializable
    /// read/write transactions in flight — snapshots the §7.2 marker
    /// protocol would never have marked, i.e. marker waits avoided.
    pub marker_waits_avoided: Counter,
    /// Candidates proven unsafe and discarded (§4.2).
    pub unsafe_candidates: Counter,
    /// Replica catch-up calls.
    pub catch_ups: Counter,
    /// Sum over catch-ups of how many records the replica was behind —
    /// `lag_records / catch_ups` is the mean replication lag.
    pub lag_records: Counter,
    /// Distribution of per-catch-up lag (in *records behind*, not time):
    /// the histogram behind the mean above, so tail lag is visible too.
    pub lag_hist: pgssi_common::Histogram,
}

/// The master's outgoing log stream.
pub struct WalStream {
    records: Mutex<Vec<WalRecord>>,
    /// Attached consumers ([`Replica`]s). While zero, nothing is recorded:
    /// commits skip the publish work entirely (the SI/RC path does not even
    /// enter the commit-order section), so a database no replica ever
    /// watches pays nothing for the replication layer. Attach/detach happen
    /// inside a commit-order barrier, so "records published after my
    /// attach" is a well-defined, gap-free set for every replica.
    attached: AtomicUsize,
}

impl Default for WalStream {
    fn default() -> Self {
        Self::new()
    }
}

impl WalStream {
    /// Empty stream.
    pub fn new() -> WalStream {
        WalStream {
            records: Mutex::new(Vec::new()),
            attached: AtomicUsize::new(0),
        }
    }

    /// Whether any replica is attached (racy fast-path read; the publish
    /// hooks re-check inside the commit-order section).
    pub(crate) fn has_consumers(&self) -> bool {
        self.attached.load(Ordering::Relaxed) > 0
    }

    /// Register a consumer. Called from [`Replica::connect`] inside a
    /// commit-order barrier (see there for the ordering argument).
    pub(crate) fn attach(&self) {
        self.attached.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregister a consumer (replica drop).
    pub(crate) fn detach(&self) {
        self.attached.fetch_sub(1, Ordering::Relaxed);
    }

    fn push(&self, db: &DbInner, rec: WalRecord) {
        self.records.lock().push(rec);
        db.repl_stats.records.bump();
    }

    /// [`WalStream::publish_commit`] as a serializable commit's publish hook:
    /// `digest` builds the §8.4 digest on demand, and is only called when a
    /// replica is attached — decided here, inside the commit-order section,
    /// where [`WalStream::attach`] (run in a commit-order barrier) is ordered
    /// against it. With no replica the commit never builds a digest at all.
    pub(crate) fn publish_commit_lazy(&self, db: &DbInner, digest: &dyn Fn() -> CommitDigest) {
        if self.has_consumers() {
            self.publish_commit(db, digest());
        }
    }

    /// Append the record for a commit. Runs **inside the SSI commit-order
    /// critical section** (via the `publish` hooks of
    /// [`pgssi_core::SsiManager::commit`] /
    /// [`pgssi_core::SsiManager::observe_commit`]), so the digest, the
    /// post-commit snapshot taken here, and the record's stream position are
    /// mutually consistent — no serializable begin can interleave. A writeless
    /// non-serializable commit ships nothing: no follower waits on it.
    pub(crate) fn publish_commit(&self, db: &DbInner, digest: CommitDigest) {
        if !self.has_consumers() || digest.declared_read_only {
            return; // no replica to serve / can make no snapshot unsafe
        }
        if digest.wrote {
            self.push(
                db,
                WalRecord::Commit {
                    txid: digest.txid,
                    csn: digest.commit_csn,
                    meta: (db.tm.snapshot_arc(), digest),
                },
            );
        } else if digest.serializable {
            // Writeless serializable commits ship no data but must still
            // unpin followers waiting on them.
            let txid = digest.txid;
            self.push(
                db,
                WalRecord::Resolve {
                    txid,
                    digest: Some(digest),
                },
            );
            db.repl_stats.resolves_shipped.bump();
        }
    }

    /// Append the resolution record for a serializable read/write abort.
    /// Runs inside the commit-order critical section (the publish hook of
    /// [`pgssi_core::SsiManager::abort`]).
    pub(crate) fn publish_abort(&self, db: &DbInner, txid: TxnId) {
        if !self.has_consumers() {
            return;
        }
        self.push(db, WalRecord::Resolve { txid, digest: None });
        db.repl_stats.resolves_shipped.bump();
    }

    /// Total records shipped so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether anything has been shipped.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Records from `from` onward (replica catch-up). A cursor past the end —
    /// a reconnecting replica whose stale cursor outruns a master that
    /// restarted or truncated — yields an empty batch, never a panic.
    pub fn read_from(&self, from: usize) -> Vec<WalRecord> {
        let records = self.records.lock();
        match records.get(from..) {
            Some(tail) => tail.to_vec(),
            None => Vec::new(),
        }
    }
}

/// A candidate safe snapshot the follower is still deciding (§8.4): safe once
/// every transaction in `pending` has resolved harmlessly.
struct Candidate {
    snapshot: Arc<Snapshot>,
    pending: HashSet<TxnId>,
    /// Whether the pending set was non-empty at creation — if so, the §7.2
    /// marker protocol would never have marked this snapshot.
    awaited: bool,
}

/// A read-only replica consuming the master's log stream.
pub struct Replica {
    master: Database,
    /// Key of this replica's standing entry in the master's
    /// `active_snapshots` — the `hot_standby_feedback` analog. It pins the
    /// vacuum horizon at the latest safe snapshot the replica may serve, so
    /// the versions a future `begin_safe_query` needs cannot be pruned
    /// between derivation and the query's own registration. A synthetic key
    /// ([`crate::database::synthetic_snapshot_key`]), not a transaction.
    feedback_txid: TxnId,
    applied: Mutex<ReplicaState>,
}

struct ReplicaState {
    next_record: usize,
    /// Commit frontier at attach time: snapshots older than this may already
    /// be vacuumed (they predate this replica's feedback pin), so backlog
    /// candidates below it are discarded rather than served.
    floor: CommitSeqNo,
    latest_safe: Option<Arc<Snapshot>>,
    /// Outstanding candidates, oldest first. Bounded: each candidate waits
    /// only for transactions already running at its creation, so it either
    /// promotes or dies within one transaction lifetime of arriving.
    candidates: VecDeque<Candidate>,
}

impl Replica {
    /// Attach a replica to a master. Registers the feedback pin at the
    /// current commit frontier: every safe snapshot this replica derives
    /// from records shipped *after* this point has a csn at or past it, so
    /// the pin covers them from the instant they are derived. (Snapshots
    /// recovered from the pre-connect backlog are protected only once the
    /// pin tracks them — a master may already have vacuumed past those,
    /// exactly as a PostgreSQL primary may have before a standby's feedback
    /// first arrives.)
    pub fn connect(master: &Database) -> Replica {
        let feedback_txid = crate::database::synthetic_snapshot_key();
        // Attach inside a commit-order barrier: every commit/abort publish
        // section is totally ordered against this one, so every record whose
        // csn is at or past `floor` is guaranteed to be shipped, and the
        // feedback pin exists before any of them could need protecting.
        let floor = master.inner.ssi().commit_order_barrier(|| {
            master.inner.wal.attach();
            let frontier = master.inner.tm.frontier();
            master
                .inner
                .active_snapshots
                .lock()
                .insert(feedback_txid, frontier);
            frontier
        });
        Replica {
            master: master.clone(),
            feedback_txid,
            applied: Mutex::new(ReplicaState {
                next_record: 0,
                floor,
                latest_safe: None,
                candidates: VecDeque::new(),
            }),
        }
    }

    /// Consume newly shipped records; returns how many were applied.
    pub fn catch_up(&self) -> usize {
        // Sim interleaving point before the applied lock: lets the scheduler
        // race replica apply cycles against master commits and disconnects.
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::ReplCatchUp);
        let stats = &self.master.inner.repl_stats;
        let mut st = self.applied.lock();
        let records = self.master.wal().read_from(st.next_record);
        let n = records.len();
        stats.catch_ups.bump();
        stats.lag_records.add(n as u64);
        stats.lag_hist.record(n as u64);
        st.next_record += n;
        for r in records {
            st.apply(r, stats);
        }
        // Advance the feedback pin to what the replica now serves. Updated
        // under the `applied` lock, so a concurrent `begin_safe_query`
        // (which registers its query under the same lock) never sees the
        // pin move past the snapshot it is about to serve.
        if let Some(s) = &st.latest_safe {
            self.master
                .inner
                .active_snapshots
                .lock()
                .insert(self.feedback_txid, s.csn);
        }
        n
    }

    /// Begin a serializable read-only query on the latest locally derived
    /// safe snapshot. Returns `None` if no safe snapshot is known yet — the caller may retry after
    /// [`Replica::catch_up`], mirroring the "wait for the next available safe
    /// snapshot" option of §7.2.
    pub fn begin_safe_query(&self) -> Option<Transaction> {
        // The `applied` lock is held until the query has its own
        // `active_snapshots` entry: the standing feedback pin (which only
        // moves under this lock) covers the snapshot until then.
        let st = self.applied.lock();
        let snapshot = st.latest_safe.clone()?;
        let txn = self.query_at(snapshot);
        drop(st);
        Some(txn)
    }

    /// Begin a read-only query at a weaker isolation level (snapshot
    /// isolation on the replica's current state) — the "run at a weaker level"
    /// option of §7.2. Anomalies like Figure 2's REPORT are possible here; see
    /// the replication tests.
    pub fn begin_stale_query(&self) -> Transaction {
        let inner = &self.master.inner;
        let txid = inner.tm.begin();
        // Snapshot taken and registered under the map lock, like the
        // engine's own `snapshot_registered`: the vacuum horizon can never
        // advance past a snapshot that exists but is not yet registered.
        let snapshot = {
            let mut map = inner.active_snapshots.lock();
            let s = inner.tm.snapshot();
            map.insert(txid, s.csn);
            s
        };
        self.make_query(txid, snapshot)
    }

    /// Commit-sequence frontier of the latest known safe snapshot (staleness
    /// measurements; `None` until one exists).
    pub fn latest_safe_csn(&self) -> Option<CommitSeqNo> {
        self.applied.lock().latest_safe.as_ref().map(|s| s.csn)
    }

    /// Candidates still awaiting resolution (tests, diagnostics).
    pub fn pending_candidates(&self) -> usize {
        self.applied.lock().candidates.len()
    }

    fn query_at(&self, snapshot: Arc<Snapshot>) -> Transaction {
        let inner = &self.master.inner;
        let txid = inner.tm.begin();
        // Pins the vacuum horizon at the (old) safe snapshot for the
        // query's lifetime (the standing feedback pin covers the snapshot up
        // to this registration); `Transaction`'s drop/rollback paths release
        // both the txid and this entry even when the query panics.
        inner.active_snapshots.lock().insert(txid, snapshot.csn);
        self.make_query(txid, (*snapshot).clone())
    }

    fn make_query(&self, txid: TxnId, snapshot: Snapshot) -> Transaction {
        Transaction::new(
            std::sync::Arc::clone(&self.master.inner),
            txid,
            snapshot,
            BeginOptions::new(IsolationLevel::RepeatableRead).read_only(),
            None,
        )
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        // A departed replica must not pin the master's vacuum horizon, and
        // the last replica leaving turns record shipping back off.
        self.master
            .inner
            .active_snapshots
            .lock()
            .remove(&self.feedback_txid);
        self.master.inner.wal.detach();
    }
}

impl ReplicaState {
    fn apply(&mut self, rec: WalRecord, stats: &ReplicationStats) {
        match rec {
            WalRecord::Commit {
                txid,
                meta: (snapshot, digest),
                ..
            } => {
                if digest.serializable {
                    self.resolve(txid, Some(&digest), stats);
                }
                // Below the floor: the snapshot predates this replica's
                // feedback pin and may already be vacuumed — never a
                // candidate (its resolution facts were applied above).
                if snapshot.csn < self.floor {
                    return;
                }
                let pending: HashSet<TxnId> = digest.concurrent_rw.iter().copied().collect();
                self.candidates.push_back(Candidate {
                    snapshot,
                    awaited: !pending.is_empty(),
                    pending,
                });
                self.promote(stats);
            }
            WalRecord::Resolve { txid, digest } => {
                self.resolve(txid, digest.as_ref(), stats);
                self.promote(stats);
            }
        }
    }

    /// Transaction `txid` finished: `digest` is `Some` if it committed,
    /// `None` if it aborted. Unpin it from every candidate, discarding
    /// candidates it proves unsafe.
    fn resolve(&mut self, txid: TxnId, digest: Option<&CommitDigest>, stats: &ReplicationStats) {
        self.candidates.retain_mut(|c| {
            if !c.pending.remove(&txid) {
                return true;
            }
            let unsafe_now = digest.is_some_and(|d| d.makes_unsafe(c.snapshot.csn));
            if unsafe_now {
                stats.unsafe_candidates.bump();
            }
            !unsafe_now
        });
    }

    /// Adopt the newest fully-resolved candidate as the latest safe snapshot
    /// and drop it along with everything older (strictly staler). Every
    /// drained candidate whose pending set drained *is* a derived safe
    /// snapshot and is counted as one, even when superseded in the same
    /// batch — one resolution can prove several candidates safe at once.
    fn promote(&mut self, stats: &ReplicationStats) {
        let newest_safe = self.candidates.iter().rposition(|c| c.pending.is_empty());
        if let Some(i) = newest_safe {
            let mut adopted = None;
            for c in self.candidates.drain(..=i) {
                if c.pending.is_empty() {
                    stats.safe_local.bump();
                    if c.awaited {
                        stats.marker_waits_avoided.bump();
                    }
                    adopted = Some(c.snapshot);
                }
            }
            self.latest_safe = Some(adopted.expect("rposition found an empty candidate"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_from_saturates_past_the_end() {
        let db = Database::open();
        let _replica = Replica::connect(&db); // shipping is off with no consumer
        let wal = db.wal();
        assert!(wal.read_from(0).is_empty());
        assert!(wal.read_from(1).is_empty(), "cursor past empty stream");
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        db.create_table(crate::TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        t.insert("kv", pgssi_common::row![1, 1]).unwrap();
        t.commit().unwrap();
        let n = wal.len();
        assert!(n >= 1);
        assert_eq!(wal.read_from(0).len(), n, "full replay");
        assert!(wal.read_from(n).is_empty(), "cursor exactly at end");
        assert!(
            wal.read_from(n + 100).is_empty(),
            "stale cursor far past the end must not panic"
        );
    }

    #[test]
    fn no_records_ship_without_an_attached_replica() {
        let db = Database::open();
        db.create_table(crate::TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let mut t = db.begin(IsolationLevel::Serializable);
        t.insert("kv", pgssi_common::row![1, 1]).unwrap();
        t.commit().unwrap();
        assert!(db.wal().is_empty(), "no consumer, no shipping");
        // Attach: from here commits are recorded and a safe snapshot derives.
        let replica = Replica::connect(&db);
        let mut t = db.begin(IsolationLevel::Serializable);
        t.insert("kv", pgssi_common::row![2, 2]).unwrap();
        t.commit().unwrap();
        replica.catch_up();
        let mut q = replica.begin_safe_query().expect("derived after attach");
        assert_eq!(
            q.get("kv", &pgssi_common::row![2]).unwrap(),
            Some(pgssi_common::row![2, 2])
        );
        q.commit().unwrap();
    }
}
