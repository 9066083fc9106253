//! Transaction manager: sharded id assignment, commit sequence numbers,
//! one-number snapshots, and waits.
//!
//! * **Txid allocation** (`begin`): ids come from per-shard *blocks* carved
//!   off a single atomic frontier ([`TxnConfig::txid_block`] ids per
//!   `fetch_add`). A begin takes only its thread-affine shard mutex; begins
//!   on different shards share nothing but the (rarely touched) block
//!   frontier. Ids are names, not times: no visibility rule compares them.
//! * **Snapshots** (`snapshot`): one Acquire load of the commit frontier
//!   `next_csn` — no lock and no copy, since a [`Snapshot`] is that number.
//! * **Finishes**: commits are serialized by the small `finish` mutex, which
//!   orders CSN assignment; an abort only writes the clog.
//!
//! ## Clog before frontier
//!
//! MVCC visibility and the SSI core's "committed before this snapshot?"
//! tests (paper §4.1) both read a committed xid's clog CSN `c` against a
//! snapshot's frontier: visible iff `c < S.csn`. That is a consistent cut
//! only if no xid can turn "committed before S" after S was taken. So
//! [`TxnManager::commit`] stamps every xid's clog entry with `c` *before* it
//! stores `next_csn = c + 1` (Release), and [`TxnManager::snapshot`] loads
//! the frontier with Acquire: a snapshot that sees the frontier past `c`
//! sees every entry stamped `c`. In the other order a snapshot could take
//! `S.csn = c + 1` while the clog still said `InProgress`; a reader would
//! skip the version as concurrent, then find it committed before S on its
//! next read. A writeless commit ([`TxnManager::commit_readonly`]) stamps the
//! current frontier without advancing it, under the same mutex, so it never
//! lands below a frontier already published either.
//! `storage/tests/txn_model.rs` races begins, commits and snapshots against
//! both halves of the invariant.
//!
//! ## Lock order
//!
//! `waits → wait observer`; `finish` and the alloc shards nest nothing.
//! Finishing transactions touch the waits mutex only after releasing the
//! finish mutex (to publish condvar wakeups).
//!
//! The manager also implements PostgreSQL's `XactLockTableWait` equivalent: a
//! writer that finds an in-progress `xmax` in a tuple header waits for that
//! transaction to finish ([`TxnManager::wait_for`]). Because each transaction
//! waits for at most one other, the waits-for graph is functional and
//! deadlock detection is a pointer chase performed before sleeping — the
//! whole chase runs under **one** acquisition of the waits mutex, so a
//! concurrent edge insertion/removal can never hide a cycle mid-walk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use pgssi_common::sim::{self, Site, WakeReason};
use pgssi_common::stats::Counter;
use pgssi_common::{CommitSeqNo, Error, Result, Snapshot, TxnConfig, TxnId};

use crate::clog::{CommitLog, TxnStatus};

/// Event counters for the sharded transaction manager, surfaced through
/// `Database::stats_report()`.
#[derive(Default)]
pub struct TxnStats {
    /// Transactions (and subtransactions) begun.
    pub begins: Counter,
    /// Txid blocks carved off the global frontier.
    pub txid_blocks: Counter,
    /// `wait_for` sleeps that reported their blocking txid to a registered
    /// wait observer (the session pool's hook).
    pub wait_reports: Counter,
    /// Row-lock wait time (ns): how long `wait_for` actually parked before
    /// the holder finished, the wait timed out, or deadlock aborted it.
    pub wait_ns: pgssi_common::Histogram,
}

/// A shard's reserved txid block: ids in `[next, end)` are carved off the
/// global frontier but not yet handed to any transaction.
#[derive(Default)]
struct ShardAlloc {
    next: u64,
    end: u64,
}

/// Callback invoked (while the waits mutex is held, just before the first
/// sleep) with `(waiter, holder)` when a transaction is about to park on
/// another's finish. The session pool uses it to show the wait target and to
/// count its blocked workers. Must not call back into the transaction
/// manager.
pub type WaitObserver = Arc<dyn Fn(TxnId, TxnId) + Send + Sync>;

/// Assigns transaction ids and commit sequence numbers, takes snapshots, and
/// resolves transaction-finish waits.
pub struct TxnManager {
    clog: CommitLog,
    /// Global txid block frontier.
    next_txid: AtomicU64,
    /// Per-shard reserved blocks; a thread always uses the same shard.
    alloc: Box<[Mutex<ShardAlloc>]>,
    /// Next commit sequence number, i.e. the frontier every snapshot is.
    /// Written only under `finish`, after the commit's clog entries (module
    /// docs); read lock-free by [`TxnManager::snapshot`].
    next_csn: AtomicU64,
    /// Serializes commits against each other.
    finish: Mutex<()>,
    /// waiter -> waitee edges for deadlock detection; also the condvar mutex.
    waits: Mutex<HashMap<TxnId, TxnId>>,
    finished: Condvar,
    /// Row-lock wait hook (see [`WaitObserver`]).
    wait_observer: Mutex<Option<WaitObserver>>,
    block: u64,
    /// Event counters.
    pub stats: TxnStats,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Monotonic thread slots for shard affinity (stable per thread, cheap).
static THREAD_SLOTS: AtomicUsize = AtomicUsize::new(0);

fn thread_slot() -> usize {
    thread_local! {
        static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = THREAD_SLOTS.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v
    })
}

impl TxnManager {
    /// Fresh manager with default sharding; the first transaction gets
    /// [`TxnId::FIRST_NORMAL`].
    pub fn new() -> TxnManager {
        TxnManager::with_config(&TxnConfig::default())
    }

    /// Fresh manager with explicit sharding knobs.
    pub fn with_config(config: &TxnConfig) -> TxnManager {
        TxnManager {
            clog: CommitLog::new(),
            next_txid: AtomicU64::new(TxnId::FIRST_NORMAL.0),
            alloc: (0..config.id_shards.max(1))
                .map(|_| Mutex::new(ShardAlloc::default()))
                .collect(),
            next_csn: AtomicU64::new(CommitSeqNo::FIRST.0),
            finish: Mutex::new(()),
            waits: Mutex::new(HashMap::new()),
            finished: Condvar::new(),
            wait_observer: Mutex::new(None),
            block: config.txid_block.max(1),
            stats: TxnStats::default(),
        }
    }

    /// The commit log backing this manager.
    #[inline]
    pub fn clog(&self) -> &CommitLog {
        &self.clog
    }

    /// Number of txid-allocation shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.alloc.len()
    }

    /// Start a new top-level transaction on the calling thread's shard.
    pub fn begin(&self) -> TxnId {
        self.begin_on_shard(thread_slot())
    }

    /// Start a new top-level transaction on an explicit shard (session pools
    /// pin a logical session to a shard; tests use it to force cross-shard
    /// interleavings). `shard` is taken modulo the shard count.
    pub fn begin_on_shard(&self, shard: usize) -> TxnId {
        let mut a = self.alloc[shard % self.alloc.len()].lock();
        if a.next == a.end {
            let start = self.next_txid.fetch_add(self.block, Ordering::Relaxed);
            a.next = start;
            a.end = start + self.block;
            self.stats.txid_blocks.bump();
        }
        let txid = TxnId(a.next);
        a.next += 1;
        drop(a);
        self.clog.register(txid);
        self.stats.begins.bump();
        txid
    }

    /// Assign a subtransaction id (savepoints, paper §7.3). A subtransaction
    /// commits with its parent's CSN, so its writes stay invisible to every
    /// snapshot taken before the top-level commit.
    pub fn begin_sub(&self) -> TxnId {
        self.begin()
    }

    /// Take an MVCC snapshot: the current commit frontier (module docs).
    #[inline]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::at(self.frontier())
    }

    /// Current commit-sequence frontier: the CSN the next commit will receive.
    #[inline]
    pub fn frontier(&self) -> CommitSeqNo {
        CommitSeqNo(self.next_csn.load(Ordering::Acquire))
    }

    /// Commit a transaction together with its live subtransactions. All ids receive
    /// the same commit sequence number, which is returned.
    pub fn commit(&self, xids: &[TxnId]) -> CommitSeqNo {
        let fin = self.finish.lock();
        let csn = CommitSeqNo(self.next_csn.load(Ordering::Relaxed));
        for &x in xids {
            self.clog.set_committed(x, csn);
        }
        // Only now may a snapshot see the frontier past `csn` (module docs).
        self.next_csn.store(csn.0 + 1, Ordering::Release);
        drop(fin);
        self.notify_finished();
        csn
    }

    /// Commit a transaction that **wrote nothing** (the engine tracks this; a
    /// rolled-back savepoint write still counts as having written). The ids
    /// are marked committed *at* the current frontier without advancing it,
    /// so a read-mostly workload's commits leave the frontier, and every
    /// snapshot taken meanwhile, where they were.
    ///
    /// The CSN ties with the next writer's; DESIGN.md §2 re-derives why that
    /// is safe against the SSI core's `<=` comparisons. It is never below a
    /// frontier some snapshot already read, since the finish mutex orders it
    /// against every frontier store.
    pub fn commit_readonly(&self, xids: &[TxnId]) -> CommitSeqNo {
        let fin = self.finish.lock();
        let csn = CommitSeqNo(self.next_csn.load(Ordering::Relaxed));
        for &x in xids {
            self.clog.set_committed(x, csn);
        }
        drop(fin);
        self.notify_finished();
        csn
    }

    /// Abort a transaction (and its live subtransactions). An aborted id
    /// never reads as committed, so no ordering against the frontier is
    /// needed.
    pub fn abort(&self, xids: &[TxnId]) {
        for &x in xids {
            self.clog.set_aborted(x);
        }
        self.notify_finished();
    }

    /// Abort a single subtransaction id (ROLLBACK TO SAVEPOINT). The parent remains
    /// active.
    pub fn abort_sub(&self, xid: TxnId) {
        self.abort(&[xid]);
    }

    /// Wake `wait_for` sleepers — only if there are any. The waits map is the
    /// waiter registry: `wait_for` inserts its edge under the waits mutex
    /// *before* its first `is_active` re-check and keeps it until it returns,
    /// and this runs after the finishing ids' clog entries are final. So
    /// either the waiter registered first and the map is non-empty here (it
    /// is asleep, or will re-check under the mutex we just released — notify),
    /// or it takes the mutex after us and its re-check reads the final
    /// status. An empty map therefore means nobody can be sleeping on an id
    /// this finish retired, and the condvar (a futex syscall even with no
    /// sleepers) is skipped — the common case for every commit and abort.
    fn notify_finished(&self) {
        let any_waiter = !self.waits.lock().is_empty();
        if any_waiter {
            self.finished.notify_all();
            sim::notify(Site::LockWait, self.wait_key());
        }
    }

    /// Scheduler wakeup key for `wait_for` parking: the condvar's address
    /// (stable for this manager's lifetime, matched at runtime, never traced).
    #[inline]
    fn wait_key(&self) -> usize {
        std::ptr::addr_of!(self.finished) as usize
    }

    /// Status of `txid` from the commit log.
    #[inline]
    pub fn status(&self, txid: TxnId) -> TxnStatus {
        self.clog.status(txid)
    }

    /// Whether `txid` is currently in progress, per the commit log.
    #[inline]
    pub fn is_active(&self, txid: TxnId) -> bool {
        self.clog.status(txid) == TxnStatus::InProgress
    }

    /// Register a [`WaitObserver`] called whenever a transaction is about to
    /// park waiting on another's finish. The session pool installs one (see
    /// [`WaitObserver`]). Replaces any previous observer.
    pub fn set_wait_observer(&self, obs: WaitObserver) {
        *self.wait_observer.lock() = Some(obs);
    }

    /// Block until `waitee` is no longer in progress, as a tuple-lock wait does
    /// (paper §5.1: conflicting writers wait on the lock holder's transaction).
    ///
    /// Registers `waiter -> waitee` in the waits-for graph first; if that edge would
    /// close a cycle, returns [`Error::Deadlock`] immediately with `waiter` as the
    /// victim, mirroring PostgreSQL's deadlock detector aborting the waiter. The
    /// cycle chase walks the whole (functional) chain under a single waits-mutex
    /// guard — edges cannot be added or removed mid-chase.
    ///
    /// Just before the first sleep the registered [`WaitObserver`] (if any) is
    /// told `(waiter, waitee)`, on the thread that is about to park.
    pub fn wait_for(&self, waiter: TxnId, waitee: TxnId, timeout: Duration) -> Result<()> {
        // Control-flow deadline: virtual time under the simulator so lock
        // timeouts fire at deterministic schedule points.
        let deadline = sim::now() + timeout;
        let mut w = self.waits.lock();
        if !self.is_active(waitee) {
            return Ok(());
        }
        // Deadlock check: follow the waits-for chain from waitee, all hops
        // under the one guard already held.
        let mut cur = waitee;
        while let Some(&next) = w.get(&cur) {
            if next == waiter {
                return Err(Error::Deadlock { victim: waiter });
            }
            cur = next;
        }
        w.insert(waiter, waitee);
        // Tell the session layer who blocks us before parking. The observer
        // only touches pool state (never this manager), so calling it under
        // the waits mutex cannot recurse; the clone keeps the observer's
        // guard from being held across the callback.
        let obs = self.wait_observer.lock().clone();
        if let Some(obs) = obs {
            self.stats.wait_reports.bump();
            obs(waiter, waitee);
        }
        let parked = self.stats.wait_ns.start();
        let result = loop {
            if !self.is_active(waitee) {
                break Ok(());
            }
            if sim::is_sim_thread() {
                // Sim park: release the waits mutex (park sites hold no OS
                // locks), hand the token to the scheduler, re-lock on wake.
                // The token is held from the drop to the scheduler's own
                // park, so no sim thread can miss-wake us in between.
                drop(w);
                let r = sim::block(Site::LockWait, self.wait_key(), Some(deadline));
                w = self.waits.lock();
                if r == WakeReason::TimedOut && self.is_active(waitee) {
                    break Err(Error::LockTimeout);
                }
            } else if self.finished.wait_until(&mut w, deadline).timed_out() {
                break Err(Error::LockTimeout);
            }
        };
        self.stats.wait_ns.record_elapsed(parked);
        w.remove(&waiter);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_assigns_increasing_ids() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert!(a < b);
        assert!(tm.is_active(a) && tm.is_active(b));
    }

    #[test]
    fn snapshot_is_the_commit_frontier() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let s1 = tm.snapshot();
        assert_eq!(s1.csn, CommitSeqNo::FIRST);
        assert_eq!(s1.csn, tm.frontier());

        let csn = tm.commit(&[a]);
        assert_eq!(csn, CommitSeqNo::FIRST);
        let s2 = tm.snapshot();
        assert!(s2.committed_before(csn));
        assert!(!s1.committed_before(csn), "csn not before earlier snapshot");
    }

    #[test]
    fn commit_and_abort_update_clog() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        tm.commit(&[a]);
        tm.abort(&[b]);
        assert!(tm.status(a).is_committed());
        assert_eq!(tm.status(b), TxnStatus::Aborted);
        assert!(!tm.is_active(a));
        assert!(!tm.is_active(b));
    }

    #[test]
    fn subtransactions_commit_with_same_csn() {
        let tm = TxnManager::new();
        let top = tm.begin();
        let sub = tm.begin_sub();
        let csn = tm.commit(&[top, sub]);
        assert_eq!(tm.clog().commit_csn(top), Some(csn));
        assert_eq!(tm.clog().commit_csn(sub), Some(csn));
    }

    #[test]
    fn rollback_to_savepoint_aborts_only_sub() {
        let tm = TxnManager::new();
        let top = tm.begin();
        let sub = tm.begin_sub();
        tm.abort_sub(sub);
        assert!(tm.is_active(top));
        assert_eq!(tm.status(sub), TxnStatus::Aborted);
    }

    /// Ids from every shard's block — issued or still reserved when the
    /// snapshot was taken — stay invisible to it however they finish: ids
    /// are not times, only the commit CSN is.
    #[test]
    fn cross_shard_ids_are_invisible_to_an_earlier_snapshot() {
        let tm = TxnManager::with_config(&TxnConfig {
            id_shards: 4,
            txid_block: 8,
        });
        let ids: Vec<TxnId> = (0..4).map(|s| tm.begin_on_shard(s)).collect();
        let snap = tm.snapshot();
        // The reserved successor in each block begins after the snapshot.
        let later: Vec<TxnId> = (0..4).map(|s| tm.begin_on_shard(s)).collect();
        for (&id, &next) in ids.iter().zip(&later) {
            assert_eq!(next, TxnId(id.0 + 1), "same block");
        }
        for &id in ids.iter().chain(&later) {
            assert!(tm.is_active(id), "{id:?} must be in progress");
            let csn = tm.commit(&[id]);
            assert!(
                !snap.committed_before(csn),
                "{id:?} committed after the snapshot"
            );
            assert!(tm.snapshot().committed_before(csn));
        }
    }

    #[test]
    fn readonly_commit_does_not_advance_frontier() {
        let tm = TxnManager::new();
        let w = tm.begin();
        let wc = tm.commit(&[w]); // establish a real frontier
        let snap = tm.snapshot();
        let frontier = tm.frontier();

        let r = tm.begin();
        let rc = tm.commit_readonly(&[r]);
        assert_eq!(rc, frontier, "read-only commit pins to the frontier");
        assert_eq!(tm.frontier(), frontier, "frontier must not advance");
        assert!(tm.status(r).is_committed());
        assert!(!tm.is_active(r));
        assert_eq!(snap, tm.snapshot());
        // It ties with the next writing commit, which does advance.
        let w2 = tm.begin();
        let w2c = tm.commit(&[w2]);
        assert!(w2c > wc);
        assert_eq!(w2c, rc);
        assert!(tm.snapshot().committed_before(w2c));
    }

    #[test]
    fn wait_observer_reports_blocker_before_parking() {
        use std::sync::atomic::AtomicU64;
        let tm = Arc::new(TxnManager::new());
        let a = tm.begin();
        let b = tm.begin();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        tm.set_wait_observer(Arc::new(move |waiter, holder| {
            assert_ne!(waiter, holder);
            seen2.store(holder.0, Ordering::SeqCst);
        }));
        let tm2 = Arc::clone(&tm);
        let h = std::thread::spawn(move || tm2.wait_for(b, a, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(seen.load(Ordering::SeqCst), a.0, "holder reported");
        assert_eq!(tm.stats.wait_reports.get(), 1);
        tm.commit(&[a]);
        assert!(h.join().unwrap().is_ok());
        // A wait satisfied without parking reports nothing.
        let c = tm.begin();
        assert!(tm.wait_for(c, a, Duration::from_millis(1)).is_ok());
        assert_eq!(tm.stats.wait_reports.get(), 1);
    }

    #[test]
    fn readonly_commit_wakes_waiters() {
        let tm = Arc::new(TxnManager::new());
        let a = tm.begin();
        let b = tm.begin();
        let tm2 = Arc::clone(&tm);
        let h = std::thread::spawn(move || tm2.wait_for(b, a, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        tm.commit_readonly(&[a]);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn one_id_shard_still_works() {
        let tm = TxnManager::with_config(&TxnConfig {
            id_shards: 1,
            ..TxnConfig::default()
        });
        assert_eq!(tm.shard_count(), 1);
        let a = tm.begin_on_shard(7); // modulo: lands on shard 0
        let csn = tm.commit(&[a]);
        assert!(tm.snapshot().committed_before(csn));
    }

    #[test]
    fn wait_for_returns_when_waitee_finishes() {
        let tm = Arc::new(TxnManager::new());
        let a = tm.begin();
        let b = tm.begin();
        let tm2 = Arc::clone(&tm);
        let h = std::thread::spawn(move || tm2.wait_for(b, a, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(&[a]);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn wait_for_finished_txn_returns_immediately() {
        let tm = TxnManager::new();
        let a = tm.begin();
        tm.commit(&[a]);
        let b = tm.begin();
        assert!(tm.wait_for(b, a, Duration::from_millis(1)).is_ok());
    }

    #[test]
    fn wait_for_times_out() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        let err = tm.wait_for(b, a, Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, Error::LockTimeout);
    }

    #[test]
    fn two_party_deadlock_is_detected() {
        let tm = Arc::new(TxnManager::new());
        let a = tm.begin();
        let b = tm.begin();
        let tm2 = Arc::clone(&tm);
        let h = std::thread::spawn(move || tm2.wait_for(a, b, Duration::from_secs(5)));
        // Give the first waiter time to register its edge.
        std::thread::sleep(Duration::from_millis(30));
        let err = tm.wait_for(b, a, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, Error::Deadlock { victim } if victim == b));
        tm.abort(&[b]);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn three_party_deadlock_cycle_is_detected() {
        let tm = Arc::new(TxnManager::new());
        let a = tm.begin();
        let b = tm.begin();
        let c = tm.begin();
        let tm_ab = Arc::clone(&tm);
        let h1 = std::thread::spawn(move || tm_ab.wait_for(a, b, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        let tm_bc = Arc::clone(&tm);
        let h2 = std::thread::spawn(move || tm_bc.wait_for(b, c, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        // c -> a closes the cycle a -> b -> c -> a.
        let err = tm.wait_for(c, a, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, Error::Deadlock { victim } if victim == c));
        tm.abort(&[c]);
        assert!(h2.join().unwrap().is_ok());
        tm.abort(&[b]);
        assert!(h1.join().unwrap().is_ok());
    }

    /// Regression for the waits-for chase: a 3-hop chain whose closing edge is
    /// registered while earlier waiters are asleep must be caught in a single
    /// chase (the chain is walked under one guard; were the guard dropped per
    /// hop, a concurrently vanishing edge could hide the cycle).
    #[test]
    fn four_party_chain_then_cycle_is_detected() {
        let tm = Arc::new(TxnManager::new());
        let ids: Vec<TxnId> = (0..4).map(|_| tm.begin()).collect();
        let mut handles = Vec::new();
        for w in 0..3 {
            let tm2 = Arc::clone(&tm);
            let (waiter, waitee) = (ids[w], ids[w + 1]);
            handles.push(std::thread::spawn(move || {
                tm2.wait_for(waiter, waitee, Duration::from_secs(5))
            }));
            std::thread::sleep(Duration::from_millis(20));
        }
        // ids[3] -> ids[0] closes a 4-cycle; the chase must traverse all three
        // existing hops to find it.
        let err = tm
            .wait_for(ids[3], ids[0], Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { victim } if victim == ids[3]));
        for i in (0..4).rev() {
            tm.abort(&[ids[i]]);
        }
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
    }

    #[test]
    fn snapshot_csn_frontier_orders_commits() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        let ca = tm.commit(&[a]);
        let snap = tm.snapshot();
        let cb = tm.commit(&[b]);
        assert!(snap.committed_before(ca));
        assert!(!snap.committed_before(cb));
        assert!(ca < cb);
    }
}
