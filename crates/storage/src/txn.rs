//! Transaction manager: sharded id assignment, epoch-cached snapshots,
//! commit/abort, and waits.
//!
//! The seed implementation ordered transaction starts, snapshot acquisition,
//! and commits through **one mutex**; under the session front-end's workloads
//! (the SIBENCH read-mostly mix, then `fig_sessions`) that mutex is the dominant
//! begin/snapshot serialization point. This version splits the manager into
//! independently locked pieces while preserving the paper-§4.1 invariant the
//! SSI core's "committed before snapshot" tests rely on: a [`Snapshot`]'s
//! `xip` list and its commit-sequence frontier (`csn`) are mutually
//! consistent — no observer can see a transaction as simultaneously "not in
//! progress" and "not committed".
//!
//! * **Txid allocation** (`begin`): ids come from per-shard *blocks* carved
//!   off a single atomic frontier ([`TxnConfig::txid_block`] ids per
//!   `fetch_add`). A begin takes only its thread-affine shard mutex plus one
//!   id-striped active-set mutex; begins on different shards share nothing
//!   but the (rarely touched) block frontier.
//! * **Snapshots** (`snapshot`): a cache that is maintained *incrementally*
//!   and therefore never stale. Every writing commit/abort applies its own
//!   xids to a copy-on-write of the cached `Arc<Snapshot>` under the `finish`
//!   mutex ([`TxnManager::apply_finish_to_cache`]): remove the finishing ids,
//!   advance `xmax` to the current frontier (classifying the delta range as
//!   in-progress), stamp the new `csn`. `snapshot()` clones the cache without
//!   any manager-wide lock; the full shard walk that freezes the frontier,
//!   the active sets, and `next_csn` into one consistent cut survives only as
//!   the cold-start path (counted separately as `snapshot_full_rebuilds`).
//! * **Finishes** (`commit`/`abort`): serialized by the small `finish` mutex
//!   (they were serialized by the global mutex before). The clog entry is
//!   published *before* the id leaves its active stripe, so "no longer
//!   active" always implies "status finalized".
//!
//! ## Why the incremental cache update is a consistent cut
//!
//! Under the `finish` mutex the cache always satisfies: `xmax` = the frontier
//! observed at the last writing finish, and `xip` ⊇ every id below that
//! `xmax` still in progress (plus, transiently, writeless-finished ids — see
//! below). A new writing finish extends `xmax` to the current frontier and
//! carries over `old xip` plus the whole delta range `[old_xmax, frontier)`,
//! dropping its own xids and every id whose clog status is already final:
//! what remains is exactly reserved-or-active — any *writing* finish since
//! the last update is impossible (they all update the cache, serialized by
//! `finish`), finished ids are caught by the clog filter, and ids mid-begin
//! read `InProgress` (the clog's default). The filter is also what keeps
//! `xip` bounded: *writeless* finishes skip the refresh entirely (the
//! [`TxnManager::commit_readonly`] argument, below — a stale "in-progress"
//! entry for a writeless id is unobservable, since the id appears in no
//! tuple header), so the next writing finish sweeps them out. Begins never
//! touch the cache: an id issued after the last update is at or above the
//! cached `xmax` and correctly reads as in-progress.
//!
//! ## Why unissued block ids ride in `xip`
//!
//! `Snapshot::xmax` is the global block frontier, so an id inside an
//! already-reserved block is *below* `xmax` even before any transaction has
//! claimed it. Such an id may begin (and even commit) after the snapshot was
//! taken, and the snapshot must classify it as concurrent; listing the
//! reserved remainder `[next, end)` of every shard's block in `xip` does
//! exactly that, at the cost of at most `id_shards × txid_block` extra
//! entries. Ids are claimed from reserved ranges while *holding the shard
//! mutex through the active-stripe insert*, so a rebuild (which holds all
//! shard mutexes) can never observe an id that is neither reserved nor
//! active.
//!
//! ## Lock order
//!
//! `finish → alloc shards (ascending) → active stripes → snapshot cache`, and
//! independently `waits → active stripes`. Finishing transactions touch the
//! waits mutex only after releasing the finish mutex (to publish condvar
//! wakeups), so the combined order is acyclic.
//!
//! The manager also implements PostgreSQL's `XactLockTableWait` equivalent: a
//! writer that finds an in-progress `xmax` in a tuple header waits for that
//! transaction to finish ([`TxnManager::wait_for`]). Because each transaction
//! waits for at most one other, the waits-for graph is functional and
//! deadlock detection is a pointer chase performed before sleeping — the
//! whole chase runs under **one** acquisition of the waits mutex, so a
//! concurrent edge insertion/removal can never hide a cycle mid-walk.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use pgssi_common::sim::{self, Site, WakeReason};
use pgssi_common::stats::Counter;
use pgssi_common::{CommitSeqNo, Error, Result, Snapshot, TxnConfig, TxnId};

use crate::clog::{CommitLog, TxnStatus};

/// Event counters for the sharded transaction manager, surfaced through
/// `Database::stats_report()` so `fig_sessions --stats` can report the
/// snapshot-cache hit rate directly.
#[derive(Default)]
pub struct TxnStats {
    /// Transactions (and subtransactions) begun.
    pub begins: Counter,
    /// Snapshot requests served by cloning the cached snapshot.
    pub snapshot_hits: Counter,
    /// Writing finishes that refreshed the cache incrementally (copy-on-write
    /// apply of the finishing xids instead of a shard walk).
    pub snapshot_incremental: Counter,
    /// Snapshot requests that walked every allocation shard from scratch.
    /// Cold-start only in steady state — the incremental path keeps the cache
    /// perpetually fresh.
    pub snapshot_full_rebuilds: Counter,
    /// Txid blocks carved off the global frontier.
    pub txid_blocks: Counter,
    /// `wait_for` sleeps that reported their blocking txid to a registered
    /// wait observer (the session pool's lock-aware scheduling hook).
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
/// another's finish. The session pool uses it to priority-schedule the
/// holder's session. Must not call back into the transaction manager.
pub type WaitObserver = Arc<dyn Fn(TxnId, TxnId) + Send + Sync>;

/// Assigns transaction ids and commit sequence numbers, takes snapshots, and
/// resolves transaction-finish waits.
pub struct TxnManager {
    clog: CommitLog,
    /// Global txid frontier; doubles as every snapshot's `xmax`. Advanced only
    /// while holding the advancing shard's alloc mutex (see module docs).
    next_txid: AtomicU64,
    /// Per-shard reserved blocks; a thread always uses the same shard.
    alloc: Box<[Mutex<ShardAlloc>]>,
    /// In-progress ids, striped by `id % stripes`, so `commit(xids)` can find
    /// an id's stripe without knowing which shard issued it.
    active: Box<[Mutex<BTreeSet<TxnId>>]>,
    /// Next commit sequence number. Written only under `finish`; read
    /// lock-free by [`TxnManager::frontier`].
    next_csn: AtomicU64,
    /// Serializes commits/aborts against each other and snapshot rebuilds.
    finish: Mutex<()>,
    /// The maintained snapshot: never stale (every writing finish refreshes
    /// it in place under `finish`), `None` only before the first snapshot.
    cache: RwLock<Option<Arc<Snapshot>>>,
    /// waiter -> waitee edges for deadlock detection; also the condvar mutex.
    waits: Mutex<HashMap<TxnId, TxnId>>,
    finished: Condvar,
    /// Lock-aware scheduling hook (see [`WaitObserver`]).
    wait_observer: RwLock<Option<WaitObserver>>,
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
        let shards = config.id_shards.max(1);
        // More stripes than shards so id-keyed lookups rarely collide; the
        // count only needs to be "a few per shard", not tuned.
        let stripes = (shards * 4).next_power_of_two();
        TxnManager {
            clog: CommitLog::new(),
            next_txid: AtomicU64::new(TxnId::FIRST_NORMAL.0),
            alloc: (0..shards)
                .map(|_| Mutex::new(ShardAlloc::default()))
                .collect(),
            active: (0..stripes).map(|_| Mutex::new(BTreeSet::new())).collect(),
            next_csn: AtomicU64::new(CommitSeqNo::FIRST.0),
            finish: Mutex::new(()),
            cache: RwLock::new(None),
            waits: Mutex::new(HashMap::new()),
            finished: Condvar::new(),
            wait_observer: RwLock::new(None),
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

    #[inline]
    fn stripe(&self, txid: TxnId) -> &Mutex<BTreeSet<TxnId>> {
        // Stripe count is a power of two.
        &self.active[(txid.0 as usize) & (self.active.len() - 1)]
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
            // Carve a fresh block while holding the shard mutex, so a snapshot
            // rebuild (which holds every shard mutex) either sees the frontier
            // before this block existed or sees the block as reserved.
            let start = self.next_txid.fetch_add(self.block, Ordering::Relaxed);
            a.next = start;
            a.end = start + self.block;
            self.stats.txid_blocks.bump();
        }
        let txid = TxnId(a.next);
        a.next += 1;
        // Move the id from "reserved" to "active" before releasing the shard
        // mutex: a rebuild must never find it in neither set.
        self.stripe(txid).lock().insert(txid);
        drop(a);
        self.clog.register(txid);
        self.stats.begins.bump();
        txid
    }

    /// Assign a subtransaction id (savepoints, paper §7.3). Subtransaction ids
    /// appear in other transactions' snapshots exactly like top-level ids, so their
    /// writes stay invisible until the top-level transaction commits them.
    pub fn begin_sub(&self) -> TxnId {
        self.begin()
    }

    /// Take an MVCC snapshot consistent with the current commit frontier.
    ///
    /// Fast path: clone the maintained cache — it is never stale, because
    /// every writing finish refreshes it in place under the finish mutex
    /// (begins never need to: new ids are either still listed as reserved in
    /// the cached `xip` or lie at/above its `xmax`, and both read as
    /// in-progress). Slow path (cold start only): walk every allocation shard
    /// under the finish mutex and prime the cache.
    pub fn snapshot(&self) -> Snapshot {
        let cached = self.cache.read().clone();
        if let Some(snap) = cached {
            self.stats.snapshot_hits.bump();
            // Clone outside the cache lock so concurrent hits copy in parallel.
            return (*snap).clone();
        }
        self.cold_snapshot()
    }

    /// [`TxnManager::snapshot`] as a shared handle: the maintained cache's
    /// `Arc` is cloned without copying the `xip` vector. Callers that store
    /// or ship many snapshots (the replication WAL) use this to keep the
    /// deep copy off their critical sections.
    pub fn snapshot_arc(&self) -> Arc<Snapshot> {
        let cached = self.cache.read().clone();
        if let Some(snap) = cached {
            self.stats.snapshot_hits.bump();
            return snap;
        }
        Arc::new(self.cold_snapshot())
    }

    fn cold_snapshot(&self) -> Snapshot {
        let _fin = self.finish.lock();
        // Re-check under the mutex: on a cold cache every concurrent
        // snapshotter queues here — the first to arrive walks the shards, the
        // rest clone its work.
        if let Some(snap) = self.cache.read().clone() {
            self.stats.snapshot_hits.bump();
            return (*snap).clone();
        }
        let snap = self.rebuild_locked();
        *self.cache.write() = Some(Arc::new(snap.clone()));
        self.stats.snapshot_full_rebuilds.bump();
        snap
    }

    /// Full shard walk. Caller holds `finish`: with every shard mutex held no
    /// begin can be mid-flight, so the frontier, reserved ranges, and active
    /// stripes form one consistent cut; with the finish mutex held,
    /// `next_csn`, the clog, and the active stripes agree.
    fn rebuild_locked(&self) -> Snapshot {
        let allocs: Vec<_> = self.alloc.iter().map(|m| m.lock()).collect();
        let xmax = TxnId(self.next_txid.load(Ordering::Relaxed));
        let mut xip: Vec<TxnId> = Vec::new();
        for a in &allocs {
            xip.extend((a.next..a.end).map(TxnId));
        }
        for stripe in self.active.iter() {
            xip.extend(stripe.lock().iter().copied());
        }
        drop(allocs);
        xip.sort_unstable();
        Snapshot {
            xmin: xip.first().copied().unwrap_or(xmax),
            xmax,
            xip,
            csn: CommitSeqNo(self.next_csn.load(Ordering::Acquire)),
        }
    }

    /// Apply a writing finish to the maintained snapshot (caller holds
    /// `finish`, clog entries already final): copy-on-write the cached
    /// snapshot minus the finishing `xids`, with `xmax` advanced to the
    /// current frontier and the delta range `[old_xmax, frontier)` classified
    /// in-progress (see the module docs for why that is a consistent cut).
    ///
    /// Both the carried-over `xip` and the delta are filtered against the
    /// clog: an id whose status is already final reads exactly like a full
    /// rebuild would classify it (finished — its commit CSN, if any, is below
    /// the `csn` stamped here), and dropping it is what keeps `xip` *bounded*.
    /// Without the filter, writeless-finished reader ids — whose finishes
    /// deliberately skip this refresh — would accumulate forever and every
    /// snapshot clone would pay for them. Unclaimed reserved ids and ids
    /// mid-begin read `InProgress` (the clog's default encoding), so nothing
    /// live is ever dropped. A cold cache has nothing to maintain — the next
    /// `snapshot()` walks.
    fn apply_finish_to_cache(&self, xids: &[TxnId]) {
        let mut cache = self.cache.write();
        let Some(old) = &*cache else { return };
        let new_xmax = TxnId(self.next_txid.load(Ordering::Relaxed));
        let delta = (new_xmax.0.saturating_sub(old.xmax.0)) as usize;
        let still_open =
            |x: &TxnId| !xids.contains(x) && matches!(self.clog.status(*x), TxnStatus::InProgress);
        let mut xip: Vec<TxnId> = Vec::with_capacity(old.xip.len() + delta);
        xip.extend(old.xip.iter().copied().filter(&still_open));
        xip.extend((old.xmax.0..new_xmax.0).map(TxnId).filter(&still_open));
        *cache = Some(Arc::new(Snapshot {
            xmin: xip.first().copied().unwrap_or(new_xmax),
            xmax: new_xmax,
            xip,
            csn: CommitSeqNo(self.next_csn.load(Ordering::Acquire)),
        }));
        self.stats.snapshot_incremental.bump();
    }

    /// The incrementally-maintained snapshot and a from-scratch shard-walk
    /// rebuild, taken under one `finish` critical section so they describe
    /// the same instant (validation and diagnostics; the incremental-snapshot
    /// stress test asserts their equivalence). On a cold cache both sides are
    /// the fresh rebuild.
    pub fn snapshot_and_rebuild(&self) -> (Snapshot, Snapshot) {
        let _fin = self.finish.lock();
        let rebuilt = self.rebuild_locked();
        let maintained = match &*self.cache.read() {
            Some(snap) => (**snap).clone(),
            None => rebuilt.clone(),
        };
        (maintained, rebuilt)
    }

    /// Current commit-sequence frontier: the CSN the next commit will receive.
    /// Equivalent to `snapshot().csn` without building the xip list.
    #[inline]
    pub fn frontier(&self) -> CommitSeqNo {
        CommitSeqNo(self.next_csn.load(Ordering::Acquire))
    }

    /// Commit a transaction together with its live subtransactions. All ids receive
    /// the same commit sequence number, which is returned.
    pub fn commit(&self, xids: &[TxnId]) -> CommitSeqNo {
        let fin = self.finish.lock();
        let csn = CommitSeqNo(self.next_csn.load(Ordering::Relaxed));
        self.next_csn.store(csn.0 + 1, Ordering::Release);
        for &x in xids {
            // Clog first, then the active stripe: "no longer active" must
            // imply "status finalized" for lock-release waiters that poll
            // status after `wait_for` returns.
            self.clog.set_committed(x, csn);
            self.stripe(x).lock().remove(&x);
        }
        // Refresh the maintained snapshot in place; cold snapshotters are
        // excluded until `fin` drops, so none can capture a half-applied
        // commit.
        self.apply_finish_to_cache(xids);
        drop(fin);
        self.notify_finished();
        csn
    }

    /// Commit a transaction that **wrote nothing** (the engine tracks this; a
    /// rolled-back savepoint write still counts as having written). The ids
    /// are marked committed *at* the current frontier without advancing it,
    /// and — the point — without invalidating the snapshot cache.
    ///
    /// Why this is sound: a writeless transaction's id appears in no tuple
    /// header, so no visibility check ever classifies it. A stale cached
    /// snapshot that still lists the id in `xip` calls it "concurrent", a
    /// fresh rebuild calls it "finished"; with nothing written, the two are
    /// observationally identical. Its frontier-valued CSN ties with the next
    /// real commit's, which is also safe, but for a sharper reason than "only
    /// writers' CSNs matter": the SSI core *does* consult a read-only T1's
    /// commit CSN in the pivot checks (`manager.rs` compares a candidate
    /// T3's commit `c` against `t1_bound = T1.commit_csn` with `<=`). A
    /// writer committing strictly after this transaction can share its CSN,
    /// so those non-strict comparisons may treat "tied" as "committed first"
    /// — a spurious dangerous-structure flag at worst, never a missed one,
    /// because every such comparison errs toward aborting. If those `<=`s
    /// ever become `<` (or this CSN stops tying low), re-derive the argument.
    ///
    /// This mirrors PostgreSQL, where read-only transactions never consume an
    /// xid at all and thus never perturb anyone's xip; here ids are assigned
    /// at begin, so the write-free case is reconstructed at commit time. In
    /// read-mostly workloads this is what makes the snapshot cache *hit*:
    /// only writing commits invalidate it.
    pub fn commit_readonly(&self, xids: &[TxnId]) -> CommitSeqNo {
        let fin = self.finish.lock();
        let csn = CommitSeqNo(self.next_csn.load(Ordering::Relaxed));
        for &x in xids {
            self.clog.set_committed(x, csn);
            self.stripe(x).lock().remove(&x);
        }
        drop(fin);
        self.notify_finished();
        csn
    }

    /// Abort a transaction (and its live subtransactions).
    pub fn abort(&self, xids: &[TxnId]) {
        let fin = self.finish.lock();
        for &x in xids {
            self.clog.set_aborted(x);
            self.stripe(x).lock().remove(&x);
        }
        self.apply_finish_to_cache(xids);
        drop(fin);
        self.notify_finished();
    }

    /// Abort a transaction that **wrote nothing**, without invalidating the
    /// snapshot cache (the [`TxnManager::commit_readonly`] argument applies a
    /// fortiori: an aborted id is classified from the clog before any
    /// snapshot is consulted, so a stale cached `xip` still listing it
    /// changes nothing). Read transactions that end in ROLLBACK — a common
    /// wire-client pattern — would otherwise defeat the cache exactly like
    /// writing commits.
    pub fn abort_readonly(&self, xids: &[TxnId]) {
        let fin = self.finish.lock();
        for &x in xids {
            self.clog.set_aborted(x);
            self.stripe(x).lock().remove(&x);
        }
        drop(fin);
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
    /// and this runs after the finishing ids left their active stripes. So
    /// either the waiter registered first and the map is non-empty here (it
    /// is asleep, or will re-check under the mutex we just released — notify),
    /// or it takes the mutex after us and its re-check sees the ids gone.
    /// An empty map therefore means nobody can be sleeping on an id this
    /// finish retired, and the condvar (a futex syscall even with no
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

    /// Whether `txid` is currently in progress.
    pub fn is_active(&self, txid: TxnId) -> bool {
        self.stripe(txid).lock().contains(&txid)
    }

    /// Number of in-progress transactions (including subtransactions).
    pub fn active_count(&self) -> usize {
        self.active.iter().map(|s| s.lock().len()).sum()
    }

    /// Register a [`WaitObserver`] called whenever a transaction is about to
    /// park waiting on another's finish. The session pool installs one so a
    /// worker about to block can priority-schedule the lock holder's session
    /// (ROADMAP's lock-aware scheduling). Replaces any previous observer.
    pub fn set_wait_observer(&self, obs: WaitObserver) {
        *self.wait_observer.write() = Some(obs);
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
    /// told `(waiter, waitee)`, so the session layer can wake the blocking
    /// transaction's descheduled session rather than stall until the timeout.
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
        // the waits mutex cannot recurse; the clone keeps the read guard
        // from being held across the callback.
        let obs = self.wait_observer.read().clone();
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
    fn snapshot_sees_active_set_and_frontier() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let s1 = tm.snapshot();
        assert!(s1.is_in_progress(a));
        assert_eq!(s1.csn, CommitSeqNo::FIRST);

        let csn = tm.commit(&[a]);
        assert_eq!(csn, CommitSeqNo::FIRST);
        let s2 = tm.snapshot();
        assert!(!s2.is_in_progress(a));
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

    #[test]
    fn cross_shard_ids_all_read_as_in_progress() {
        let tm = TxnManager::with_config(&TxnConfig {
            id_shards: 4,
            txid_block: 8,
        });
        let ids: Vec<TxnId> = (0..4).map(|s| tm.begin_on_shard(s)).collect();
        let snap = tm.snapshot();
        for &id in &ids {
            assert!(snap.is_in_progress(id), "{id:?} must be in progress");
        }
        // Unissued ids from every reserved block must also read in-progress:
        // they can begin (and commit) after this snapshot was taken.
        for &id in &ids {
            assert!(
                snap.is_in_progress(TxnId(id.0 + 1)),
                "reserved successor of {id:?} must be in progress"
            );
        }
        // xip is sorted and duplicate-free (binary_search contract).
        assert!(snap.xip.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshot_cache_stays_fresh_across_commits_without_full_rebuilds() {
        let tm = TxnManager::new();
        let a = tm.begin();
        let _ = tm.snapshot(); // cold start: one full rebuild primes the cache
        let full = tm.stats.snapshot_full_rebuilds.get();
        assert_eq!(full, 1);
        let s1 = tm.snapshot(); // hit
        let b = tm.begin(); // begins do not touch the cache
        let s2 = tm.snapshot(); // still a hit
        assert_eq!(tm.stats.snapshot_full_rebuilds.get(), full);
        assert!(tm.stats.snapshot_hits.get() >= 2);
        assert_eq!(s1, s2);
        // The cached snapshot still classifies the new begin as in-progress
        // (it came from a reserved block id below xmax, or sits above xmax).
        assert!(s2.is_in_progress(b));
        tm.commit(&[a]);
        // The commit refreshed the cache incrementally: the next snapshot is
        // a *hit* that nonetheless sees the commit.
        let s3 = tm.snapshot();
        assert_eq!(tm.stats.snapshot_full_rebuilds.get(), full);
        assert!(tm.stats.snapshot_incremental.get() >= 1);
        assert!(!s3.is_in_progress(a));
        assert!(s3.committed_before(tm.clog().commit_csn(a).unwrap()));
        assert!(s3.is_in_progress(b));
    }

    #[test]
    fn incremental_snapshot_matches_full_rebuild() {
        let tm = TxnManager::with_config(&TxnConfig {
            id_shards: 4,
            txid_block: 4,
        });
        let _ = tm.snapshot(); // prime
        let mut open: Vec<TxnId> = Vec::new();
        for round in 0..40 {
            let id = tm.begin_on_shard(round % 4);
            open.push(id);
            if round % 3 == 0 {
                let victim = open.remove(round % open.len());
                if round % 6 == 0 {
                    tm.commit(&[victim]);
                } else {
                    tm.abort(&[victim]);
                }
            }
            let (maintained, rebuilt) = tm.snapshot_and_rebuild();
            assert_eq!(maintained.csn, rebuilt.csn, "round {round}");
            // Observational equality: same in-progress verdict for every id
            // up to the fresh frontier (the maintained xmax may lag behind —
            // ids above it read in-progress either way).
            for id in 0..rebuilt.xmax.0 + 2 {
                assert_eq!(
                    maintained.is_in_progress(TxnId(id)),
                    rebuilt.is_in_progress(TxnId(id)),
                    "round {round}, txid {id}"
                );
            }
        }
        assert_eq!(
            tm.stats.snapshot_full_rebuilds.get(),
            1,
            "steady state must stay on the incremental path"
        );
    }

    #[test]
    fn readonly_commit_neither_advances_frontier_nor_touches_cache() {
        let tm = TxnManager::new();
        let w = tm.begin();
        let wc = tm.commit(&[w]); // establish a real frontier
        let snap = tm.snapshot(); // cold rebuild + cache
        let incremental = tm.stats.snapshot_incremental.get();
        let frontier = tm.frontier();

        let r = tm.begin();
        let rc = tm.commit_readonly(&[r]);
        assert_eq!(rc, frontier, "read-only commit pins to the frontier");
        assert_eq!(tm.frontier(), frontier, "frontier must not advance");
        assert!(tm.status(r).is_committed());
        assert!(!tm.is_active(r));
        let after = tm.snapshot();
        assert_eq!(
            tm.stats.snapshot_incremental.get(),
            incremental,
            "read-only commits must not pay even the incremental refresh"
        );
        assert_eq!(snap, after);
        // A writing commit refreshes the cache incrementally — no full walk.
        let full = tm.stats.snapshot_full_rebuilds.get();
        let w2 = tm.begin();
        let w2c = tm.commit(&[w2]);
        assert!(w2c > wc);
        let fresh = tm.snapshot();
        assert_eq!(tm.stats.snapshot_incremental.get(), incremental + 1);
        assert_eq!(tm.stats.snapshot_full_rebuilds.get(), full);
        assert!(!fresh.is_in_progress(w2));
    }

    #[test]
    fn readonly_abort_does_not_touch_cache() {
        let tm = TxnManager::new();
        let _ = tm.snapshot(); // prime the cache
        let incremental = tm.stats.snapshot_incremental.get();
        let r = tm.begin();
        tm.abort_readonly(&[r]);
        assert_eq!(tm.status(r), TxnStatus::Aborted);
        assert!(!tm.is_active(r));
        let snap = tm.snapshot();
        assert_eq!(
            tm.stats.snapshot_incremental.get(),
            incremental,
            "writeless aborts must not pay even the incremental refresh"
        );
        // The stale cached snapshot may still call the id in-progress; the
        // clog-first classification makes that unobservable — but the clog
        // itself must be final.
        let _ = snap;
        let w = tm.begin();
        tm.abort(&[w]); // writing aborts refresh incrementally
        let after = tm.snapshot();
        assert_eq!(tm.stats.snapshot_incremental.get(), incremental + 1);
        assert!(!after.is_in_progress(w));
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
