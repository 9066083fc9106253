//! The SSI runtime: conflict flagging, dangerous-structure detection, safe-retry
//! victim selection, read-only optimizations, cleanup, and summarization.
//!
//! This is the Rust analog of PostgreSQL's `predicate.c` — minus its single
//! `SerializableXactHashLock`. PostgreSQL guards the whole transaction graph
//! with one lightweight lock and the paper (§7, §8.3) calls it out as a
//! contention point; here the graph is decentralized the way Wang & Johnson's
//! SSN keeps per-transaction summary state:
//!
//! * the **record registry** (`TxnId → record`: a record's id is its
//!   top-level txid, subxids alias it) is hashed into a fixed number of
//!   mutex-guarded maps (`registry.rs`);
//! * each record's conflict-edge state has **its own lock** ([`Sxact::lock`]),
//!   and scalar facts third parties need (phase, commit/prepare CSN, wrote,
//!   read-only safety, doomed) are lock-free atomics on the record;
//! * a small **commit-order mutex** guards only begin/commit/abort *membership*
//!   (the active set and the committed-in-order queue) and the §6.1 horizon
//!   computation. The hot conflict paths (`on_read`, `on_write`,
//!   `on_mvcc_events`) never touch it. Its active set is the only registry
//!   of serializable snapshots ([`SsiManager::snapshot_horizon`]).
//!
//! And the owning transaction does not go through the registry at all: it
//! holds a [`SxactHandle`] (next section).
//!
//! ## What a conflict-free transaction touches
//!
//! The paper's claim is that SERIALIZABLE costs little more than snapshot
//! isolation when nothing conflicts, so that path is kept on memory the
//! transaction owns. [`SsiManager::begin`] returns a [`SxactHandle`] — the
//! transaction's own `Arc` to its record plus its SIREAD owner record — and
//! every per-operation entry point takes the handle; the registry is only
//! consulted to resolve a *peer* (the other endpoint of an edge, the writer
//! txid of an MVCC event, a read-only tracker). A transaction nobody
//! conflicts with therefore touches, in order:
//!
//! * at **begin**: its own record, allocated before the mutex; the
//!   commit-order mutex (snapshot, active-set insertion, and for a read-only
//!   transaction the §4.2 tracker registration); then — outside it — its
//!   registry entry (one shard) and its owner-directory entry;
//! * per **read**: one atomic of its own record (the safety flag), its own
//!   owner mutex and read set, and the lock manager's filter word;
//! * per **write**: the SIREAD partitions of the written target's check
//!   chain (shared, but only holders of those targets meet there);
//! * at **commit**: its own record's lock (precommit — vacuous without an
//!   in-edge), then the commit-order mutex with its record's lock taken once
//!   inside it. A writeless commit with no older read/write snapshot in
//!   flight, outside a cluster shard, then retires itself after the mutex
//!   (Theorem 3 at commit, in [`SsiManager::commit`]): its registry and
//!   directory removals, whose SIREAD release hands over its counter
//!   tallies. Any other commit takes its owner mutex once more for the
//!   tallies and is removed when a later §6.1 cleanup frees it.
//!
//! No condvar is touched: both wake-ups on the finish path are gated on a
//! registered waiter. [`SsiManager::wait_for_safety`] counts itself into
//! `CommitOrder::safety_waiters` under the commit-order mutex before every
//! sleep (the condvar wait releases the mutex atomically), safety flags flip
//! only under that mutex, and a finisher reads the count in the same hold in
//! which it flipped them — so "zero waiters" means any later waiter will see
//! the flipped flag and not sleep. (The transaction manager's row-lock
//! condvar is gated the same way on its waits-for map.) The §8.4
//! [`CommitDigest`] is likewise built only when the publish hook asks for
//! it, in-section, where replica attaches are ordered against the commit.
//!
//! The SIREAD `acquisitions`/read-batch counters are tallied in the owner
//! record and added to the shared counters once, before the commit (or the
//! release, for an abort) returns. A `StatsReport` taken between two
//! transactions — all `StatsReport::delta` is ever asked about — sees every
//! finished transaction's reads exactly; only a snapshot taken while a
//! transaction is mid-flight misses that transaction's reads so far, and it
//! always did race them.
//!
//! ## Lock-ordering invariant
//!
//! The hierarchy, outermost first:
//!
//! 1. the **commit-order mutex** (`order`): begin/commit/abort/recover and the
//!    safety condvar. Never taken by conflict flagging.
//! 2. **per-record edge locks**: at most two held at once, always acquired in
//!    ascending txid order ([`crate::sxact::lock_pair`]). Holding the
//!    order mutex, records may be locked **one at a time** (commit's own
//!    record, the CSN fold into each in-source, read-only tracking, abort's
//!    peer fix-ups); never hold one record's lock while acquiring another
//!    outside `lock_pair`.
//! 3. **registry shard mutexes** (`registry.rs`): leaf-level; insertion and
//!    removal may run under the order mutex or a record lock.
//! 4. the SIREAD lock manager and the serial table sit strictly below all of
//!    the above (either may be called with graph locks held; neither calls
//!    back in). The transaction manager's locks (via the `begin`/`commit`
//!    closures) are also below the order mutex and record locks.
//!
//! Dangerous-structure checks run under the **two endpoint locks** of the edge
//! being flagged (PostgreSQL's §3.1 two-edge test needs no global view): the
//! pivot's edge sets and earliest-out-conflict bound are read under its held
//! lock, and third-party T1/T3 facts are read from their records' atomic tier.
//! A stale atomic read always errs conservatively — an unseen commit reads as
//! "uncommitted", which can only *widen* the set of structures judged
//! dangerous — and every fact is re-validated by the counterpart's own later
//! check (each edge's last flagger re-runs both pivot checks; every committer
//! re-runs them at `precommit` under its own lock). Victims that are not an
//! endpoint of the held pair are doomed *after* the pair is released via
//! [`Sxact::doom_if_abortable`], which re-checks abortability under the
//! victim's lock — if the victim prepared first, the acting transaction aborts
//! instead (always safe, §5.4).
//!
//! ## Removal protocol (abort, retirement at commit, §6.1 cleanup, §6.2 summarization)
//!
//! Records are removed in a fixed order so concurrent flaggers never lose
//! conflict information: (1) publish anything that must outlive the record
//! (§6.2 folds the commit CSN into the SIREAD table via `consolidate_owner`
//! and writes the serial-table entry *first*); (2) set the `gone` tombstone
//! under the record's lock — from here flaggers fall back to the
//! vanished-record paths, which are guaranteed to see the folded csn; (3) fix
//! up peers' edge sets (degrading edges to summary flags for §6.2); (4) remove
//! the registry entries (`Edges::take`, then `SsiManager::unlink`). A peer's
//! edge set therefore only names ids that are still resolvable, and a failed
//! lookup means the record was provably irrelevant (cleaned) or its
//! information had already been folded.
//!
//! §6.1's frees and §6.2's summarization walks — O(degree) each — run
//! *outside* the commit-order mutex: a commit or abort only pops them from
//! the committed queue under the mutex and removes them afterwards, so a
//! burst of frees or a huge conflict fan-out cannot stall concurrent
//! begins/commits. A record retired at its own commit (Theorem 3 at commit)
//! is never queued; its committer removes it after the mutex in the same
//! way. Delaying a §6.1 free is conservative like delaying its
//! SIREAD release: the record committed before every active snapshot, so no
//! active transaction can flag a new edge to it. A summarized transaction's
//! serial-table entry lives until the §6.1 horizon passes its commit, swept
//! with the summarized SIREAD locks after each commit or abort.
//!
//! Every commit — single-phase or COMMIT PREPARED — goes through
//! [`SsiManager::commit`], and every abort through [`SsiManager::abort`]. What
//! differs for a two-phase commit is decided by the record (the mark PREPARE
//! sets), not by the caller's choice of entry point.
//!
//! ## Where conflicts come from (paper §5.2)
//!
//! * **Write then read**: MVCC visibility checks already see the writer's xid in
//!   the tuple header; the storage layer reports [`VisEvent`]s which the engine
//!   forwards to [`SsiManager::on_mvcc_events`].
//! * **Read then write**: writers call [`SsiManager::on_write`], which probes the
//!   SIREAD table coarse-to-fine and flags an edge for every holder.
//!
//! ## When aborts happen (paper §3.3.1, §4.1, §5.4)
//!
//! Every flagged edge and every pre-commit runs the dangerous-structure check
//! `T1 –rw→ T2 –rw→ T3`, filtered by the commit-ordering optimization (`T3` must
//! have committed first) and the read-only rule (read-only `T1` requires `T3` to
//! have committed before `T1`'s snapshot — Theorem 3). Victims follow the safe
//! retry rules: nothing is aborted until `T3` commits; prefer the pivot `T2`;
//! never abort a prepared transaction.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pgssi_common::sim::{self, Site, WakeReason};
use pgssi_common::stats::{Counter, Histogram, TraceTag, Tracer};
use pgssi_common::{CommitSeqNo, Error, LockTarget, Result, SerializationKind, SsiConfig, TxnId};
use pgssi_lockmgr::siread::SireadLockManager;
use pgssi_storage::clog::{CommitLog, TxnStatus};
use pgssi_storage::visibility::VisEvent;

use crate::registry::{Registry, SxRef};
use crate::serial::SerialTable;
use crate::sxact::{lock_pair, Phase, Sxact, SxactHandle, SxactMut};
use crate::twophase::PreparedSsi;

/// §8.4 commit metadata: everything a WAL follower needs to decide snapshot
/// safety locally, captured **inside the commit-order mutex** at the instant
/// the commit order is decided. That placement is what makes the digest
/// authoritative: serializable `begin`s take their snapshots under the same
/// mutex, so the `concurrent_rw` set is exactly the set of serializable
/// read/write transactions whose fate decides the safety of any snapshot
/// taken in the same critical section — no begin can slip between the
/// membership read and the snapshot (the same argument
/// [`SsiManager::commit`] relies on for the pivot re-check).
#[derive(Clone, Debug)]
pub struct CommitDigest {
    /// The committing transaction's top-level xid.
    pub txid: TxnId,
    /// Its commit sequence number.
    pub commit_csn: CommitSeqNo,
    /// Whether the committer ran under SSI (false for SI/RC/2PL commits
    /// observed via [`SsiManager::observe_commit`]).
    pub serializable: bool,
    /// Declared `READ ONLY` (never shipped; can make no snapshot unsafe).
    pub declared_read_only: bool,
    /// Performed at least one write.
    pub wrote: bool,
    /// Had at least one rw-antidependency in at commit (`T –rw→ me`),
    /// including summarized ones.
    pub had_in_conflict: bool,
    /// Had at least one rw-antidependency out at commit (`me –rw→ T`),
    /// including summarized ones.
    pub had_out_conflict: bool,
    /// Earliest commit CSN among committed out-conflict targets at commit
    /// time (`CommitSeqNo::MAX` = none). A snapshot `S` concurrent with this
    /// transaction is made unsafe by this commit iff the transaction wrote
    /// and this bound is `< S.csn` (§4.2). Later folds into the live record
    /// can only add CSNs greater than this commit's own, which are `≥` every
    /// candidate snapshot's csn taken at or before it — so the value shipped
    /// here is final for every snapshot a follower will ever judge with it.
    pub earliest_out_conflict_commit: CommitSeqNo,
    /// Serializable read/write transactions (active or prepared, declared
    /// read-only excluded) in flight at this commit — the transactions
    /// concurrent with a snapshot taken in the same commit-order section.
    pub concurrent_rw: Vec<TxnId>,
}

impl CommitDigest {
    /// Does this commit make a snapshot with frontier `snapshot_csn`, taken
    /// while this transaction was in flight, unsafe for serializable
    /// read-only use (§4.2)? A writeless commit never does — no reader can
    /// have an rw-antidependency out to a transaction that wrote nothing.
    pub fn makes_unsafe(&self, snapshot_csn: CommitSeqNo) -> bool {
        self.wrote
            && self.earliest_out_conflict_commit != CommitSeqNo::MAX
            && self.earliest_out_conflict_commit.is_valid()
            && self.earliest_out_conflict_commit < snapshot_csn
    }
}

/// Whether a read-only transaction's snapshot has been proven safe (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyState {
    /// Proven safe: SIREAD locks dropped, no abort risk.
    Safe,
    /// Proven unsafe: continues under full SSI tracking.
    Unsafe,
    /// Concurrent read/write transactions are still running.
    Pending,
}

/// Event counters exposed for benchmarks and tests.
#[derive(Default)]
pub struct SsiStats {
    /// rw-antidependency edges flagged.
    pub conflicts_flagged: Counter,
    /// Dangerous structures that met the abort conditions.
    pub dangerous_structures: Counter,
    /// Serialization failures returned to the acting transaction.
    pub aborts_self: Counter,
    /// Other transactions marked for death (doomed).
    pub doomed_set: Counter,
    /// Aborts due to conflicts against summarized state (§6.2).
    pub summary_aborts: Counter,
    /// Read-only transactions that began on an immediately safe snapshot.
    pub safe_immediate: Counter,
    /// Read-only transactions whose snapshot was later proven safe.
    pub safe_established: Counter,
    /// Read-only transactions whose snapshot was proven unsafe.
    pub unsafe_snapshots: Counter,
    /// Committed transactions summarized under memory pressure.
    pub summarized: Counter,
    /// Committed transactions freed by horizon cleanup (§6.1).
    pub cleaned: Counter,
    /// Time (ns) a successful commit spends inside the commit-order critical
    /// section — from reaching for the order mutex (so acquisition waits are
    /// included) to releasing it. Begins and aborts serialize on the same
    /// mutex; this histogram is the direct measure of that bottleneck.
    pub commit_order_ns: Histogram,
}

/// Membership state guarded by the commit-order mutex: who is active/prepared,
/// and the committed records retained in commit order (front = oldest).
struct CommitOrder {
    active: HashMap<TxnId, SxRef>,
    committed: VecDeque<SxRef>,
    /// Threads inside [`SsiManager::wait_for_safety`]'s sleep. Safety flags
    /// flip only under this mutex, so a finisher that reads zero here knows
    /// nobody can be asleep on a flag it just flipped and skips the condvar.
    safety_waiters: usize,
}

/// Removals decided under the commit-order mutex and run after it
/// ([`SsiManager::run_deferred`]). Everything here *removes* state, and
/// removing it late is conservative: the worst case is a spurious
/// rw-conflict flag, never a missed one. (§6.2 consolidation instead runs
/// *before* the record becomes unresolvable — see the module docs' removal
/// protocol.)
#[derive(Default)]
struct DeferredLockOps {
    /// Committed records popped by §6.1 cleanup, to free.
    freed: Vec<SxRef>,
    /// Committed records beyond `max_committed_sxacts`, to summarize (§6.2).
    summarize: Vec<SxRef>,
    /// Owners whose SIREAD locks should be released wholesale.
    release_owners: Vec<u64>,
    /// Run the §6.1 sweeps of summarized state — SIREAD locks and serial-table
    /// entries — up to this horizon.
    drop_summarized_before: Option<CommitSeqNo>,
}

/// A removed record's edge sets, taken under its lock with the `gone`
/// tombstone, for [`SsiManager::unlink`].
struct Edges {
    outs: BTreeSet<TxnId>,
    ins: BTreeSet<TxnId>,
    possible_unsafe: BTreeSet<TxnId>,
    aliases: Vec<TxnId>,
}

impl Edges {
    /// Tombstone the record and take its edges; `None` if it is already gone.
    fn take(g: &mut SxactMut) -> Option<Edges> {
        if g.gone {
            return None;
        }
        g.gone = true;
        Some(Edges {
            outs: std::mem::take(&mut g.out_conflicts),
            ins: std::mem::take(&mut g.in_conflicts),
            possible_unsafe: std::mem::take(&mut g.possible_unsafe),
            aliases: std::mem::take(&mut g.alias_txids),
        })
    }
}

/// The serializable-transaction manager (PostgreSQL's `predicate.c` state).
pub struct SsiManager {
    config: SsiConfig,
    siread: SireadLockManager,
    serial: SerialTable,
    reg: Registry,
    order: Mutex<CommitOrder>,
    safety_cv: Condvar,
    /// Test-only gate: emulate the historical pivot-precommit race by
    /// skipping the order-mutex-authoritative `pivot_check_locked` re-run at
    /// commit (restoring the precommit-only logic this repo shipped before
    /// the race was fixed). The deterministic-simulation regression tests
    /// flip this on to prove the harness finds the bug on pinned seeds;
    /// nothing in production code sets it.
    emulate_pivot_race: std::sync::atomic::AtomicBool,
    /// Set by [`SsiManager::set_cluster_shard`]: this database is a cluster
    /// shard, so a writeless single-phase commit keeps the §6.1 path.
    cluster_shard: std::sync::atomic::AtomicBool,
    /// Event counters.
    pub stats: SsiStats,
    /// Per-transaction lifecycle tracer (disabled ring unless the engine
    /// passes an enabled one through [`SsiManager::with_tracer`]).
    tracer: Arc<Tracer>,
}

impl SsiManager {
    /// New manager with the given configuration and a disabled tracer.
    pub fn new(config: SsiConfig) -> SsiManager {
        SsiManager::with_tracer(config, Arc::new(Tracer::disabled()))
    }

    /// New manager recording lifecycle events into `tracer`. The engine owns
    /// the tracer (it survives simulated crash recovery) and shares it here.
    pub fn with_tracer(config: SsiConfig, tracer: Arc<Tracer>) -> SsiManager {
        SsiManager {
            siread: SireadLockManager::new(config.clone()),
            serial: SerialTable::new(),
            reg: Registry::new(),
            config,
            order: Mutex::new(CommitOrder {
                active: HashMap::new(),
                committed: VecDeque::new(),
                safety_waiters: 0,
            }),
            safety_cv: Condvar::new(),
            emulate_pivot_race: std::sync::atomic::AtomicBool::new(false),
            cluster_shard: std::sync::atomic::AtomicBool::new(false),
            stats: SsiStats::default(),
            tracer,
        }
    }

    /// Enable/disable the pivot-race emulation (see the field docs). Test
    /// hook for the simulation regression suite; defaults to off.
    pub fn set_emulate_pivot_race(&self, on: bool) {
        self.emulate_pivot_race.store(on, Ordering::Relaxed);
    }

    /// Mark this database a cluster shard, before any branch begins on it.
    /// A cross-shard coordinator unions its branches' PREPARE facts without
    /// Theorem 3: the in-edge a writeless reader leaves on one shard can
    /// close a cycle through another shard's commit order, which this
    /// shard's CSNs cannot see. So a writeless commit here does not retire
    /// at its own commit (DESIGN.md §6); it waits for §6.1, as every
    /// committer does with the read-only optimization off.
    pub fn set_cluster_shard(&self) {
        self.cluster_shard.store(true, Ordering::Relaxed);
    }

    /// Whether [`SsiManager::set_cluster_shard`] marked this manager.
    pub fn is_cluster_shard(&self) -> bool {
        self.cluster_shard.load(Ordering::Relaxed)
    }

    /// The active configuration.
    pub fn config(&self) -> &SsiConfig {
        &self.config
    }

    /// Acquire the commit-order mutex.
    ///
    /// Under the simulator this is a yield point followed by a
    /// `try_lock`-with-yield spin instead of a kernel block: yield points
    /// exist *inside* order-holding critical sections (the durable-WAL append
    /// in the engine's commit closure runs under this mutex), so a sim thread
    /// must never block in the kernel on a mutex whose holder is parked — it
    /// would hold the run token forever. Real mode takes the plain lock.
    fn lock_order(&self) -> MutexGuard<'_, CommitOrder> {
        if sim::is_sim_thread() {
            sim::yield_point(Site::CommitOrder);
            loop {
                if let Some(g) = self.order.try_lock() {
                    return g;
                }
                sim::yield_point(Site::LockSpin);
            }
        }
        self.order.lock()
    }

    /// The SIREAD lock manager (diagnostics and tests).
    pub fn siread(&self) -> &SireadLockManager {
        &self.siread
    }

    /// The serial table (diagnostics and tests).
    pub fn serial(&self) -> &SerialTable {
        &self.serial
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Register a serializable transaction. `acquire_snapshot` runs **under
    /// the commit-order mutex** and must take the transaction's MVCC snapshot;
    /// commits and aborts also hold that mutex, so no commit (and in
    /// particular no horizon cleanup or summarization trigger, §6) can slip
    /// between the snapshot and the registration — otherwise a concurrent
    /// committed transaction's record could be freed while this transaction
    /// still needs its conflict data.
    ///
    /// For declared read-only transactions (with the read-only optimization
    /// enabled), records the set of concurrent read/write serializable
    /// transactions whose commits decide snapshot safety (§4.2). If there are
    /// none, the snapshot is immediately safe and the transaction runs with no
    /// SSI overhead at all.
    ///
    /// Only what must be atomic with the snapshot happens under the mutex:
    /// the snapshot itself, the active-set insertion (cleanup's horizon, the
    /// vacuum horizon and later read-only begins find the record there, by
    /// `Arc`), and — for a read-only transaction that has writers to watch —
    /// the §4.2 tracker registration together with the registry entry a
    /// committing writer's `resolve_ro_tracking` resolves the tracker id
    /// through. The record is built before the mutex: its id is `txid`, so
    /// nothing is drawn for it (only `lock_pair` compares ids). Everything
    /// else (the registry entry in the common case, the SIREAD owner
    /// registration, tracing) waits until the mutex is dropped: no peer can
    /// learn this transaction's ids before it has read or written something,
    /// and it does neither before `begin` returns.
    pub fn begin(
        &self,
        txid: TxnId,
        acquire_snapshot: impl FnOnce() -> CommitSeqNo,
        declared_read_only: bool,
        deferrable: bool,
    ) -> SxactHandle {
        let mut rec = Arc::new(Sxact::new(
            txid,
            CommitSeqNo::INVALID,
            declared_read_only,
            deferrable,
        ));
        let mut order = self.lock_order();
        Arc::get_mut(&mut rec)
            .expect("the record is not shared before it is registered")
            .snapshot_csn = acquire_snapshot();
        let mut tracked = false;
        if declared_read_only && self.config.enable_read_only_opt {
            let rw: Vec<SxRef> = order
                .active
                .values()
                .filter(|a| !a.declared_read_only)
                .cloned()
                .collect();
            if rw.is_empty() {
                rec.set_ro_safe();
                self.stats.safe_immediate.bump();
            } else {
                for w in &rw {
                    w.lock().ro_trackers.insert(txid);
                }
                rec.lock().possible_unsafe = rw.iter().map(|w| w.txid).collect();
                self.reg.insert(&rec);
                tracked = true;
            }
        }
        order.active.insert(txid, Arc::clone(&rec));
        drop(order);
        if !tracked {
            self.reg.insert(&rec);
        }
        self.tracer.record(txid.0, TraceTag::Begin, 0);
        // A concurrent safe-snapshot release racing ahead of this
        // registration just finds no owner to remove — harmless: a
        // transaction on a safe snapshot never acquires.
        let owner = (!rec.ro_safe()).then(|| self.siread.register_owner(txid.0));
        SxactHandle { rec, owner }
    }

    /// Register a subtransaction id (savepoint, §7.3) as an alias of `sx`:
    /// MVCC conflict events naming the subxid resolve to the parent's record.
    pub fn register_subxid(&self, sx: &SxactHandle, subxid: TxnId) {
        let rec = &sx.rec;
        let mut g = rec.lock();
        if g.gone {
            return;
        }
        g.alias_txids.push(subxid);
        // Registered while the record's lock is held (registry shards are
        // leaf-level): a racing removal either sees the alias in the list (it
        // drains aliases under this same lock) or has already set `gone`.
        self.reg.insert_alias(subxid, rec);
    }

    /// Return [`Error::SerializationFailure`] if another transaction marked this
    /// one for death (§5.4). The engine calls this at every operation and aborts
    /// the transaction on error. One relaxed load of the handle's own record.
    pub fn check_doomed(&self, sx: &SxactHandle) -> Result<()> {
        if sx.is_doomed() {
            return Err(Error::serialization(
                SerializationKind::Doomed,
                format!(
                    "{:?} was chosen as a serialization-failure victim",
                    sx.txid()
                ),
            ));
        }
        Ok(())
    }

    /// Take SIREAD locks for a read (relation/page/tuple targets as appropriate
    /// for the access path). No-op for transactions on safe snapshots.
    ///
    /// Touches only the handle's own record (one atomic load of the safety
    /// flag) and its own SIREAD owner record: if a concurrent safe-snapshot
    /// determination releases this owner between the check and the
    /// acquisitions (§4.2), the lock manager drops acquisitions for released
    /// owners, so the transaction still ends holding nothing.
    pub fn on_read(&self, sx: &SxactHandle, targets: &[LockTarget]) {
        let Some(owner) = &sx.owner else { return };
        if sx.rec.ro_safe() {
            return;
        }
        for t in targets {
            self.siread.acquire_for(owner, *t);
        }
    }

    /// Process write-before-read conflicts discovered by MVCC visibility checks
    /// (§5.2): each event names a writer whose update this reader did not see.
    pub fn on_mvcc_events(
        &self,
        handle: &SxactHandle,
        events: &[VisEvent],
        clog: &CommitLog,
    ) -> Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let me = &handle.rec;
        let sx = me.txid;
        if me.ro_safe() {
            return Ok(()); // safe snapshot: no tracking, no abort risk (§4.2)
        }
        // Decode and dedup the events, and pre-probe the commit log, before
        // taking any record lock — pure computation has no business inside
        // one. A read rarely sees more than a couple of writers: linear dedup.
        let mut writers: Vec<TxnId> = Vec::with_capacity(events.len());
        for ev in events {
            let w = ev.writer();
            if !writers.contains(&w) {
                writers.push(w);
            }
        }
        let statuses: Vec<TxnStatus> = writers.iter().map(|w| clog.status(*w)).collect();
        if me.is_doomed() {
            return Err(Error::serialization(
                SerializationKind::Doomed,
                "doomed transaction continued reading",
            ));
        }
        let my_snapshot = me.snapshot_csn;
        for (w, pre_status) in writers.into_iter().zip(statuses) {
            let mut vanished = false;
            if let Some(wrec) = self.reg.get(w) {
                if wrec.txid == sx {
                    continue;
                }
                let mut dooms: Vec<SxRef> = Vec::new();
                let res = {
                    let (mut mg, mut wg) = lock_pair(me, &wrec);
                    if wg.gone {
                        // Removed between lookup and lock: fall through to the
                        // summarized/clog path, which is guaranteed to see any
                        // folded state (removal publishes it first).
                        vanished = true;
                        Ok(())
                    } else if wrec.phase() == Phase::Aborted || wrec.is_doomed() {
                        Ok(())
                    } else if wrec.commit_csn().is_some_and(|wc| wc < my_snapshot) {
                        // A writer that committed before our snapshot is not
                        // concurrent; its lingering record is not a conflict.
                        Ok(())
                    } else {
                        self.flag_conflict_locked(me, &mut mg, &wrec, &mut wg, sx, &mut dooms)
                    }
                };
                self.finish_checks(res, dooms)?;
                if !vanished {
                    continue;
                }
            }
            // No (live) record: the writer committed long ago, was summarized,
            // or was not serializable. Only a concurrent committed serializable
            // writer matters. The pre-probed status is authoritative when it
            // says Committed/Aborted (both final); an InProgress reading is
            // stale if the writer committed *and was summarized* between the
            // probe and this point, so it is re-read here (the serial-table
            // entry is published before the record becomes unresolvable).
            let status = match pre_status {
                TxnStatus::InProgress => clog.status(w),
                s => s,
            };
            let TxnStatus::Committed(wcsn) = status else {
                continue;
            };
            if wcsn < my_snapshot {
                continue;
            }
            let Some(e) = self.serial.lookup(w) else {
                continue; // non-serializable writer
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let mut mg = me.lock();
                self.conflict_out_to_summarized(me, &mut mg, wcsn, e, &mut dooms)
            };
            self.finish_checks(res, dooms)?;
        }
        Ok(())
    }

    /// Edge to a summarized committed writer `W` (`me –rw→ W`), with `e` = W's
    /// earliest out-conflict commit from the serial table (§6.2). Runs with
    /// `me`'s lock held (`mg`).
    fn conflict_out_to_summarized(
        &self,
        me: &SxRef,
        mg: &mut SxactMut,
        w_commit: CommitSeqNo,
        e: CommitSeqNo,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        self.stats.conflicts_flagged.bump();
        mg.summary_conflict_out = true;
        mg.earliest_out_conflict_commit = mg.earliest_out_conflict_commit.min(w_commit);
        // Structure A': t1 = me, t2 = W (committed), t3 from the serial table.
        // Conservative conditions (slightly stricter than PostgreSQL's
        // `e < my snapshot`; see DESIGN.md): t3 committed first (e < W's commit)
        // and, if the read-only rule applies to me, e < my snapshot.
        let ro_ok = !(self.config.enable_read_only_opt && me.is_read_only()) || e < me.snapshot_csn;
        if e.is_valid() && e < w_commit && ro_ok {
            // t2 and t3 both committed: the only possible victim is me (§5.4
            // rule 3 — and retrying is safe, since both are committed).
            self.stats.dangerous_structures.bump();
            self.stats.summary_aborts.bump();
            self.stats.aborts_self.bump();
            return Err(Error::serialization(
                SerializationKind::SummaryConflict,
                "conflict out to an old pivot (summarized transaction)",
            ));
        }
        // Structure B: t2 = me (pivot), t3 = W committed at w_commit.
        self.check_pivot_in_with_t3(me, mg, Some(w_commit), me.txid, dooms)
    }

    /// Process a write: check SIREAD locks coarse-to-fine for read-before-write
    /// conflicts (§5.2.1). `written_tuple` enables the write-lock-drop
    /// optimization — a transaction that writes a tuple may drop its own SIREAD
    /// lock on it, except inside a subtransaction (§7.3).
    pub fn on_write(
        &self,
        handle: &SxactHandle,
        chain: &[LockTarget],
        written_tuple: Option<LockTarget>,
        in_subtransaction: bool,
    ) -> Result<()> {
        let me = &handle.rec;
        let sx = me.txid;
        if me.is_doomed() {
            return Err(Error::serialization(
                SerializationKind::Doomed,
                "doomed transaction attempted a write",
            ));
        }
        // First own write: publish the accumulated read-set batch. A writing
        // transaction's reads are probed by every peer writer, so keeping
        // them pending would just trade this one spill for repeated
        // filter-hit walks on the peers' probes.
        if !me.wrote() {
            let published = handle
                .owner
                .as_ref()
                .map_or(0, |o| self.siread.publish_pending_for(o));
            self.tracer.record(me.txid.0, TraceTag::FirstWrite, 0);
            if published > 0 {
                self.tracer
                    .record(me.txid.0, TraceTag::Publish, published as u64);
            }
            me.set_wrote();
        }
        // Probe the (partitioned) SIREAD table before any record lock: the
        // probe touches at most two partitions, so concurrent writers on
        // disjoint data don't serialize here.
        let check = self.siread.conflicting_holders(chain, sx.0);
        let my_snapshot = me.snapshot_csn;
        let mut vanished_holder = false;
        for holder in check.owners {
            let hid = TxnId(holder);
            if hid == sx {
                continue;
            }
            let Some(h) = self.reg.get(hid) else {
                // The record vanished between the pre-lock probe and here:
                // cleaned (committed before every active snapshot — provably
                // no conflict), retired at its commit (Theorem 3 at commit:
                // no pivot with an older snapshot can use it), aborted, or
                // §6.2-summarized. Only the last still matters; the
                // summarized-csn re-read below catches it.
                vanished_holder = true;
                continue;
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let (mut hg, mut mg) = lock_pair(&h, me);
                if hg.gone {
                    vanished_holder = true;
                    Ok(())
                } else if h.phase() == Phase::Aborted || h.is_doomed() {
                    Ok(())
                } else if h.commit_csn().is_some_and(|hc| hc < my_snapshot) {
                    // Reader committed before our snapshot: not concurrent.
                    Ok(())
                } else {
                    self.flag_conflict_locked(&h, &mut hg, me, &mut mg, sx, &mut dooms)
                }
            };
            self.finish_checks(res, dooms)?;
        }
        let mut summarized_csn = check.old_committed_csn;
        if vanished_holder {
            // A probed holder was summarized (or cleaned) after the probe.
            // Summarization folds its csn into the lock table *before* the
            // record becomes unresolvable (removal protocol, module docs), so
            // re-reading the table here is guaranteed to see the folded csn.
            summarized_csn = summarized_csn.max(self.siread.summarized_csn(chain));
        }
        if let Some(c) = summarized_csn {
            if c >= my_snapshot {
                // A summarized reader was concurrent with us: T1 exists but its
                // identity is lost (§6.2). Flag it and check the pivot structure
                // with t1 = "some transaction that committed at or before c".
                self.stats.conflicts_flagged.bump();
                let res = {
                    let mut mg = me.lock();
                    mg.summary_conflict_in = true;
                    // t3 must have committed before t1 (bounded above by c)
                    // and before me (uncommitted → unbounded); `e` is MAX
                    // while I have no committed out-conflict.
                    if mg.earliest_out_conflict_commit < c {
                        self.stats.dangerous_structures.bump();
                        self.stats.summary_aborts.bump();
                        self.stats.aborts_self.bump();
                        Err(Error::serialization(
                            SerializationKind::SummaryConflict,
                            "identified as pivot against a summarized reader",
                        ))
                    } else {
                        Ok(())
                    }
                };
                res?;
            }
        }
        let allow_drop = !in_subtransaction && !me.ro_safe();
        if allow_drop {
            if let (Some(t), Some(owner)) = (written_tuple, &handle.owner) {
                self.siread.release_target_for(owner, t);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Conflict flagging and dangerous-structure checks
    // ------------------------------------------------------------------

    /// Record `reader –rw→ writer` and run the failure checks. Runs with both
    /// endpoints' locks held (`rg`/`wg`); `acting` is the transaction
    /// performing the current operation. If it must die, an error is returned;
    /// pivot victims are doomed in place (under their held lock), and
    /// third-party T1 victims are pushed into `dooms` for the caller to claim
    /// after the pair is released.
    fn flag_conflict_locked(
        &self,
        reader: &SxRef,
        rg: &mut SxactMut,
        writer: &SxRef,
        wg: &mut SxactMut,
        acting: TxnId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        if reader.txid == writer.txid {
            return Ok(());
        }
        let new_edge = !rg.out_conflicts.contains(&writer.txid);
        if new_edge {
            rg.out_conflicts.insert(writer.txid);
            if let Some(wc) = writer.commit_csn() {
                rg.earliest_out_conflict_commit = rg.earliest_out_conflict_commit.min(wc);
            }
            wg.in_conflicts.insert(reader.txid);
            self.stats.conflicts_flagged.bump();
            // Two halves of one rw-antidependency edge, from each endpoint's
            // point of view (a pivot shows one ConflictIn and one ConflictOut).
            self.tracer
                .record(reader.txid.0, TraceTag::ConflictOut, writer.txid.0);
            self.tracer
                .record(writer.txid.0, TraceTag::ConflictIn, reader.txid.0);
        }
        // Structure A: writer is the pivot (t1 = reader, t2 = writer, t3 = some
        // committed out-conflict of the writer).
        self.check_pivot_out(reader, writer, wg, acting, dooms)?;
        // Structure B: reader is the pivot (t1 ∈ reader's in-conflicts,
        // t2 = reader, t3 = writer). The writer's lock is held, so its
        // commit-or-prepare CSN is exact.
        let t3_csn = writer.commit_or_prepare_csn();
        self.check_pivot_in_with_t3(reader, rg, t3_csn, acting, dooms)?;
        Ok(())
    }

    /// Structure A: is `t2` a pivot with a committed out-conflict, completing a
    /// dangerous structure with the (new) in-edge from `t1`? Both locks held.
    fn check_pivot_out(
        &self,
        t1: &SxRef,
        t2: &SxRef,
        t2g: &SxactMut,
        acting: TxnId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let e = t2g.earliest_out_conflict_commit;
        // T3 must be the first of the three to commit (§3.3.1). The
        // comparisons are non-strict because T1 and T3 may be the *same*
        // transaction (2-cycles like write skew): then e == t1's CSN and
        // the structure is still dangerous. Prepared-but-uncommitted
        // transactions count as "not committed yet" (bound = ∞): their
        // prepare CSN is only a lower bound on the eventual commit.
        let t1_bound = t1.commit_csn().unwrap_or(CommitSeqNo::MAX);
        let t2_bound = t2.commit_csn().unwrap_or(CommitSeqNo::MAX);
        if e == CommitSeqNo::MAX || e > t1_bound || e > t2_bound {
            return Ok(());
        }
        // Read-only rule (Theorem 3): a read-only T1 is only part of an anomaly
        // if T3 committed before T1's snapshot.
        if self.config.enable_read_only_opt && t1.is_read_only() && e >= t1.snapshot_csn {
            return Ok(());
        }
        self.stats.dangerous_structures.bump();
        self.resolve_failure(Some(t1), t2, acting, dooms)
    }

    /// Structure B: is `t2` a pivot whose out-edge reaches a committed `t3`?
    /// Iterates `t2`'s in-conflicts (plus the summarized-in flag) as T1
    /// candidates, reading each candidate's facts from its atomic tier
    /// (conservative when stale). `t3_csn` is `None` while T3 is uncommitted.
    /// Runs with `t2`'s lock held; T1 may legitimately be T3 itself (2-cycles
    /// like write skew) — the in-edge from t3 still completes the cycle, so no
    /// candidate is excluded.
    fn check_pivot_in_with_t3(
        &self,
        t2: &SxRef,
        t2g: &SxactMut,
        t3_csn: Option<CommitSeqNo>,
        acting: TxnId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let Some(c) = t3_csn else {
            // Nothing to do until T3 commits (safe-retry rule 1, §5.4); the
            // pre-commit check on T3 handles it.
            return Ok(());
        };
        if t2.commit_csn().is_some_and(|t2_commit| c > t2_commit) {
            return Ok(()); // T2 committed before T3: T3 is not first
        }
        for t1 in self.t1_candidates(t2g) {
            let dangerous = match &t1 {
                Some(t1x) => {
                    if t1x.phase() == Phase::Aborted {
                        // Mid-removal aborted peer still listed: never part of
                        // a cycle (under one global lock this was unobservable).
                        continue;
                    }
                    // Non-strict: T1 may be T3 itself (2-cycles). Prepared
                    // counts as uncommitted (see check_pivot_out).
                    let t1_bound = t1x.commit_csn().unwrap_or(CommitSeqNo::MAX);
                    let ro_ok = !(self.config.enable_read_only_opt && t1x.is_read_only())
                        || c < t1x.snapshot_csn;
                    c <= t1_bound && ro_ok
                }
                // Summarized T1: conservatively dangerous (identity and commit
                // time lost; cannot apply either optimization).
                None => true,
            };
            if dangerous {
                self.stats.dangerous_structures.bump();
                self.resolve_failure(t1.as_ref(), t2, acting, dooms)?;
            }
        }
        Ok(())
    }

    /// The T1 candidates of a pivot whose lock is held (`t2g`): each
    /// resolvable in-conflict, then `None` for a summarized one (commit time
    /// unknown, not read-only). BTreeSet iteration visits them in ascending
    /// txid order, so victim choice is deterministic across registry-shard
    /// counts.
    fn t1_candidates(&self, t2g: &SxactMut) -> Vec<Option<SxRef>> {
        let mut c: Vec<Option<SxRef>> = t2g
            .in_conflicts
            .iter()
            .map(|x| self.reg.get(*x))
            .filter(Option::is_some)
            .collect();
        if t2g.summary_conflict_in {
            c.push(None);
        }
        c
    }

    /// Safe-retry victim selection (§5.4): prefer the pivot `t2`; fall back to
    /// `t1`; if neither can be aborted (committed or prepared), the acting
    /// transaction dies. Runs with `t2`'s lock held (its doom is applied in
    /// place); a T1 victim is *deferred* into `dooms` — the caller claims it
    /// via [`Sxact::doom_if_abortable`] after releasing its pair, and aborts
    /// the acting transaction if the victim prepared first.
    fn resolve_failure(
        &self,
        t1: Option<&SxRef>,
        t2: &SxRef,
        acting: TxnId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        if t2.is_abortable() {
            if t2.txid == acting {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::PivotAbort,
                    "this transaction is the pivot of a dangerous structure",
                ));
            }
            t2.doom();
            self.stats.doomed_set.bump();
            self.tracer.record(t2.txid.0, TraceTag::Doom, 0);
            return Ok(());
        }
        if let Some(t1x) = t1 {
            if t1x.is_abortable() {
                if t1x.txid == acting {
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "pivot already committed/prepared; aborting the reader",
                    ));
                }
                dooms.push(Arc::clone(t1x));
                return Ok(());
            }
        }
        self.stats.aborts_self.bump();
        Err(Error::serialization(
            SerializationKind::NonPivotAbort,
            "all other participants committed or prepared; aborting self",
        ))
    }

    /// Claim deferred third-party victims (no locks held). A victim that
    /// prepared before it could be doomed forces the acting transaction to
    /// abort instead (§5.4/§7.1: never abort a prepared transaction).
    fn apply_dooms(&self, dooms: Vec<SxRef>) -> Result<()> {
        for v in dooms {
            if v.doom_if_abortable() {
                self.stats.doomed_set.bump();
                self.tracer.record(v.txid.0, TraceTag::Doom, 0);
            } else {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::NonPivotAbort,
                    "victim prepared before it could be doomed; aborting self",
                ));
            }
        }
        Ok(())
    }

    /// Propagate `res`, claiming deferred dooms either way (when the acting
    /// transaction is already dying, victims of *other* structures found in
    /// the same call are still claimed best-effort, as the one-lock
    /// implementation did in place).
    fn finish_checks(&self, res: Result<()>, dooms: Vec<SxRef>) -> Result<()> {
        if res.is_err() {
            let _ = self.apply_dooms(dooms);
            return res;
        }
        self.apply_dooms(dooms)
    }

    // ------------------------------------------------------------------
    // Commit and abort
    // ------------------------------------------------------------------

    /// Pre-commit serialization check (§5.4): if this transaction is the T3 of a
    /// dangerous structure of uncommitted transactions, it is about to become
    /// the first committer, so the pivot must be aborted now (or, failing that,
    /// this transaction). Also re-checks this transaction as a pivot. On success
    /// the transaction becomes *prepared*: it can no longer be chosen as a
    /// victim (mirroring PostgreSQL's marking during commit processing and
    /// PREPARE TRANSACTION, §7.1). `frontier` is the current commit-sequence
    /// frontier, recorded as a conservative bound on the eventual commit CSN.
    ///
    /// The prepared phase is entered *first* (tentatively, under this record's
    /// lock) and reverted on failure: an edge flagged into this transaction
    /// after that point observes the prepare CSN and runs the T3 checks
    /// itself, while every edge flagged before it is visible to the
    /// in-conflict clone below — so no structure can slip through the gap
    /// between this check and the phase transition.
    pub fn precommit(&self, handle: &SxactHandle, frontier: CommitSeqNo) -> Result<()> {
        let me = &handle.rec;
        let sx = me.txid;
        let t2s: Vec<TxnId> = {
            let g = me.lock();
            if me.is_doomed() {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::Doomed,
                    "doomed transaction reached commit",
                ));
            }
            me.set_phase(Phase::Prepared);
            me.set_prepare_csn(Some(frontier));
            if g.in_conflicts.is_empty() && !g.summary_conflict_in {
                // Nobody has an edge into us: there is no T2 to be the T3
                // of and no T1 to be the pivot for, so both checks below are
                // vacuous. An edge flagged from here on sees the prepared
                // phase and runs the checks itself (see above).
                drop(g);
                self.tracer.record(me.txid.0, TraceTag::Prepare, 0);
                return Ok(());
            }
            g.in_conflicts.iter().copied().collect()
        };
        match self.precommit_checks(me, sx, t2s) {
            Ok(()) => {
                self.tracer.record(me.txid.0, TraceTag::Prepare, 0);
                Ok(())
            }
            Err(e) => {
                // Revert the tentative prepare; the engine aborts us next.
                let _g = me.lock();
                me.set_phase(Phase::Active);
                me.set_prepare_csn(None);
                Err(e)
            }
        }
    }

    fn precommit_checks(&self, me: &SxRef, sx: TxnId, t2s: Vec<TxnId>) -> Result<()> {
        // Role T3: structures t1 → t2 → me where neither t1 nor t2 committed.
        for t2id in t2s {
            let Some(t2) = self.reg.get(t2id) else {
                continue;
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let t2g = t2.lock();
                if t2g.gone || t2.is_committed() || t2.is_doomed() || t2.phase() == Phase::Aborted {
                    Ok(())
                } else {
                    self.precommit_check_t2(sx, &t2, &t2g, &mut dooms)
                }
            };
            self.finish_checks(res, dooms)?;
        }
        // Role T2 (early detection; the authoritative run happens again at
        // commit under the order mutex — see `pivot_check_locked`).
        self.pivot_check_locked(&me.lock())
    }

    /// Role-T2 dangerous-pivot validation: my own in-edge + committed
    /// out-conflict pair (read from my folded `earliest_out_conflict_commit`
    /// under my lock). Called twice: once from `precommit` (cheap early
    /// abort), and once from [`SsiManager::commit`] **under the
    /// commit-order mutex**, where it is authoritative — every earlier
    /// committer folded its CSN into my bound inside its own order-mutex
    /// section, so acquiring the mutex happens-after all of them. Without the
    /// commit-time run, a pivot's precommit could interleave between a T3's
    /// CSN assignment and its fold, miss the conflict, and commit a dangerous
    /// structure (the one-big-mutex implementation made {assign, fold} atomic
    /// with every check, closing this by construction). Callers hold the
    /// record's lock.
    fn pivot_check_locked(&self, g: &SxactMut) -> Result<()> {
        let e = g.earliest_out_conflict_commit;
        if e != CommitSeqNo::MAX {
            for t1 in self.t1_candidates(g) {
                let dangerous = match &t1 {
                    Some(t1x) => {
                        if t1x.phase() == Phase::Aborted {
                            continue;
                        }
                        // Non-strict: T1 may be T3 itself (2-cycles).
                        let t1_bound = t1x.commit_csn().unwrap_or(CommitSeqNo::MAX);
                        let ro = !(self.config.enable_read_only_opt && t1x.is_read_only())
                            || e < t1x.snapshot_csn;
                        e <= t1_bound && ro
                    }
                    None => true,
                };
                if dangerous {
                    self.stats.dangerous_structures.bump();
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::PivotAbort,
                        "pivot with committed out-conflict detected at commit",
                    ));
                }
            }
        }
        Ok(())
    }

    /// One pivot candidate of the committing T3 (`me`): `t2`'s lock is held.
    fn precommit_check_t2(
        &self,
        sx: TxnId,
        t2: &SxRef,
        t2g: &SxactMut,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let dangerous_t1s: Vec<Option<SxRef>> = self
            .t1_candidates(t2g)
            .into_iter()
            .filter(|t1| match t1 {
                Some(t1x) => {
                    // T1 already committed → I would not be the first
                    // committer of the structure; an aborted T1 is no T1.
                    if t1x.is_committed() || t1x.phase() == Phase::Aborted {
                        return false;
                    }
                    // Read-only rule: I am committing *now*, after T1's
                    // snapshot, so a read-only T1 cannot complete a cycle.
                    !(self.config.enable_read_only_opt && t1x.is_read_only())
                }
                None => true, // summarized T1: conservative
            })
            .collect();
        if dangerous_t1s.is_empty() {
            return Ok(());
        }
        self.stats.dangerous_structures.bump();
        // Preferred victim: the pivot — one abort kills every structure
        // through it (§5.4 rule 2). Its lock is held: the doom is exact.
        if t2.is_abortable() {
            t2.doom();
            self.stats.doomed_set.bump();
            self.tracer.record(t2.txid.0, TraceTag::Doom, 0);
            return Ok(());
        }
        // Pivot is prepared (§7.1): each dangerous T1 must die instead —
        // and if one of them is me, I am the victim.
        for t1 in dangerous_t1s {
            match t1 {
                Some(t1x) if t1x.txid == sx => {
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "pivot is prepared; committing T3 is also its T1",
                    ));
                }
                Some(t1x) if t1x.is_abortable() => dooms.push(t1x),
                _ => {
                    // Summarized or unabortable T1 with an unabortable
                    // pivot: only I can yield.
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "dangerous structure with no abortable participant but me",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Capture a [`CommitDigest`] for a commit that did *not* run under SSI
    /// (SI / READ COMMITTED / 2PL). The digest carries no conflict facts, but
    /// the `concurrent_rw` membership — and anything `publish` captures
    /// alongside it, such as the post-commit snapshot and the WAL append —
    /// must still be read under the commit-order mutex, or a serializable
    /// begin could slip between the membership read and the snapshot (the
    /// capture race this API exists to close).
    pub fn observe_commit(
        &self,
        txid: TxnId,
        commit_csn: CommitSeqNo,
        wrote: bool,
        publish: impl FnOnce(CommitDigest),
    ) {
        let order = self.lock_order();
        publish(CommitDigest {
            txid,
            commit_csn,
            serializable: false,
            declared_read_only: false,
            wrote,
            had_in_conflict: false,
            had_out_conflict: false,
            earliest_out_conflict_commit: CommitSeqNo::MAX,
            concurrent_rw: Self::concurrent_rw(&order),
        });
    }

    /// Run `f` inside a commit-order critical section without touching any
    /// state. Replication uses this as an attach barrier: a WAL consumer
    /// registering itself here is totally ordered against every commit/abort
    /// publish section, so "every record published after my attach" is a
    /// well-defined set.
    pub fn commit_order_barrier<T>(&self, f: impl FnOnce() -> T) -> T {
        let _order = self.lock_order();
        f()
    }

    /// Serializable read/write (non-declared-read-only) transactions currently
    /// active or prepared. Callers hold the commit-order mutex.
    fn concurrent_rw(order: &CommitOrder) -> Vec<TxnId> {
        let mut rw: Vec<TxnId> = order
            .active
            .values()
            .filter(|a| !a.declared_read_only)
            .map(|a| a.txid)
            .collect();
        rw.sort_unstable();
        rw
    }

    /// Finalize a commit after [`SsiManager::precommit`] or
    /// [`SsiManager::prepare`]. `assign_csn` runs under the commit-order mutex
    /// *and* this record's lock (it should perform the actual
    /// transaction-manager commit), so that no conflict can be flagged against
    /// this record between the commit becoming visible and the record learning
    /// the commit CSN — flaggers serialize on the record's lock.
    ///
    /// Before `assign_csn`, the dangerous-pivot condition is re-validated
    /// under the commit-order mutex, where it is authoritative (see
    /// [`SsiManager::pivot_check_locked`]): a failure leaves nothing
    /// committed or published, and the engine rolls the transaction back like
    /// any precommit failure. A record that `prepare` or `recover_prepared`
    /// marked skips it: `COMMIT PREPARED` must not fail (§7.1 — a prepared
    /// pivot's structures are instead broken by aborting their T1s at *their*
    /// operations), and the mark's conservative flags would fail it always.
    ///
    /// `publish` runs **inside the commit-order critical section**, after the
    /// commit CSN is assigned, and is handed a builder for the §8.4
    /// [`CommitDigest`]. Replication uses it to append the commit record (and
    /// capture the post-commit snapshot) atomically with the digest: because
    /// serializable begins, commits, and aborts all serialize on the same
    /// mutex, the shipped stream order matches the decided commit order, and
    /// every transaction a digest names as concurrent is guaranteed to resolve
    /// *later* in the stream. The digest is only *built* if the hook calls the
    /// builder — a hook with no consumer attached (it must decide that here,
    /// in-section, where attaches are ordered against it) costs the commit
    /// nothing, in particular not the sorted `concurrent_rw` list.
    ///
    /// A transaction nobody conflicted with takes the order mutex once, its
    /// own record's lock once (the pivot re-check, the CSN assignment and
    /// every fact the rest of the section needs are read in that one hold —
    /// all of them only change under the order mutex held here, or on this
    /// transaction's own thread), and nothing else that is shared inside the
    /// section. After it, a writeless one retires itself (Theorem 3 at
    /// commit, DESIGN.md §6): one registry shard and the owner-directory
    /// write lock.
    pub fn commit(
        &self,
        handle: &SxactHandle,
        assign_csn: impl FnOnce() -> CommitSeqNo,
        publish: impl FnOnce(&dyn Fn() -> CommitDigest),
    ) -> Result<CommitSeqNo> {
        let me = &handle.rec;
        let sx = me.txid;
        let mut ops = DeferredLockOps::default();
        let section = self.stats.commit_order_ns.start();
        let mut order = self.lock_order();
        let csn;
        let (in_sources, summary_in, trackers, my_earliest, had_out, watched, g_two_phase) = {
            let mut g = me.lock();
            if !g.two_phase && !self.emulate_pivot_race.load(Ordering::Relaxed) {
                self.pivot_check_locked(&g)?;
            }
            csn = assign_csn();
            debug_assert!(
                me.phase() == Phase::Prepared,
                "commit without precommit/prepare"
            );
            me.set_phase(Phase::Committed);
            me.set_commit_csn(csn);
            let in_sources: Vec<TxnId> = g.in_conflicts.iter().copied().collect();
            // Read-only safety resolution (§4.2) inputs: who watches us, and
            // whether we commit with a conflict out to something.
            let trackers: Vec<TxnId> = std::mem::take(&mut g.ro_trackers).into_iter().collect();
            let had_out = g.had_out_conflict();
            // If we were a read-only transaction still being tracked.
            let watched = std::mem::take(&mut g.possible_unsafe);
            (
                in_sources,
                g.summary_conflict_in,
                trackers,
                g.earliest_out_conflict_commit,
                had_out,
                watched,
                g.two_phase,
            )
        };
        order.active.remove(&sx);
        // The commit CSN is now visible (the transaction-manager commit ran
        // inside the record-lock block above) but the in-sources' bounds are
        // not yet folded: exactly the window the commit-time pivot re-check
        // exists to close. Yield so seeded schedules can land a peer's
        // precommit inside it; the emulation gate widens it so the historical
        // miss reproduces on practical seed counts.
        sim::yield_point(Site::CsnFold);
        if self.emulate_pivot_race.load(Ordering::Relaxed) {
            for _ in 0..16 {
                sim::yield_point(Site::CsnFold);
            }
        }
        // Our commit fixes the CSN of every in-source's out-conflict to us.
        // (An edge flagged after the clone above sees our commit CSN itself,
        // because its flagger serializes on our lock; min() is idempotent.)
        for &s in &in_sources {
            if let Some(sx2) = self.reg.get(s) {
                let mut sg = sx2.lock();
                sg.earliest_out_conflict_commit = sg.earliest_out_conflict_commit.min(csn);
            }
        }
        // §8.4 digest: the same facts `resolve_ro_tracking` feeds the master's
        // own safe-snapshot tracking, exported for WAL followers. Built (on
        // the hook's demand) and published inside the commit-order section so
        // the concurrent set is exact for any snapshot the hook captures
        // alongside it.
        publish(&|| CommitDigest {
            txid: me.txid,
            commit_csn: csn,
            serializable: true,
            declared_read_only: me.declared_read_only,
            wrote: me.wrote(),
            had_in_conflict: !in_sources.is_empty() || summary_in,
            had_out_conflict: had_out,
            earliest_out_conflict_commit: my_earliest,
            concurrent_rw: Self::concurrent_rw(&order),
        });
        // Each read-only transaction watching us now learns whether we
        // committed with a conflict out to something before its snapshot.
        for r in trackers {
            self.resolve_ro_tracking(r, sx, Some(my_earliest), &mut ops);
        }
        self.unhook_tracker(sx, &watched);
        // Theorem 3 at commit: a writeless single-phase commit is read-only,
        // so it can only be a dangerous structure's T1, which needs a pivot
        // with a strictly older snapshot than its own (DESIGN.md §6). With no
        // such read/write transaction in flight, nothing can use its locks or
        // edges again: it retires now, on its own thread. Not on a cluster
        // shard, whose coordinator reads the edges without Theorem 3.
        let (horizon, rw_horizon) = Self::horizons_locked(&order);
        let retire = !g_two_phase
            && !me.wrote()
            && self.config.enable_read_only_opt
            && !self.is_cluster_shard()
            && rw_horizon >= me.snapshot_csn;
        if retire {
            ops.freed.push(Arc::clone(me));
            self.stats.cleaned.bump();
        } else {
            order.committed.push_back(Arc::clone(me));
        }
        self.cleanup_locked(&mut order, (horizon, rw_horizon), &mut ops);
        let wake = order.safety_waiters > 0;
        drop(order);
        self.stats.commit_order_ns.record_elapsed(section);
        self.tracer.record(me.txid.0, TraceTag::Commit, 0);
        // This transaction's SIREAD tallies reach the shared counters before
        // its commit returns (its owner record may be retained long after;
        // a retiring one's release below flushes them).
        if let (false, Some(owner)) = (retire, &handle.owner) {
            self.siread.flush_tallies(owner);
        }
        // The O(degree) §6.1 frees and §6.2 summarization walks, and the
        // whole-table SIREAD work, run after the commit-order mutex is
        // released.
        self.run_deferred(ops);
        self.wake_safety_waiters(wake);
        Ok(csn)
    }

    /// Wake [`SsiManager::wait_for_safety`] sleepers, if `any` were
    /// registered when the caller left its commit-order section. Safety flags
    /// flip only under the order mutex and a waiter counts itself in under
    /// that mutex before it sleeps (the condvar wait releases it atomically),
    /// so a finisher that saw zero waiters flipped its flags before any
    /// later waiter's check — that waiter never sleeps on them. Skipping the
    /// condvar otherwise saves a futex syscall on every commit and abort.
    fn wake_safety_waiters(&self, any: bool) {
        if any {
            self.safety_cv.notify_all();
            sim::notify(Site::SafetyWait, self.safety_key());
        }
    }

    /// Abort: remove the record and its edges, release its SIREAD locks, and
    /// resolve read-only tracking (an aborted writer cannot make a snapshot
    /// unsafe). `publish(txid)` runs inside the commit-order critical section,
    /// after the record leaves the active set, and only for read/write
    /// (non-declared-read-only) transactions — the ones WAL followers may be
    /// waiting on. Running it under the mutex keeps the shipped stream in
    /// commit order: no commit record can name this transaction as concurrent
    /// *after* its abort is published.
    pub fn abort(&self, handle: &SxactHandle, publish: impl FnOnce(TxnId)) {
        let me = &handle.rec;
        let sx = me.txid;
        let mut ops = DeferredLockOps::default();
        let mut order = self.lock_order();
        let (edges, trackers) = {
            let mut g = me.lock();
            let Some(edges) = Edges::take(&mut g) else {
                return;
            };
            me.set_phase(Phase::Aborted);
            (edges, std::mem::take(&mut g.ro_trackers))
        };
        order.active.remove(&sx);
        self.tracer.record(me.txid.0, TraceTag::Abort, 0);
        if !me.declared_read_only {
            publish(me.txid);
        }
        self.unlink(me, edges, false);
        for r in trackers {
            self.resolve_ro_tracking(r, sx, None, &mut ops);
        }
        let horizons = Self::horizons_locked(&order);
        self.cleanup_locked(&mut order, horizons, &mut ops);
        let wake = order.safety_waiters > 0;
        drop(order);
        ops.release_owners.push(sx.0);
        self.run_deferred(ops);
        self.wake_safety_waiters(wake);
    }

    /// A read/write transaction `w` finished; update read-only transaction `r`'s
    /// safety bookkeeping. `w_earliest` is `Some(earliest out-conflict CSN)` if
    /// `w` committed, `None` if it aborted. Called with the commit-order mutex
    /// held; SIREAD releases for newly-safe snapshots are deferred into `ops`.
    fn resolve_ro_tracking(
        &self,
        r: TxnId,
        w: TxnId,
        w_earliest: Option<CommitSeqNo>,
        ops: &mut DeferredLockOps,
    ) {
        let Some(rx) = self.reg.get(r) else { return };
        let made_unsafe = match w_earliest {
            Some(e) => e != CommitSeqNo::MAX && e < rx.snapshot_csn,
            None => false,
        };
        let mut unhook = BTreeSet::new();
        {
            let mut g = rx.lock();
            if g.gone {
                return;
            }
            g.possible_unsafe.remove(&w);
            if made_unsafe {
                if !rx.ro_unsafe() {
                    rx.set_ro_unsafe();
                    self.stats.unsafe_snapshots.bump();
                }
                unhook = std::mem::take(&mut g.possible_unsafe);
            } else if g.possible_unsafe.is_empty() && !rx.ro_unsafe() && !rx.ro_safe() {
                rx.set_ro_safe();
                self.stats.safe_established.bump();
                // Safe: drop SIREAD locks (deferred past the graph locks); no
                // further SSI overhead (§4.2).
                ops.release_owners.push(r.0);
            }
        }
        // Peer unhooking happens after `r`'s lock is released (one record lock
        // at a time outside lock_pair — see the module docs).
        self.unhook_tracker(r, &unhook);
    }

    /// Remove read-only transaction `r` from the tracker sets of the writers
    /// it `watched` (§4.2).
    fn unhook_tracker(&self, r: TxnId, watched: &BTreeSet<TxnId>) {
        for w in watched {
            if let Some(wx) = self.reg.get(*w) {
                wx.lock().ro_trackers.remove(&r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Safe snapshots and deferrable transactions (§4.2–4.3)
    // ------------------------------------------------------------------

    /// Current safety state of a read-only transaction's snapshot. Lock-free.
    pub fn snapshot_safety(&self, sx: &SxactHandle) -> SafetyState {
        let x = &sx.rec;
        if x.ro_safe() {
            SafetyState::Safe
        } else if x.ro_unsafe() {
            SafetyState::Unsafe
        } else {
            SafetyState::Pending
        }
    }

    /// Block until the snapshot is proven safe or unsafe (deferrable
    /// transactions, §4.3), or until `timeout` elapses (returns the state at
    /// the deadline — `Pending` unless it was decided at that very moment).
    /// The wait parks on the commit-order mutex — safety flags flip under it.
    ///
    /// The waiter counts itself into `safety_waiters` under the mutex before
    /// every sleep and out after it: that count is what lets commits and
    /// aborts skip the condvar when nobody waits (see
    /// `wake_safety_waiters`).
    pub fn wait_for_safety(&self, sx: &SxactHandle, timeout: Duration) -> SafetyState {
        let deadline = sim::now() + timeout;
        let mut order = self.lock_order();
        loop {
            let state = self.snapshot_safety(sx);
            if state != SafetyState::Pending {
                return state;
            }
            order.safety_waiters += 1;
            let timed_out = if sim::is_sim_thread() {
                // Sim park: release the order mutex, hand the token to the
                // scheduler, re-acquire (try-lock spin) on wake. The token is
                // held from the drop to the scheduler's own park, so no sim
                // finisher can run — and miss us — in between.
                drop(order);
                let r = sim::block(Site::SafetyWait, self.safety_key(), Some(deadline));
                order = self.lock_order();
                r == WakeReason::TimedOut
            } else {
                self.safety_cv.wait_until(&mut order, deadline).timed_out()
            };
            order.safety_waiters -= 1;
            if timed_out {
                return self.snapshot_safety(sx);
            }
        }
    }

    /// Scheduler wakeup key for safety waits (runtime matching only).
    #[inline]
    fn safety_key(&self) -> usize {
        std::ptr::addr_of!(self.safety_cv) as usize
    }

    // ------------------------------------------------------------------
    // Two-phase commit (§7.1)
    // ------------------------------------------------------------------

    /// PREPARE TRANSACTION: run the pre-commit check, then persist the SSI state
    /// that must survive a crash (the SIREAD locks; the dependency graph is
    /// deliberately not persisted — recovery assumes conflicts both ways, and
    /// so, from here on, does the live record).
    pub fn prepare(&self, handle: &SxactHandle, frontier: CommitSeqNo) -> Result<PreparedSsi> {
        self.precommit(handle, frontier)?;
        let me = &handle.rec;
        let sx = me.txid;
        // A prepared transaction outlives its session (possibly across a
        // crash): publish any pending read-set batch so the persisted lock
        // list and the shared table both carry the complete read set — and
        // hand its counter tallies over while the session still exists.
        if let Some(owner) = &handle.owner {
            self.siread.publish_pending_for(owner);
            self.siread.flush_tallies(owner);
        }
        let prepare_csn = me.prepare_csn().unwrap_or(frontier);
        // Prepare-time conflict facts — the same projection a CommitDigest
        // carries at commit, so a cross-shard coordinator can judge a
        // distributed dangerous structure from its branches' records (the
        // local pivot check above only sees this shard's edges) — and, in the
        // same critical section, the §7.1 conservatism a recovered prepared
        // transaction gets: conflicts both ways, out-bound at the prepare CSN.
        // Facts and marking are one step: an edge flagged after the facts
        // are read meets the marked record, so it is in one net or the other.
        let (had_in_conflict, had_out_conflict, earliest_out_conflict_commit) = {
            let mut g = me.lock();
            let facts = (
                !g.in_conflicts.is_empty() || g.summary_conflict_in,
                g.had_out_conflict(),
                g.earliest_out_conflict_commit,
            );
            g.mark_two_phase(prepare_csn);
            facts
        };
        Ok(PreparedSsi {
            txid: me.txid,
            snapshot_csn: me.snapshot_csn,
            prepare_csn,
            siread_locks: self.siread.held_targets(sx.0),
            wrote: me.wrote(),
            had_in_conflict,
            had_out_conflict,
            earliest_out_conflict_commit,
        })
    }

    /// Rebuild a prepared transaction after a crash. Its dependency edges are
    /// unknown, so it is conservatively assumed to have rw-antidependencies both
    /// in and out (§7.1); the recorded earliest out-conflict bound is its prepare
    /// CSN (anything later cannot have committed first).
    pub fn recover_prepared(&self, rec: &PreparedSsi) -> SxactHandle {
        let mut order = self.lock_order();
        let sx = Arc::new(Sxact::new(rec.txid, rec.snapshot_csn, false, false));
        sx.set_phase(Phase::Prepared);
        sx.set_prepare_csn(Some(rec.prepare_csn));
        if rec.wrote {
            sx.set_wrote();
        }
        sx.lock().mark_two_phase(rec.prepare_csn);
        order.active.insert(rec.txid, Arc::clone(&sx));
        self.reg.insert(&sx);
        drop(order);
        let owner = self.siread.register_owner(rec.txid.0);
        for t in &rec.siread_locks {
            self.siread.acquire_for(&owner, *t);
        }
        // Recovered locks go straight to the table: the prepared transaction
        // has no session accumulating further reads.
        self.siread.publish_pending_for(&owner);
        self.siread.flush_tallies(&owner);
        SxactHandle {
            rec: sx,
            owner: Some(owner),
        }
    }

    // ------------------------------------------------------------------
    // Memory management (§6)
    // ------------------------------------------------------------------

    /// The oldest snapshot of an active or prepared serializable transaction,
    /// and of one not declared READ ONLY (`MAX` where there is none), in one
    /// pass. Callers hold the commit-order mutex.
    fn horizons_locked(order: &CommitOrder) -> (CommitSeqNo, CommitSeqNo) {
        let (mut all, mut rw) = (CommitSeqNo::MAX, CommitSeqNo::MAX);
        for a in order.active.values() {
            all = all.min(a.snapshot_csn);
            if !a.declared_read_only {
                rw = rw.min(a.snapshot_csn);
            }
        }
        (all, rw)
    }

    /// Pop the committed records older than every active transaction's
    /// snapshot (§6.1): no active transaction can be concurrent with them, so
    /// neither their locks nor their edges can matter again. Then pop those
    /// beyond `max_committed_sxacts` (§6.2). Runs under the commit-order
    /// mutex and only pops; `ops` frees, summarizes and sweeps after it (a
    /// probe that still finds a popped record sees it committed before its
    /// snapshot).
    fn cleanup_locked(
        &self,
        order: &mut CommitOrder,
        (horizon, rw_horizon): (CommitSeqNo, CommitSeqNo),
        ops: &mut DeferredLockOps,
    ) {
        while let Some(front) = order.committed.front() {
            let done = front.commit_csn().map(|c| c < horizon).unwrap_or(true);
            if !done {
                break;
            }
            let rec = order.committed.pop_front().expect("front checked above");
            ops.freed.push(rec);
            self.stats.cleaned.bump();
        }
        let excess = order
            .committed
            .len()
            .saturating_sub(self.config.max_committed_sxacts);
        ops.summarize.extend(order.committed.drain(..excess));
        ops.drop_summarized_before = Some(horizon);
        // §6.1: when only read-only transactions remain active, no committed
        // transaction's SIREAD locks can ever be needed again (no one can write).
        if rw_horizon == CommitSeqNo::MAX {
            ops.release_owners
                .extend(order.committed.iter().map(|c| c.txid.0));
        }
    }

    /// Execute `ops` once the commit-order mutex is released: free the §6.1
    /// records (no information outlives them — an in-source's bound already
    /// holds their commit CSN, folded at their commit), summarize the §6.2
    /// ones, then the SIREAD releases and the summarized-state sweeps.
    fn run_deferred(&self, ops: DeferredLockOps) {
        for rec in &ops.freed {
            // Its own lock is dropped before `unlink` locks the peers.
            let edges = Edges::take(&mut rec.lock());
            if let Some(edges) = edges {
                self.unlink(rec, edges, false);
                self.siread.release_owner(rec.txid.0);
            }
        }
        for rec in &ops.summarize {
            self.summarize_record(rec);
        }
        for o in ops.release_owners {
            self.siread.release_owner(o);
        }
        if let Some(h) = ops.drop_summarized_before {
            self.siread.drop_old_committed_before(h);
            self.serial.truncate_before(h);
        }
    }

    /// Steps (3)–(4) of the removal protocol, for abort, §6.1 cleanup and
    /// §6.2 summarization alike: drop `rec` from its peers' edge sets and
    /// read-only tracking, then its registry entries. `summarize` degrades
    /// each dropped edge to the peer's summary flag (§6.2) instead of
    /// forgetting it.
    fn unlink(&self, rec: &Sxact, edges: Edges, summarize: bool) {
        let id = rec.txid;
        for o in &edges.outs {
            if let Some(ox) = self.reg.get(*o) {
                let mut og = ox.lock();
                og.in_conflicts.remove(&id);
                og.summary_conflict_in |= summarize;
            }
        }
        for i in &edges.ins {
            if let Some(ix) = self.reg.get(*i) {
                let mut ig = ix.lock();
                ig.out_conflicts.remove(&id);
                ig.summary_conflict_out |= summarize;
            }
        }
        self.unhook_tracker(id, &edges.possible_unsafe);
        self.reg.remove(rec.txid, &edges.aliases);
    }

    /// Summarize one committed record (§6.2): locks consolidate onto the dummy
    /// owner, the earliest out-conflict CSN goes to the serial table, and
    /// edges degrade to summary flags on the surviving peers. Runs with **no**
    /// commit-order mutex held. Ordering per the removal protocol: csn fold
    /// and serial entry first, then the tombstone, peers, registry.
    fn summarize_record(&self, rec: &SxRef) {
        let commit_csn = rec.commit_csn().expect("summarizing an uncommitted record");
        // The summarized csn must be visible in the lock table before any
        // writer can observe the record's absence, or a real conflict with a
        // still-concurrent summarized reader would be skipped.
        self.siread.consolidate_owner(rec.txid.0, commit_csn);
        let mut g = rec.lock();
        if g.gone {
            return;
        }
        // Serial entries (top-level xid and each subxact alias, whose writes
        // carry the subxid in tuple headers) are published before the
        // tombstone, so the on_mvcc vanished path always finds them.
        let e = g.earliest_out_conflict_commit;
        for x in std::iter::once(&rec.txid).chain(&g.alias_txids) {
            self.serial.record(*x, commit_csn, e);
        }
        let edges = Edges::take(&mut g).expect("checked above");
        drop(g);
        self.unlink(rec, edges, true);
        self.stats.summarized.bump();
    }

    /// Oldest snapshot CSN of an active or prepared serializable transaction
    /// (`MAX` if none): the serializable half of the engine's vacuum horizon.
    pub fn snapshot_horizon(&self) -> CommitSeqNo {
        Self::horizons_locked(&self.lock_order()).0
    }

    /// Top-level xids of every active or prepared serializable transaction,
    /// sorted (crash recovery aborts them in a replayable order).
    pub fn active_txids(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self.lock_order().active.values().map(|a| a.txid).collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------------
    // Introspection (tests, benchmarks)
    // ------------------------------------------------------------------

    /// Number of active (and prepared) serializable transactions.
    pub fn active_count(&self) -> usize {
        self.lock_order().active.len()
    }

    /// Number of committed records currently retained.
    pub fn committed_retained(&self) -> usize {
        self.lock_order().committed.len()
    }

    /// Number of threads asleep in [`SsiManager::wait_for_safety`]: read
    /// under the commit-order mutex, so a counted waiter has already released
    /// it into its sleep.
    pub fn safety_waiters(&self) -> usize {
        self.lock_order().safety_waiters
    }

    /// Total transaction records (bounded-memory assertions).
    pub fn record_count(&self) -> usize {
        self.reg.record_count()
    }
}
