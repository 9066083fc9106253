//! Serializable-transaction records (`SERIALIZABLEXACT` in PostgreSQL).
//!
//! Since the conflict-graph sharding, a record is a shared [`Sxact`] handle
//! (`Arc<Sxact>` throughout the manager) split into three tiers by how it is
//! synchronized:
//!
//! * **immutable identity** (`txid`, `snapshot_csn`, the declared
//!   read-only/deferrable flags): set at `begin`, readable by anyone with the
//!   handle, no lock at all;
//! * **lock-free summary word** (phase, commit/prepare CSN, `wrote`, the
//!   read-only safety flags, `doomed`): atomics that third parties read
//!   *without* taking the record's lock during dangerous-structure checks.
//!   Every such read is either made accurate by holding the record's edge
//!   lock (writers of these fields hold it — see below) or errs in the
//!   conservative direction when stale: a not-yet-visible commit reads as
//!   "uncommitted", which only widens the set of structures judged dangerous;
//! * **edge state** ([`SxactMut`] behind the record's own mutex): the in/out
//!   conflict sets, summary-conflict flags, the earliest-out-conflict bound,
//!   read-only tracking sets, subxid aliases, and the `gone` tombstone.
//!
//! Writers of the atomic tier hold the record's mutex while storing (phase
//! transitions, commit CSN assignment), so a reader that *also* holds the
//! mutex observes them exactly; lock-free readers may observe them late.
//! Edge sets are `BTreeSet`s so iteration order (and therefore victim choice)
//! is deterministic — the graph-model proptest relies on identical verdicts
//! across registry-shard counts.
//!
//! The transaction itself holds a [`SxactHandle`]: its own `Arc` to the record
//! plus its SIREAD owner record. Every per-operation entry point of the
//! manager takes the handle, so the owning session never resolves *itself*
//! through the registry or the lock manager's owner directory — those lookups
//! are for peers.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pgssi_common::{CommitSeqNo, TxnId};
use pgssi_lockmgr::siread::OwnerHandle;

use crate::rule::{Facts, Fate};

/// Phase of a serializable transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Running normally.
    Active,
    /// Passed the pre-commit check (or PREPARE TRANSACTION); can no longer be
    /// chosen as an abort victim (§7.1).
    Prepared,
    /// Committed; record retained until cleanup/summarization.
    Committed,
    /// Rolled back; record removed promptly.
    Aborted,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Active,
            1 => Phase::Prepared,
            2 => Phase::Committed,
            _ => Phase::Aborted,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Phase::Active => 0,
            Phase::Prepared => 1,
            Phase::Committed => 2,
            Phase::Aborted => 3,
        }
    }
}

/// `Option<CommitSeqNo>` packed into an atomic (`u64::MAX` = `None`; the MAX
/// sentinel is never a real CSN).
const NO_CSN: u64 = u64::MAX;

/// Mutex-guarded per-record state: conflict edges and everything whose
/// consistency the structure checks need (paper §5.3). Guarded by
/// [`Sxact::lock`]; two records are only ever locked together in ascending
/// txid order (see `manager.rs` module docs).
#[derive(Debug)]
pub struct SxactMut {
    /// Transactions with an rw-antidependency *into* this one (`T –rw→ me`:
    /// T read a version this transaction replaced).
    pub in_conflicts: BTreeSet<TxnId>,
    /// Transactions this one has an rw-antidependency *out* to (`me –rw→ T`:
    /// this transaction read a version T replaced).
    pub out_conflicts: BTreeSet<TxnId>,
    /// A summarized (§6.2) or cleaned-up transaction had an edge into this one;
    /// precise identity lost, treated conservatively.
    pub summary_conflict_in: bool,
    /// This transaction has an edge out to a summarized transaction.
    pub summary_conflict_out: bool,
    /// Minimum commit CSN among committed out-conflict targets (including
    /// summarized ones) — "the commit sequence number of the earliest committed
    /// transaction to which it has a conflict out" (§6.1). `MAX` = none.
    pub earliest_out_conflict_commit: CommitSeqNo,
    /// Subtransaction ids writing on behalf of this transaction (savepoints,
    /// §7.3). MVCC conflict events may name these ids; they alias to this
    /// record.
    pub alias_txids: Vec<TxnId>,
    /// For read-only transactions: concurrent read/write transactions whose
    /// commits must be observed before the snapshot can be declared safe (§4.2;
    /// PostgreSQL's `possibleUnsafeConflicts`).
    pub possible_unsafe: BTreeSet<TxnId>,
    /// Mirror of `possible_unsafe`: read-only transactions watching this
    /// read/write transaction.
    pub ro_trackers: BTreeSet<TxnId>,
    /// Tombstone: the record has been (or is being) removed from the registry
    /// by abort, §6.1 cleanup, or §6.2 summarization. Set under the record's
    /// lock *after* any information that must outlive the record (the
    /// consolidated SIREAD csn, the serial-table entry) is already published,
    /// so an observer of `gone == true` can safely fall back to the
    /// vanished-record paths.
    pub gone: bool,
    /// Went through PREPARE TRANSACTION (or was recovered prepared): its
    /// commit is COMMIT PREPARED, which skips the pivot re-check (§7.1).
    pub two_phase: bool,
}

impl SxactMut {
    /// Whether this transaction has an rw-antidependency out to something,
    /// summarized or folded into the out-bound included: the fact a
    /// [`crate::CommitDigest`] and a [`crate::PreparedSsi`] export.
    pub(crate) fn had_out_conflict(&self) -> bool {
        !self.out_conflicts.is_empty()
            || self.summary_conflict_out
            || self.earliest_out_conflict_commit != CommitSeqNo::MAX
    }

    /// The §7.1 conservatism of a prepared transaction, live or recovered:
    /// conflicts assumed both ways, out-bound at the prepare CSN (anything
    /// later cannot have committed first), and the two-phase mark.
    pub(crate) fn mark_two_phase(&mut self, prepare_csn: CommitSeqNo) {
        self.summary_conflict_in = true;
        self.summary_conflict_out = true;
        self.earliest_out_conflict_commit = self.earliest_out_conflict_commit.min(prepare_csn);
        self.two_phase = true;
    }
}

/// State tracked per serializable transaction (paper §5.3). Shared as
/// `Arc<Sxact>`; see the module docs for the synchronization tiers.
#[derive(Debug)]
pub struct Sxact {
    /// The transaction's top-level xid: the record's id in the registry, its
    /// peers' edge sets and the SIREAD owner directory. Txids are unique and
    /// never reused, and `TxnId(0)` — the dummy old-committed owner — is
    /// never assigned.
    pub txid: TxnId,
    /// Commit-sequence frontier at snapshot time: transactions with
    /// `commit_csn < snapshot_csn` are visible to this transaction.
    pub snapshot_csn: CommitSeqNo,
    /// Declared `BEGIN TRANSACTION READ ONLY`.
    pub declared_read_only: bool,
    /// Wants to run only on a safe snapshot (§4.3).
    pub deferrable: bool,
    /// Lifecycle phase (atomic tier; transitions happen under [`Sxact::lock`]).
    phase: AtomicU8,
    /// Assigned at commit (`NO_CSN` until then; written under the lock).
    commit_csn: AtomicU64,
    /// Frontier at prepare time: a conservative lower bound on the eventual
    /// commit CSN, used in ordering tests while the transaction is prepared.
    prepare_csn: AtomicU64,
    /// Performed at least one write.
    wrote: AtomicBool,
    /// Proven to run on a safe snapshot: SIREAD locks dropped, no abort risk,
    /// no further tracking (§4.2).
    ro_safe: AtomicBool,
    /// Snapshot proven unsafe; normal SSI tracking continues (§4.2).
    ro_unsafe: AtomicBool,
    /// Marked for death by another transaction's conflict check (safe-retry
    /// victim choice, §5.4); noticed at the next operation or commit. The
    /// owning session polls it through its [`SxactHandle`] without any lock.
    doomed: AtomicBool,
    /// Edge state (see [`SxactMut`]).
    mu: Mutex<SxactMut>,
}

impl Sxact {
    /// Fresh active record.
    pub fn new(
        txid: TxnId,
        snapshot_csn: CommitSeqNo,
        declared_read_only: bool,
        deferrable: bool,
    ) -> Sxact {
        Sxact {
            txid,
            snapshot_csn,
            declared_read_only,
            deferrable,
            phase: AtomicU8::new(Phase::Active.as_u8()),
            commit_csn: AtomicU64::new(NO_CSN),
            prepare_csn: AtomicU64::new(NO_CSN),
            wrote: AtomicBool::new(false),
            ro_safe: AtomicBool::new(false),
            ro_unsafe: AtomicBool::new(false),
            doomed: AtomicBool::new(false),
            mu: Mutex::new(SxactMut {
                in_conflicts: BTreeSet::new(),
                out_conflicts: BTreeSet::new(),
                summary_conflict_in: false,
                summary_conflict_out: false,
                earliest_out_conflict_commit: CommitSeqNo::MAX,
                alias_txids: Vec::new(),
                possible_unsafe: BTreeSet::new(),
                ro_trackers: BTreeSet::new(),
                gone: false,
                two_phase: false,
            }),
        }
    }

    /// Lock this record's edge state. A committing transaction holds this
    /// across the durable-WAL append (which contains sim yield points), so a
    /// sim thread must acquire it cooperatively — never by OS-blocking on a
    /// holder that is parked in the scheduler.
    pub fn lock(&self) -> MutexGuard<'_, SxactMut> {
        pgssi_common::sim::lock_cooperatively(
            pgssi_common::sim::Site::LockSpin,
            || self.mu.try_lock(),
            || self.mu.lock(),
        )
    }

    /// Current phase (lock-free; accurate when the record's lock is held).
    #[inline]
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Acquire))
    }

    /// Transition phase. Callers hold the record's lock so that check-then-act
    /// sequences (doom-if-abortable vs. prepare) are mutually exclusive.
    #[inline]
    pub fn set_phase(&self, p: Phase) {
        self.phase.store(p.as_u8(), Ordering::Release);
    }

    /// Commit CSN if committed (lock-free).
    #[inline]
    pub fn commit_csn(&self) -> Option<CommitSeqNo> {
        match self.commit_csn.load(Ordering::Acquire) {
            NO_CSN => None,
            v => Some(CommitSeqNo(v)),
        }
    }

    /// Record the commit CSN (called under the record's lock at commit).
    #[inline]
    pub fn set_commit_csn(&self, csn: CommitSeqNo) {
        self.commit_csn.store(csn.0, Ordering::Release);
    }

    /// Prepare-time CSN bound if prepared (lock-free).
    #[inline]
    pub fn prepare_csn(&self) -> Option<CommitSeqNo> {
        match self.prepare_csn.load(Ordering::Acquire) {
            NO_CSN => None,
            v => Some(CommitSeqNo(v)),
        }
    }

    /// Record (or clear, with `None`) the prepare CSN under the record's lock.
    #[inline]
    pub fn set_prepare_csn(&self, csn: Option<CommitSeqNo>) {
        self.prepare_csn
            .store(csn.map(|c| c.0).unwrap_or(NO_CSN), Ordering::Release);
    }

    /// Has this transaction written anything?
    #[inline]
    pub fn wrote(&self) -> bool {
        self.wrote.load(Ordering::Acquire)
    }

    /// Mark as having written (idempotent, lock-free).
    #[inline]
    pub fn set_wrote(&self) {
        self.wrote.store(true, Ordering::Release);
    }

    /// Is the snapshot proven safe (§4.2)? Lock-free: the read hot path polls
    /// this without touching any manager state.
    #[inline]
    pub fn ro_safe(&self) -> bool {
        self.ro_safe.load(Ordering::Acquire)
    }

    /// Mark the snapshot safe.
    #[inline]
    pub fn set_ro_safe(&self) {
        self.ro_safe.store(true, Ordering::Release);
    }

    /// Is the snapshot proven unsafe (§4.2)?
    #[inline]
    pub fn ro_unsafe(&self) -> bool {
        self.ro_unsafe.load(Ordering::Acquire)
    }

    /// Mark the snapshot unsafe.
    #[inline]
    pub fn set_ro_unsafe(&self) {
        self.ro_unsafe.store(true, Ordering::Release);
    }

    /// Read-only for the purposes of Theorem 3: declared so, or committed
    /// without writing (§4.1).
    pub fn is_read_only(&self) -> bool {
        self.declared_read_only || (self.phase() == Phase::Committed && !self.wrote())
    }

    /// Committed?
    #[inline]
    pub fn is_committed(&self) -> bool {
        self.phase() == Phase::Committed
    }

    /// Can this transaction still be chosen as an abort victim? Prepared and
    /// committed transactions cannot (§7.1). Only authoritative while the
    /// record's lock is held (phase transitions happen under it).
    #[inline]
    pub fn is_abortable(&self) -> bool {
        self.phase() == Phase::Active
    }

    /// Whether this transaction has been chosen as an abort victim.
    #[inline]
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Relaxed)
    }

    /// Mark as victim (§5.4). Callers hold the record's lock (so a doom can
    /// never race a prepare transition); the flag itself stays an atomic so
    /// the owning session can poll it lock-free.
    #[inline]
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Relaxed);
    }

    /// Lock the record and doom it only if it is still abortable. Returns
    /// whether the victim was claimed; `false` means it prepared or committed
    /// first and the caller must pick another victim (§5.4, §7.1).
    pub fn doom_if_abortable(&self) -> bool {
        let _g = self.lock();
        if self.is_abortable() {
            self.doom();
            true
        } else {
            false
        }
    }

    /// What a dangerous-structure check reads of this record. Lock-free:
    /// exact under the record's lock, and conservative when stale for a T1 or
    /// T2 (an unseen commit reads as not committed); a T3's is read under its
    /// lock.
    pub fn facts(&self) -> Facts {
        let fate = match (self.commit_csn(), self.phase(), self.prepare_csn()) {
            (Some(c), _, _) => Fate::Committed(c),
            (None, Phase::Prepared, Some(p)) => Fate::Prepared(p),
            _ => Fate::Active,
        };
        Facts {
            snapshot: self.snapshot_csn,
            fate,
            read_only: self.is_read_only(),
            summarized: false,
        }
    }
}

/// A serializable transaction's own reference to its SSI state: the record
/// and, unless it began on a safe snapshot, its SIREAD owner record. Returned
/// by `SsiManager::begin` and passed to every per-operation entry point, so a
/// transaction that conflicts with nobody touches only memory it owns.
/// Cloning is two reference-count bumps.
#[derive(Clone, Debug)]
pub struct SxactHandle {
    pub(crate) rec: Arc<Sxact>,
    /// `None` if the transaction never registered as a lock owner (safe
    /// snapshot at begin).
    pub(crate) owner: Option<OwnerHandle>,
}

impl SxactHandle {
    /// The transaction's top-level xid (also its record id and SIREAD owner
    /// id).
    #[inline]
    pub fn txid(&self) -> TxnId {
        self.rec.txid
    }

    /// Has another transaction's conflict check marked this one for death
    /// (§5.4)? One relaxed load of the transaction's own record.
    #[inline]
    pub fn is_doomed(&self) -> bool {
        self.rec.is_doomed()
    }
}

/// Lock two records' edge state in canonical (ascending txid) order and
/// return the guards in the order the records were *passed*. The canonical
/// acquisition order is what makes concurrent edge insertions deadlock-free.
pub fn lock_pair<'a>(
    a: &'a Sxact,
    b: &'a Sxact,
) -> (MutexGuard<'a, SxactMut>, MutexGuard<'a, SxactMut>) {
    debug_assert_ne!(a.txid, b.txid, "lock_pair on one record");
    if a.txid < b.txid {
        let ga = a.lock();
        let gb = b.lock();
        (ga, gb)
    } else {
        let gb = b.lock();
        let ga = a.lock();
        (ga, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sx() -> Sxact {
        Sxact::new(TxnId(5), CommitSeqNo(3), false, false)
    }

    #[test]
    fn new_sxact_is_active_and_clean() {
        let s = sx();
        assert_eq!(s.phase(), Phase::Active);
        assert!(s.is_abortable());
        assert!(!s.is_read_only());
        assert_eq!(s.lock().earliest_out_conflict_commit, CommitSeqNo::MAX);
        assert_eq!(s.commit_csn(), None);
        assert_eq!(s.prepare_csn(), None);
    }

    #[test]
    fn read_only_rules() {
        let s = sx();
        assert!(!s.is_read_only());
        let declared = Sxact::new(TxnId(6), CommitSeqNo(3), true, false);
        assert!(declared.is_read_only(), "declared RO counts immediately");

        let s2 = sx();
        s2.set_phase(Phase::Committed);
        assert!(s2.is_read_only(), "committed without writes counts");
        s2.set_wrote();
        assert!(!s2.is_read_only());
    }

    #[test]
    fn prepared_is_not_abortable_and_exposes_prepare_csn() {
        let s = sx();
        s.set_phase(Phase::Prepared);
        s.set_prepare_csn(Some(CommitSeqNo(9)));
        assert!(!s.is_abortable());
        assert_eq!(s.facts().fate, Fate::Prepared(CommitSeqNo(9)));
        s.set_phase(Phase::Committed);
        s.set_commit_csn(CommitSeqNo(12));
        assert_eq!(s.facts().fate, Fate::Committed(CommitSeqNo(12)));
    }

    #[test]
    fn doom_if_abortable_respects_prepare() {
        let s = sx();
        assert!(s.doom_if_abortable());
        assert!(s.is_doomed());
        let p = sx();
        p.set_phase(Phase::Prepared);
        assert!(!p.doom_if_abortable(), "prepared records cannot be doomed");
        assert!(!p.is_doomed());
    }

    #[test]
    fn lock_pair_returns_guards_in_argument_order() {
        let a = Sxact::new(TxnId(5), CommitSeqNo(3), false, false);
        let b = Sxact::new(TxnId(6), CommitSeqNo(3), false, false);
        {
            let (ga, gb) = lock_pair(&a, &b);
            drop((ga, gb));
        }
        {
            let (ga, mut gb) = lock_pair(&b, &a); // reversed argument order
            gb.summary_conflict_in = true; // gb must be `a`'s state
            drop(ga);
        }
        assert!(a.lock().summary_conflict_in);
        assert!(!b.lock().summary_conflict_in);
    }
}
