//! MVCC visibility with SSI conflict-event reporting (paper §5.2).
//!
//! PostgreSQL's SSI detects *write-before-read* rw-antidependencies without any
//! locks: every read already performs a visibility check against the tuple's
//! `xmin`/`xmax`, and the two cases that reveal a conflict are
//!
//! 1. the tuple is **invisible because its creator had not committed when the
//!    reader took its snapshot** — the reader logically read the *previous* version,
//!    so `reader –rw→ creator`;
//! 2. the tuple is **visible but has been deleted/updated by a transaction that had
//!    not committed when the reader took its snapshot** — the reader did not see the
//!    deletion, so `reader –rw→ deleter`.
//!
//! [`check_mvcc`] reports these as [`VisEvent`]s; the SSI core decides whether the
//! writer was a serializable transaction and whether the edge forms a dangerous
//! structure.
//!
//! "Had not committed when the reader took its snapshot" is one comparison:
//! the writer's clog CSN against the snapshot's frontier ([`Snapshot`] is
//! that one number). PostgreSQL asks `XidInMVCCSnapshot` of an xid list
//! instead; the answer is the same because the transaction manager writes a
//! commit's clog entries before it moves the frontier past them
//! (`crate::txn`), so an xid can never turn "committed before S" after S was
//! taken.

use pgssi_common::{Snapshot, TxnId};

use crate::clog::{CommitLog, TxnStatus};
use crate::heap::HeapTuple;

/// Answers "does this xid belong to the reading transaction?" — the reader's own
/// top-level id plus any *live* subtransaction ids (aborted savepoints excluded).
pub trait OwnXids {
    /// True if `xid` is the caller's top-level id or one of its live subxids.
    fn is_mine(&self, xid: TxnId) -> bool;
}

/// Trivial [`OwnXids`] for transactions that never created a savepoint.
#[derive(Clone, Copy, Debug)]
pub struct SingleXid(pub TxnId);

impl OwnXids for SingleXid {
    #[inline]
    fn is_mine(&self, xid: TxnId) -> bool {
        xid == self.0
    }
}

/// An rw-antidependency discovered during a visibility check.
///
/// Both variants mean `reader –rw→ writer` (the reader appears *earlier* in the
/// apparent serial order). The variant records which tuple header field revealed it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VisEvent {
    /// The reader skipped a newer version created by `writer` (invisible `xmin`).
    ConflictOutCreator(TxnId),
    /// The reader saw a version that `writer` has deleted or superseded, but the
    /// deletion was not visible to the reader's snapshot.
    ConflictOutDeleter(TxnId),
}

impl VisEvent {
    /// The transaction on the write side of the rw edge.
    #[inline]
    pub fn writer(self) -> TxnId {
        match self {
            VisEvent::ConflictOutCreator(w) | VisEvent::ConflictOutDeleter(w) => w,
        }
    }
}

/// The rw-antidependency events of one visibility check: an inline value with
/// room for two, so a check never allocates. (Each of the two header fields can
/// reveal one writer; today's rules report at most one per version.)
#[derive(Clone, Copy, Debug)]
pub struct VisEvents {
    len: u8,
    slots: [VisEvent; 2],
}

impl Default for VisEvents {
    fn default() -> VisEvents {
        VisEvents {
            len: 0,
            slots: [VisEvent::ConflictOutCreator(TxnId::INVALID); 2],
        }
    }
}

impl VisEvents {
    fn push(&mut self, e: VisEvent) {
        self.slots[self.len as usize] = e;
        self.len += 1;
    }
}

impl std::ops::Deref for VisEvents {
    type Target = [VisEvent];

    #[inline]
    fn deref(&self) -> &[VisEvent] {
        &self.slots[..self.len as usize]
    }
}

/// Result of an MVCC visibility check.
#[derive(Clone, Copy, Debug, Default)]
pub struct VisCheck {
    /// Whether the tuple version is visible to the snapshot.
    pub visible: bool,
    /// rw-antidependency events discovered along the way.
    pub events: VisEvents,
}

/// How an xid relates to the reading transaction's snapshot.
enum XidView {
    Mine,
    /// Committed before the snapshot was taken: its effects are visible.
    VisibleCommitted,
    /// Committed, but after the snapshot was taken: concurrent.
    ConcurrentCommitted,
    /// Still in progress: concurrent.
    ConcurrentInProgress,
    Aborted,
}

/// One clog read and one comparison: a committed xid is concurrent iff its
/// commit CSN is at or past the snapshot's frontier. Frozen (checkpoint
/// image) rows are visible to every snapshot, even one whose frontier is
/// still [`CommitSeqNo::FIRST`](pgssi_common::CommitSeqNo::FIRST) — the CSN
/// the clog reports for `FROZEN` — on a database that replayed nothing.
fn classify(xid: TxnId, snap: &Snapshot, clog: &CommitLog, own: &dyn OwnXids) -> XidView {
    if xid.is_frozen() {
        return XidView::VisibleCommitted;
    }
    if own.is_mine(xid) {
        return XidView::Mine;
    }
    match clog.status(xid) {
        TxnStatus::Aborted => XidView::Aborted,
        TxnStatus::InProgress => XidView::ConcurrentInProgress,
        TxnStatus::Committed(c) if snap.committed_before(c) => XidView::VisibleCommitted,
        // Committed now, but was running (or unborn) at snapshot time.
        TxnStatus::Committed(_) => XidView::ConcurrentCommitted,
    }
}

/// PostgreSQL's `HeapTupleSatisfiesMVCC` plus SSI conflict-out detection
/// (`CheckForSerializableConflictOut`), fused into one pass over the tuple header.
pub fn check_mvcc(
    tuple: &HeapTuple,
    snap: &Snapshot,
    clog: &CommitLog,
    own: &dyn OwnXids,
) -> VisCheck {
    let mut out = VisCheck::default();

    // Step 1: is the creating transaction visible?
    match classify(tuple.xmin, snap, clog, own) {
        XidView::Aborted => return out, // dead version; no conflict possible (§5.2)
        XidView::ConcurrentInProgress => {
            out.events.push(VisEvent::ConflictOutCreator(tuple.xmin));
            return out;
        }
        XidView::ConcurrentCommitted => {
            out.events.push(VisEvent::ConflictOutCreator(tuple.xmin));
            return out;
        }
        XidView::Mine | XidView::VisibleCommitted => {}
    }

    // Step 2: creation is visible; is there a visible deletion?
    if !tuple.xmax.is_valid() {
        out.visible = true;
        return out;
    }
    match classify(tuple.xmax, snap, clog, own) {
        XidView::Mine => {
            // We deleted/updated it ourselves: not visible, not a conflict.
        }
        XidView::Aborted => {
            out.visible = true;
        }
        XidView::ConcurrentInProgress => {
            out.visible = true;
            out.events.push(VisEvent::ConflictOutDeleter(tuple.xmax));
        }
        XidView::ConcurrentCommitted => {
            out.visible = true;
            out.events.push(VisEvent::ConflictOutDeleter(tuple.xmax));
        }
        XidView::VisibleCommitted => {
            // Deleted before our snapshot: invisible, no conflict.
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapTuple;
    use crate::txn::TxnManager;
    use pgssi_common::row;

    fn tuple(xmin: TxnId, xmax: TxnId) -> HeapTuple {
        HeapTuple {
            xmin,
            xmax,
            next: None,
            is_root: true,
            pruned: false,
            dead: false,
            row: row![1],
        }
    }

    /// Environment: committed transaction `old` (before snapshot), the reader
    /// `me`, and a concurrent transaction `conc` (started before snapshot, still
    /// running unless the test finishes it).
    struct Env {
        tm: TxnManager,
        old: TxnId,
        me: TxnId,
        conc: TxnId,
        snap: Snapshot,
    }

    fn env() -> Env {
        let tm = TxnManager::new();
        let old = tm.begin();
        tm.commit(&[old]);
        let conc = tm.begin();
        let me = tm.begin();
        let snap = tm.snapshot();
        Env {
            tm,
            old,
            me,
            conc,
            snap,
        }
    }

    fn check(e: &Env, t: &HeapTuple) -> VisCheck {
        check_mvcc(t, &e.snap, e.tm.clog(), &SingleXid(e.me))
    }

    #[test]
    fn committed_before_snapshot_is_visible() {
        let e = env();
        let v = check(&e, &tuple(e.old, TxnId::INVALID));
        assert!(v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn own_insert_is_visible() {
        let e = env();
        let v = check(&e, &tuple(e.me, TxnId::INVALID));
        assert!(v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn own_delete_is_invisible_without_conflict() {
        let e = env();
        let v = check(&e, &tuple(e.old, e.me));
        assert!(!v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn in_progress_creator_invisible_with_conflict_out() {
        let e = env();
        let v = check(&e, &tuple(e.conc, TxnId::INVALID));
        assert!(!v.visible);
        assert_eq!(*v.events, [VisEvent::ConflictOutCreator(e.conc)]);
    }

    #[test]
    fn creator_committed_after_snapshot_invisible_with_conflict_out() {
        let e = env();
        e.tm.commit(&[e.conc]);
        let v = check(&e, &tuple(e.conc, TxnId::INVALID));
        assert!(!v.visible, "committed after snapshot must stay invisible");
        assert_eq!(*v.events, [VisEvent::ConflictOutCreator(e.conc)]);
    }

    #[test]
    fn aborted_creator_invisible_no_conflict() {
        let e = env();
        e.tm.abort(&[e.conc]);
        let v = check(&e, &tuple(e.conc, TxnId::INVALID));
        assert!(!v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn in_progress_deleter_still_visible_with_conflict_out() {
        let e = env();
        let v = check(&e, &tuple(e.old, e.conc));
        assert!(v.visible, "uncommitted delete must not hide the tuple");
        assert_eq!(*v.events, [VisEvent::ConflictOutDeleter(e.conc)]);
    }

    #[test]
    fn deleter_committed_after_snapshot_still_visible_with_conflict_out() {
        let e = env();
        e.tm.commit(&[e.conc]);
        let v = check(&e, &tuple(e.old, e.conc));
        assert!(v.visible);
        assert_eq!(*v.events, [VisEvent::ConflictOutDeleter(e.conc)]);
    }

    #[test]
    fn deleter_committed_before_snapshot_hides_tuple() {
        let tm = TxnManager::new();
        let creator = tm.begin();
        tm.commit(&[creator]);
        let deleter = tm.begin();
        tm.commit(&[deleter]);
        let me = tm.begin();
        let snap = tm.snapshot();
        let v = check_mvcc(&tuple(creator, deleter), &snap, tm.clog(), &SingleXid(me));
        assert!(!v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn aborted_deleter_leaves_tuple_visible() {
        let e = env();
        e.tm.abort(&[e.conc]);
        let v = check(&e, &tuple(e.old, e.conc));
        assert!(v.visible);
        assert!(v.events.is_empty());
    }

    #[test]
    fn frozen_tuples_always_visible() {
        let e = env();
        let v = check(&e, &tuple(TxnId::FROZEN, TxnId::INVALID));
        assert!(v.visible);
    }

    #[test]
    fn subxid_counts_as_mine() {
        struct TwoXids(TxnId, TxnId);
        impl OwnXids for TwoXids {
            fn is_mine(&self, x: TxnId) -> bool {
                x == self.0 || x == self.1
            }
        }
        let tm = TxnManager::new();
        let top = tm.begin();
        let sub = tm.begin_sub();
        let snap = tm.snapshot();
        let v = check_mvcc(
            &tuple(sub, TxnId::INVALID),
            &snap,
            tm.clog(),
            &TwoXids(top, sub),
        );
        assert!(
            v.visible,
            "live subtransaction writes are visible to parent"
        );
    }
}
