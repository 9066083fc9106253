//! The MVCC tuple heap (paper §5.1).
//!
//! A heap is a page-structured store of [`HeapTuple`] versions. Updating a row
//! writes a *new* version at a new `(page, slot)` location and links it from the
//! old one, exactly as PostgreSQL does; index-driven readers walk the version
//! chain from the root (the version the indexes point at) to the version visible
//! to their snapshot, and sequential scans judge every version on a page on its
//! own ([`Heap::scan_visible`]).
//!
//! Tuple write locks are the `xmax` field itself: a transaction "locks" a version
//! for update/delete by stamping its xid into `xmax` under the page latch. A
//! conflicting writer discovers the in-progress `xmax` and waits for that
//! transaction via [`crate::txn::TxnManager::wait_for`]. This mirrors PostgreSQL
//! storing row locks in tuple headers rather than the shared lock table (§5.1),
//! which is precisely why the SSI implementation could not find read-write conflicts
//! through the regular lock manager and needed MVCC-based detection plus a new
//! SIREAD table (§5.2).
//!
//! # Space reuse
//!
//! The heap stays the size of its live data the way PostgreSQL's does: pruning
//! frees slots, and new versions fill free slots before any page is added.
//!
//! * **What is freed, and when.** [`Heap::prune`] frees the slot of every
//!   *non-root* version no snapshot at or after the horizon can see: versions
//!   superseded by an update that committed before the horizon, every version of
//!   a row whose delete committed before it, and versions written by aborted
//!   transactions (a writer that steals an aborted locker's `xmax` frees that
//!   locker's versions on the spot). A root is never freed, because index entries
//!   and the chain walk's starting point name its slot: once dead it stays as a
//!   payload-less *redirect stub* ([`HeapTuple::pruned`]) whose `next` names the
//!   oldest version still needed, or as a [`HeapTuple::dead`] stub when the whole
//!   row is gone.
//! * **Unlink before free.** A slot is freed only after the pointer that led to it
//!   was cut or redirected under its page latch, so no pointer reachable from a
//!   root ever names a free or re-used slot. Only a walker that read a pointer
//!   *before* the cut can still hold one.
//! * **Validated hops.** That walker is caught the way PostgreSQL's chain
//!   following checks `priorXmax`: a [`NextPtr`] carries the `xmin` its target
//!   must have. A freed version's creator finished (committed before the horizon,
//!   or aborted) before the slot was freed and transaction ids are never re-used,
//!   so whatever occupies the slot later has a different `xmin`. A hop that lands
//!   on a free slot or a different `xmin` restarts from the root, whose chain no
//!   longer contains the stale pointer. Hops within a page run under the latch
//!   already held and cannot go stale.
//! * **Placement.** A new version goes to its predecessor's page when that page
//!   has room (one latch covers the insert and the link), else to the most
//!   recently freed page, else to a new page.
//! * **Physical lock targets.** SIREAD tuple locks name `(page, slot)`. A version
//!   some registered snapshot can still see is never freed, so the slot a
//!   concurrent reader locked still holds what it read when a writer checks it. A
//!   lock that outlives its version may later cover an unrelated version in the
//!   re-used slot: that can flag a conflict that is not there, never hide one
//!   (PostgreSQL accepted the same when it dropped `xmin` from the predicate-lock
//!   tag).
//! * **Scan order** is physical — page by page, slot by slot — and therefore
//!   unspecified: it changes as slots are re-used.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};
use pgssi_common::{CommitSeqNo, PageNo, RelId, Row, SlotNo, Snapshot, TupleId, TxnId};

use crate::clog::{CommitLog, TxnStatus};
use crate::once_table::OnceTable;
use crate::visibility::{check_mvcc, OwnXids, VisEvent};

/// Fixed heap-page capacity, in tuples. Small enough that page-granularity SIREAD
/// locks (paper §5.2.1) cover a meaningful but bounded key neighbourhood.
pub const TUPLES_PER_PAGE: usize = 64;

/// Link to the next (newer) version of a row: where it is, and the `xmin` the
/// version there must carry for the link to still be good (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NextPtr {
    /// Location of the successor.
    pub tid: TupleId,
    /// The successor's creating transaction.
    pub xmin: TxnId,
}

/// One tuple version.
#[derive(Clone, Debug)]
pub struct HeapTuple {
    /// Creating transaction.
    pub xmin: TxnId,
    /// Deleting/superseding transaction, or [`TxnId::INVALID`]. Doubles as the
    /// tuple write lock while the transaction is in progress.
    pub xmax: TxnId,
    /// Next (newer) version in the update chain.
    pub next: Option<NextPtr>,
    /// True for versions created by `insert` (chain roots that indexes point at);
    /// false for versions appended by updates.
    pub is_root: bool,
    /// Root whose own version is dead: the payload is gone and the header is a
    /// redirect stub. Only roots are ever marked; other dead versions are freed.
    pub pruned: bool,
    /// Entire logical row is dead (set on roots by prune once no snapshot can see
    /// any version); index entries pointing here may be reclaimed.
    pub dead: bool,
    /// Column values (empty if `pruned`).
    pub row: Row,
}

/// Outcome of trying to take the tuple write lock for update/delete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// `xmax` stamped with the caller's xid; the caller may delete or append a new
    /// version.
    Locked,
    /// The caller (or one of its live subtransactions) already holds the lock.
    SelfLocked(TxnId),
    /// An in-progress transaction holds the lock; wait for it and retry.
    Wait(TxnId),
    /// A committed transaction deleted/updated this version. `has_next` says whether
    /// a newer version exists (update) or not (plain delete). Under snapshot
    /// isolation this is the "first updater wins" serialization failure; under READ
    /// COMMITTED the caller follows the chain instead.
    Committed { deleter: TxnId, has_next: bool },
}

/// Result of resolving a version chain against a snapshot.
#[derive(Clone, Debug)]
pub struct ChainRead {
    /// Visible version and its row, if any.
    pub visible: Option<(TupleId, Row)>,
    /// rw-antidependency events discovered while walking (paper §5.2).
    pub events: Vec<VisEvent>,
}

/// What one [`Heap::prune`] pass did.
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Versions whose payload was reclaimed (slots freed plus roots turned into
    /// stubs).
    pub versions_pruned: usize,
    /// Roots marked [`HeapTuple::dead`] by this pass: their index entries can go.
    pub killed_roots: Vec<TupleId>,
}

struct HeapPage {
    /// `None` is a free slot.
    slots: Vec<Option<HeapTuple>>,
    /// The `None` entries of `slots`.
    free: Vec<SlotNo>,
    /// Whether [`Heap::with_room`] lists this page. A listed page may turn out
    /// full (its own rows' updates filled it); the insert that finds it so
    /// unlists it.
    listed: bool,
}

impl HeapPage {
    fn get(&self, slot: SlotNo) -> Option<&HeapTuple> {
        self.slots.get(slot as usize)?.as_ref()
    }

    fn get_mut(&mut self, slot: SlotNo) -> Option<&mut HeapTuple> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    fn has_room(&self) -> bool {
        !self.free.is_empty() || self.slots.len() < TUPLES_PER_PAGE
    }

    /// Store `tuple` in a free slot; the caller checked [`HeapPage::has_room`].
    fn place(&mut self, tuple: HeapTuple) -> SlotNo {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(tuple);
                slot
            }
            None => {
                self.slots.push(Some(tuple));
                (self.slots.len() - 1) as SlotNo
            }
        }
    }
}

/// A cross-page hop found its target slot freed or re-used: walk again from the
/// root.
struct Stale;

/// Header fields of one chain member, as [`Heap::prune`] collected them.
struct Link {
    tid: TupleId,
    xmin: TxnId,
    xmax: TxnId,
    has_next: bool,
    pruned: bool,
}

/// A page-structured MVCC heap for one relation.
pub struct Heap {
    rel: RelId,
    pages: OnceTable<RwLock<HeapPage>>,
    /// Pages `0..page_count` exist; grows under `with_room`.
    page_count: AtomicUsize,
    /// Pages with a free slot, most recently freed last; inserts fill the last.
    /// Leaf lock: taken under a page latch, never the other way round.
    with_room: Mutex<Vec<PageNo>>,
    /// One prune pass at a time, so the only other party that frees slots is a
    /// writer disposing of an aborted branch.
    prune_lock: Mutex<()>,
    /// Runs once, between the two latches of the next cross-page hop.
    #[cfg(test)]
    hop_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Heap {
    /// Empty heap for relation `rel`.
    pub fn new(rel: RelId) -> Heap {
        Heap {
            rel,
            pages: OnceTable::new(),
            page_count: AtomicUsize::new(0),
            with_room: Mutex::new(Vec::new()),
            prune_lock: Mutex::new(()),
            #[cfg(test)]
            hop_hook: Mutex::new(None),
        }
    }

    /// The relation this heap stores.
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of pages currently allocated. Pages are never given back, but a
    /// pruned heap stops growing: see the module docs.
    pub fn page_count(&self) -> usize {
        self.page_count.load(Ordering::Acquire)
    }

    fn page(&self, no: PageNo) -> Option<&RwLock<HeapPage>> {
        self.pages.get(no as usize)
    }

    /// Insert a brand-new row (a chain root). Returns its physical location.
    pub fn insert(&self, row: Row, xmin: TxnId) -> TupleId {
        self.insert_tuple(HeapTuple {
            xmin,
            xmax: TxnId::INVALID,
            next: None,
            is_root: true,
            pruned: false,
            dead: false,
            row,
        })
    }

    /// The last page listed as having room; a new page if none is.
    fn page_with_room(&self) -> PageNo {
        let mut with_room = self.with_room.lock();
        if let Some(&pno) = with_room.last() {
            return pno;
        }
        let pno = self.page_count.load(Ordering::Relaxed);
        self.pages.get_or_init(pno, || {
            RwLock::new(HeapPage {
                slots: Vec::with_capacity(TUPLES_PER_PAGE),
                free: Vec::new(),
                listed: true,
            })
        });
        self.page_count.store(pno + 1, Ordering::Release);
        with_room.push(pno as PageNo);
        pno as PageNo
    }

    /// Place `tuple` on the last page listed as having room, or on a new page.
    fn insert_tuple(&self, tuple: HeapTuple) -> TupleId {
        loop {
            let pno = self.page_with_room();
            let page = self.page(pno).expect("listed pages exist");
            let mut guard = page.write();
            if guard.has_room() {
                return TupleId::new(pno, guard.place(tuple));
            }
            if guard.listed {
                guard.listed = false;
                let mut with_room = self.with_room.lock();
                if let Some(at) = with_room.iter().rposition(|&p| p == pno) {
                    with_room.swap_remove(at);
                }
            }
        }
    }

    /// Free the non-root version at `tid` if it still is the one `xmin` created,
    /// returning its `next`. The caller has unlinked it.
    fn free_version(&self, tid: TupleId, xmin: TxnId) -> Option<Option<NextPtr>> {
        let page = self.page(tid.page)?;
        let mut guard = page.write();
        if !matches!(guard.get(tid.slot), Some(t) if t.xmin == xmin && !t.is_root) {
            return None;
        }
        let tuple = guard.slots[tid.slot as usize].take()?;
        guard.free.push(tid.slot);
        if !guard.listed {
            guard.listed = true;
            self.with_room.lock().push(tid.page);
        }
        Some(tuple.next)
    }

    /// Free an unlinked chain suffix from `from` to its end; returns how many
    /// versions went.
    fn free_branch(&self, from: Option<NextPtr>) -> usize {
        let mut freed = 0;
        let mut cur = from;
        while let Some(ptr) = cur {
            let Some(next) = self.free_version(ptr.tid, ptr.xmin) else {
                break;
            };
            freed += 1;
            cur = next;
        }
        freed
    }

    /// Run `f` against whatever version occupies `tid`, under the page latch.
    /// `None` for a free slot. The caller must know the slot cannot have been
    /// re-used: a root, or a version one of its registered snapshots can see.
    pub fn with_tuple<T>(&self, tid: TupleId, f: impl FnOnce(&HeapTuple) -> T) -> Option<T> {
        let page = self.page(tid.page)?;
        let guard = page.read();
        guard.get(tid.slot).map(f)
    }

    fn with_tuple_mut<T>(&self, tid: TupleId, f: impl FnOnce(&mut HeapTuple) -> T) -> Option<T> {
        let page = self.page(tid.page)?;
        let mut guard = page.write();
        guard.get_mut(tid.slot).map(f)
    }

    /// Visit the chain from `root` oldest-first, each version under its page
    /// latch, until `visit` breaks or the chain ends. Same-page hops keep the
    /// latch; a cross-page hop re-validates its target and reports [`Stale`] if
    /// the slot was freed or re-used since the pointer was read.
    fn try_walk<T>(
        &self,
        root: TupleId,
        visit: &mut dyn FnMut(TupleId, &HeapTuple) -> ControlFlow<T>,
    ) -> Result<Option<T>, Stale> {
        let mut cur = root;
        // Nothing to hold the starting point against: callers pass a root (never
        // freed) or a version their snapshot keeps alive.
        let mut expect: Option<TxnId> = None;
        loop {
            let Some(page) = self.page(cur.page) else {
                return Ok(None);
            };
            let guard = page.read();
            loop {
                let tuple = match guard.get(cur.slot) {
                    Some(t) if expect.is_none_or(|xmin| t.xmin == xmin) => t,
                    _ if expect.is_some() => return Err(Stale),
                    _ => return Ok(None),
                };
                if let ControlFlow::Break(out) = visit(cur, tuple) {
                    return Ok(Some(out));
                }
                let Some(next) = tuple.next else {
                    return Ok(None);
                };
                let same_page = next.tid.page == cur.page;
                cur = next.tid;
                expect = Some(next.xmin);
                if !same_page {
                    break;
                }
            }
            drop(guard);
            #[cfg(test)]
            {
                let hook = self.hop_hook.lock().take();
                if let Some(hook) = hook {
                    hook();
                }
            }
        }
    }

    /// Walk the version chain starting at `root`, returning the visible version
    /// (if any) and the SSI conflict events discovered (paper §5.2). Only the
    /// visible version's row is cloned.
    ///
    /// `on_visible` is invoked **under the page latch** when the visible version
    /// is found. Serializable readers acquire their tuple SIREAD lock inside the
    /// hook: because a writer stamps `xmax` under the same latch and only checks
    /// SIREAD locks *after* stamping, latch ordering guarantees that either the
    /// reader's visibility check sees the `xmax` (MVCC-side conflict) or the
    /// writer's check sees the SIREAD lock (lock-side conflict) — never neither.
    /// PostgreSQL gets the same guarantee by calling `PredicateLockTuple` while
    /// the buffer is locked.
    pub fn read_chain(
        &self,
        root: TupleId,
        snap: &Snapshot,
        clog: &CommitLog,
        own: &dyn OwnXids,
        on_visible: &mut dyn FnMut(TupleId),
    ) -> ChainRead {
        let mut events: Vec<VisEvent> = Vec::new();
        loop {
            let walked = self.try_walk(root, &mut |tid, t| {
                if t.pruned {
                    // A stub is dead to every snapshot prune has to respect.
                    return ControlFlow::Continue(());
                }
                let vis = check_mvcc(t, snap, clog, own);
                for e in vis.events.iter() {
                    if !events.contains(e) {
                        events.push(*e);
                    }
                }
                if vis.visible {
                    on_visible(tid);
                    return ControlFlow::Break((tid, t.row.clone()));
                }
                ControlFlow::Continue(())
            });
            // Events seen before a restart stand: those versions were in the
            // chain when they were checked.
            if let Ok(visible) = walked {
                return ChainRead { visible, events };
            }
        }
    }

    /// Run `f` on the newest version of `root`'s chain, under its page latch —
    /// a dirty read of the row's latest state, whatever any snapshot sees.
    pub fn with_chain_tail<T>(
        &self,
        root: TupleId,
        f: impl FnOnce(TupleId, &HeapTuple) -> T,
    ) -> Option<T> {
        let mut f = Some(f);
        loop {
            let walked = self.try_walk(root, &mut |tid, t| {
                if t.next.is_some() {
                    return ControlFlow::Continue(());
                }
                let f = f.take().expect("a chain has one tail");
                ControlFlow::Break(f(tid, t))
            });
            if let Ok(out) = walked {
                return out;
            }
        }
    }

    /// Sequential scan, a page at a time: take each page latch once, judge every
    /// version on the page against the snapshot *on its own* (no chain is
    /// followed — at most one version of a row is visible to a snapshot, wherever
    /// it lives), report each version's conflict-out events as PostgreSQL's
    /// `CheckForSerializableConflictOut` does per tuple, and hand visible rows to
    /// `on_row`. Both callbacks run under the page latch: clone and return (a
    /// row of up to four values clones without allocating).
    /// Row order is physical and unspecified.
    pub fn scan_visible(
        &self,
        snap: &Snapshot,
        clog: &CommitLog,
        own: &dyn OwnXids,
        on_event: &mut dyn FnMut(VisEvent),
        on_row: &mut dyn FnMut(TupleId, &Row),
    ) {
        // Pages added after this point hold only versions younger than `snap`.
        for pno in 0..self.page_count() as PageNo {
            let Some(page) = self.page(pno) else { break };
            let guard = page.read();
            for (slot, tuple) in guard.slots.iter().enumerate() {
                let Some(t) = tuple else { continue };
                if t.pruned {
                    continue;
                }
                let vis = check_mvcc(t, snap, clog, own);
                for e in vis.events.iter() {
                    on_event(*e);
                }
                if vis.visible {
                    on_row(TupleId::new(pno, slot as SlotNo), &t.row);
                }
            }
        }
    }

    /// Try to take the tuple write lock on `tid` for transaction `xid`.
    ///
    /// Implements PostgreSQL's `HeapTupleSatisfiesUpdate` outcomes: the lock is the
    /// `xmax` field, stamped under the page latch. An aborted previous locker is
    /// replaced (and the versions it appended are cut off and freed); a committed
    /// one is reported so the isolation level can decide between "first updater
    /// wins" failure (SI/SSI) and chain-following (READ COMMITTED).
    pub fn try_lock_tuple(
        &self,
        tid: TupleId,
        xid: TxnId,
        clog: &CommitLog,
        own: &dyn OwnXids,
    ) -> Option<LockOutcome> {
        let mut aborted_branch = None;
        let outcome = self.with_tuple_mut(tid, |t| {
            if !t.xmax.is_valid() {
                t.xmax = xid;
                return LockOutcome::Locked;
            }
            if own.is_mine(t.xmax) {
                return LockOutcome::SelfLocked(t.xmax);
            }
            match clog.status(t.xmax) {
                TxnStatus::InProgress => LockOutcome::Wait(t.xmax),
                TxnStatus::Aborted => {
                    // Steal the lock from the aborted transaction and cut its dead
                    // chain branch so the new version can be linked here.
                    t.xmax = xid;
                    aborted_branch = t.next.take();
                    LockOutcome::Locked
                }
                TxnStatus::Committed(_) => LockOutcome::Committed {
                    deleter: t.xmax,
                    has_next: t.next.is_some(),
                },
            }
        });
        self.free_branch(aborted_branch);
        outcome
    }

    /// Write a new version after `old` (which must be write-locked by `xid`) and
    /// link it into the chain. Returns the new version's location: on `old`'s page
    /// if that has room, so the chain stays page-local and one latch covers both
    /// steps.
    pub fn append_version(&self, old: TupleId, row: Row, xid: TxnId) -> TupleId {
        let tuple = HeapTuple {
            xmin: xid,
            xmax: TxnId::INVALID,
            next: None,
            is_root: false,
            pruned: false,
            dead: false,
            row,
        };
        let link = |t: &mut HeapTuple, tid: TupleId| {
            debug_assert_eq!(t.xmax, xid, "append_version without holding the lock");
            t.next = Some(NextPtr { tid, xmin: xid });
        };
        let page = self.page(old.page).expect("locked version exists");
        {
            let mut guard = page.write();
            if guard.has_room() {
                let new_tid = TupleId::new(old.page, guard.place(tuple));
                link(guard.get_mut(old.slot).expect("locked version"), new_tid);
                return new_tid;
            }
        }
        // Until the link below, only page scans can meet the new version; they
        // judge it by its own (in-progress) xmin like any other.
        let new_tid = self.insert_tuple(tuple);
        let linked = self.with_tuple_mut(old, |t| link(t, new_tid));
        debug_assert!(linked.is_some());
        new_tid
    }

    /// Prune: reclaim the versions no snapshot at or after `horizon` can see.
    ///
    /// For each chain, versions superseded by an update that committed before
    /// `horizon` are freed and the root becomes a redirect stub pointing at the
    /// first version still needed. Rows deleted before `horizon`, or inserted by an
    /// aborted transaction, lose every version and have their roots marked
    /// [`HeapTuple::dead`] so index vacuum can drop their entries; versions
    /// appended by aborted updates are cut off and freed. Every pointer is cut
    /// before the slot behind it is freed (module docs).
    pub fn prune(&self, clog: &CommitLog, horizon: CommitSeqNo) -> PruneOutcome {
        let _one_pass = self.prune_lock.lock();
        let mut out = PruneOutcome::default();
        let mut roots: Vec<TupleId> = Vec::new();
        let mut chain: Vec<Link> = Vec::new();
        for pno in 0..self.page_count() as PageNo {
            let Some(page) = self.page(pno) else { break };
            roots.clear();
            {
                let guard = page.read();
                for (slot, tuple) in guard.slots.iter().enumerate() {
                    if matches!(tuple, Some(t) if t.is_root && !t.dead) {
                        roots.push(TupleId::new(pno, slot as SlotNo));
                    }
                }
            }
            for &root in &roots {
                self.prune_chain(root, clog, horizon, &mut chain, &mut out);
            }
        }
        out
    }

    fn prune_chain(
        &self,
        root: TupleId,
        clog: &CommitLog,
        horizon: CommitSeqNo,
        chain: &mut Vec<Link>,
        out: &mut PruneOutcome,
    ) {
        loop {
            chain.clear();
            let walked = self.try_walk(root, &mut |tid, t| {
                chain.push(Link {
                    tid,
                    xmin: t.xmin,
                    xmax: t.xmax,
                    has_next: t.next.is_some(),
                    pruned: t.pruned,
                });
                ControlFlow::<()>::Continue(())
            });
            if walked.is_ok() {
                break;
            }
        }
        let Some(first) = chain.first() else { return };
        // Aborted insert: nobody else ever saw the row, so whatever follows the
        // root is the same transaction's.
        if clog.status(first.xmin) == TxnStatus::Aborted {
            self.kill_row(root, out);
            return;
        }
        // Longest prefix of versions whose superseding update committed before
        // the horizon. Each is invisible to every current and future snapshot,
        // and nothing modifies a version once its xmax has committed.
        let committed_before =
            |xid: TxnId| matches!(clog.status(xid), TxnStatus::Committed(c) if c < horizon);
        let cut = chain
            .iter()
            .take_while(|l| l.has_next && committed_before(l.xmax))
            .count();
        // Versions appended by an aborted update: only ever at the chain's end,
        // behind a version whose xmax did not commit.
        if let Some(at) =
            (cut + 1..chain.len()).find(|&i| clog.status(chain[i].xmin) == TxnStatus::Aborted)
        {
            let branch = NextPtr {
                tid: chain[at].tid,
                xmin: chain[at].xmin,
            };
            // A writer may have stolen the lock (and freed the branch) since
            // the walk: cut only what is still there.
            let unlinked = self.with_tuple_mut(chain[at - 1].tid, |t| {
                (t.next == Some(branch)).then(|| t.next = None).is_some()
            });
            if unlinked == Some(true) {
                out.versions_pruned += self.free_branch(Some(branch));
            }
            chain.truncate(at);
            chain[at - 1].has_next = false;
        }
        // Whole row dead? Its newest version must be a plain delete that
        // committed before the horizon (so every older one is in the prefix).
        let last = &chain[chain.len() - 1];
        if !last.has_next && committed_before(last.xmax) {
            self.kill_row(root, out);
            return;
        }
        if cut == 0 || (cut == 1 && chain[0].pruned) {
            return; // nothing dead, or the stub already skips all of it
        }
        // The root header stays (indexes name it) as a stub that jumps straight
        // to the first version still needed; the versions in between go. That
        // version committed — its creator is the prefix's last xmax — so only
        // this (serialized) pass could free it.
        let live = NextPtr {
            tid: chain[cut].tid,
            xmin: chain[cut].xmin,
        };
        let newly_stubbed = self.with_tuple_mut(root, |t| {
            let newly = !t.pruned;
            t.pruned = true;
            t.row = Row::new();
            t.next = Some(live);
            newly
        });
        out.versions_pruned += usize::from(newly_stubbed == Some(true));
        for l in &chain[1..cut] {
            out.versions_pruned += usize::from(self.free_version(l.tid, l.xmin).is_some());
        }
    }

    /// Turn `root` into a dead stub and free the rest of its chain.
    fn kill_row(&self, root: TupleId, out: &mut PruneOutcome) {
        let cut = self.with_tuple_mut(root, |t| {
            let newly = !t.pruned;
            t.pruned = true;
            t.dead = true;
            t.row = Row::new();
            (newly, t.next.take())
        });
        let Some((newly, rest)) = cut else { return };
        out.versions_pruned += usize::from(newly) + self.free_branch(rest);
        out.killed_roots.push(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnManager;
    use crate::visibility::SingleXid;
    use pgssi_common::row;
    use std::sync::Arc;

    fn heap() -> (Heap, TxnManager) {
        (Heap::new(RelId(1)), TxnManager::new())
    }

    /// Chain read as transaction `me`, without a SIREAD hook.
    fn read(h: &Heap, tm: &TxnManager, root: TupleId, snap: &Snapshot, me: TxnId) -> ChainRead {
        h.read_chain(root, snap, tm.clog(), &SingleXid(me), &mut |_| {})
    }

    /// Page scan as transaction `me`: visible `(tid, row)` pairs and events.
    fn scan(
        h: &Heap,
        tm: &TxnManager,
        snap: &Snapshot,
        me: TxnId,
    ) -> (Vec<(TupleId, Row)>, Vec<VisEvent>) {
        let (mut rows, mut events) = (Vec::new(), Vec::new());
        h.scan_visible(
            snap,
            tm.clog(),
            &SingleXid(me),
            &mut |e| events.push(e),
            &mut |tid, row| rows.push((tid, row.clone())),
        );
        (rows, events)
    }

    fn chain_tail(h: &Heap, root: TupleId) -> TupleId {
        h.with_chain_tail(root, |tid, _| tid).unwrap()
    }

    /// One committed update of `root`'s row to `row`; returns the new version.
    fn update(h: &Heap, tm: &TxnManager, root: TupleId, row: Row) -> TupleId {
        let u = tm.begin();
        let tail = chain_tail(h, root);
        assert_eq!(
            h.try_lock_tuple(tail, u, tm.clog(), &SingleXid(u)),
            Some(LockOutcome::Locked)
        );
        let v = h.append_version(tail, row, u);
        tm.commit(&[u]);
        v
    }

    fn next_tid(h: &Heap, tid: TupleId) -> Option<TupleId> {
        h.with_tuple(tid, |t| t.next.map(|n| n.tid)).unwrap()
    }

    #[test]
    fn insert_and_read_back() {
        let (h, tm) = heap();
        let t = tm.begin();
        let tid = h.insert(row![1, "a"], t);
        tm.commit(&[t]);
        let r = tm.begin();
        let snap = tm.snapshot();
        let got = read(&h, &tm, tid, &snap, r);
        assert_eq!(got.visible.unwrap().1, row![1, "a"]);
        assert!(got.events.is_empty());
    }

    #[test]
    fn pages_fill_and_overflow() {
        let (h, tm) = heap();
        let t = tm.begin();
        let mut tids = Vec::new();
        for i in 0..(TUPLES_PER_PAGE * 2 + 3) {
            tids.push(h.insert(row![i as i64], t));
        }
        assert_eq!(h.page_count(), 3);
        assert_eq!(tids[0], TupleId::new(0, 0));
        assert_eq!(tids[TUPLES_PER_PAGE], TupleId::new(1, 0));
    }

    #[test]
    fn update_creates_new_version_visible_to_later_snapshots_only() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);

        let reader = tm.begin();
        let old_snap = tm.snapshot();

        let t2 = tm.begin();
        assert_eq!(
            h.try_lock_tuple(root, t2, tm.clog(), &SingleXid(t2)),
            Some(LockOutcome::Locked)
        );
        let v2 = h.append_version(root, row![2], t2);
        assert_eq!(v2.page, root.page, "the old version's page had room");
        tm.commit(&[t2]);

        // Old snapshot still sees version 1, but reports the rw-conflict out.
        let got = read(&h, &tm, root, &old_snap, reader);
        assert_eq!(got.visible.as_ref().unwrap().1, row![1]);
        assert_eq!(got.events, vec![VisEvent::ConflictOutDeleter(t2)]);

        // A new snapshot sees version 2 at its new location.
        let r2 = tm.begin();
        let snap2 = tm.snapshot();
        let got2 = read(&h, &tm, root, &snap2, r2);
        assert_eq!(got2.visible, Some((v2, row![2])));
        assert!(got2.events.is_empty());
    }

    #[test]
    fn lock_outcomes_cover_all_cases() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);

        let a = tm.begin();
        let b = tm.begin();
        assert_eq!(
            h.try_lock_tuple(root, a, tm.clog(), &SingleXid(a)),
            Some(LockOutcome::Locked)
        );
        assert_eq!(
            h.try_lock_tuple(root, a, tm.clog(), &SingleXid(a)),
            Some(LockOutcome::SelfLocked(a))
        );
        assert_eq!(
            h.try_lock_tuple(root, b, tm.clog(), &SingleXid(b)),
            Some(LockOutcome::Wait(a))
        );
        tm.commit(&[a]);
        assert_eq!(
            h.try_lock_tuple(root, b, tm.clog(), &SingleXid(b)),
            Some(LockOutcome::Committed {
                deleter: a,
                has_next: false
            })
        );
    }

    #[test]
    fn aborted_locker_is_stolen_and_its_branch_freed() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);

        let a = tm.begin();
        h.try_lock_tuple(root, a, tm.clog(), &SingleXid(a));
        let dead = h.append_version(root, row![99], a);
        tm.abort(&[a]);

        let b = tm.begin();
        assert_eq!(
            h.try_lock_tuple(root, b, tm.clog(), &SingleXid(b)),
            Some(LockOutcome::Locked)
        );
        assert!(
            h.with_tuple(dead, |_| ()).is_none(),
            "the aborted version's slot is free again"
        );
        let v2 = h.append_version(root, row![2], b);
        assert_eq!(v2, dead, "and the next version re-uses it");
        tm.commit(&[b]);

        let r = tm.begin();
        let snap = tm.snapshot();
        assert_eq!(read(&h, &tm, root, &snap, r).visible, Some((v2, row![2])));
    }

    #[test]
    fn delete_hides_row_from_later_snapshots() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);
        let d = tm.begin();
        h.try_lock_tuple(root, d, tm.clog(), &SingleXid(d));
        tm.commit(&[d]); // xmax stays: that's the delete
        let r = tm.begin();
        let snap = tm.snapshot();
        let got = read(&h, &tm, root, &snap, r);
        assert!(got.visible.is_none());
        assert!(got.events.is_empty());
        assert!(scan(&h, &tm, &snap, r).0.is_empty());
    }

    #[test]
    fn chain_tail_follows_updates() {
        let (h, tm) = heap();
        let t = tm.begin();
        let root = h.insert(row![1], t);
        h.try_lock_tuple(root, t, tm.clog(), &SingleXid(t));
        let v2 = h.append_version(root, row![2], t);
        assert_eq!(chain_tail(&h, root), v2);
        assert_eq!(chain_tail(&h, v2), v2);
        assert_eq!(h.with_chain_tail(root, |_, t| t.row.clone()), Some(row![2]));
    }

    #[test]
    fn page_scan_judges_each_version_on_its_own() {
        let (h, tm) = heap();
        let t = tm.begin();
        let r1 = h.insert(row![1], t);
        let r2 = h.insert(row![2], t);
        tm.commit(&[t]);
        let reader = tm.begin();
        let old_snap = tm.snapshot();
        let v1 = update(&h, &tm, r1, row![10]);
        let writer = h.with_tuple(v1, |t| t.xmin).unwrap();

        // The old snapshot sees both original rows; the superseded one reports
        // its deleter and the new version its creator (per version, as
        // PostgreSQL's heap scan does).
        let (rows, events) = scan(&h, &tm, &old_snap, reader);
        assert_eq!(rows, vec![(r1, row![1]), (r2, row![2])]);
        assert_eq!(
            events,
            vec![
                VisEvent::ConflictOutDeleter(writer),
                VisEvent::ConflictOutCreator(writer)
            ]
        );
        // A new snapshot sees the update in its place, without events.
        let r = tm.begin();
        let snap = tm.snapshot();
        let (rows, events) = scan(&h, &tm, &snap, r);
        assert_eq!(rows, vec![(r2, row![2]), (v1, row![10])]);
        assert!(events.is_empty());
        // Both paths agree.
        for (root, want) in [(r1, (v1, row![10])), (r2, (r2, row![2]))] {
            assert_eq!(read(&h, &tm, root, &snap, r).visible, Some(want));
        }
    }

    #[test]
    fn prune_frees_old_versions_and_redirects_the_root() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);
        // Three updates, all committed.
        let versions: Vec<TupleId> = (2..5i64).map(|i| update(&h, &tm, root, row![i])).collect();
        let last = versions[2];
        let out = h.prune(tm.clog(), tm.snapshot().csn);
        assert_eq!(out.versions_pruned, 3, "three superseded versions");
        assert!(out.killed_roots.is_empty());
        // The root is a stub that links straight to the live version; the two
        // versions in between are gone.
        assert!(h
            .with_tuple(root, |t| t.pruned && t.row.is_empty())
            .unwrap());
        assert_eq!(next_tid(&h, root), Some(last));
        assert!(h.with_tuple(versions[0], |_| ()).is_none());
        assert!(h.with_tuple(versions[1], |_| ()).is_none());
        // The row still reads correctly, both ways.
        let r = tm.begin();
        let snap = tm.snapshot();
        assert_eq!(read(&h, &tm, root, &snap, r).visible, Some((last, row![4])));
        assert_eq!(scan(&h, &tm, &snap, r).0, vec![(last, row![4])]);
        // A second pass finds nothing to do.
        assert_eq!(h.prune(tm.clog(), tm.snapshot().csn).versions_pruned, 0);
        // The next update re-uses a freed slot.
        let v5 = update(&h, &tm, root, row![5]);
        assert!(versions[..2].contains(&v5), "{v5:?} not a freed slot");
    }

    #[test]
    fn prune_kills_deleted_rows() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);
        let v2 = update(&h, &tm, root, row![2]);
        let d = tm.begin();
        h.try_lock_tuple(v2, d, tm.clog(), &SingleXid(d));
        tm.commit(&[d]);
        let out = h.prune(tm.clog(), tm.snapshot().csn);
        assert_eq!(out.versions_pruned, 2);
        assert_eq!(out.killed_roots, vec![root]);
        assert!(h.with_tuple(root, |t| t.dead && t.next.is_none()).unwrap());
        assert!(h.with_tuple(v2, |_| ()).is_none(), "non-root slot freed");
        let r = tm.begin();
        let snap = tm.snapshot();
        assert!(read(&h, &tm, root, &snap, r).visible.is_none());
        assert!(scan(&h, &tm, &snap, r).0.is_empty());
        // Dead roots are not visited again.
        assert!(h
            .prune(tm.clog(), tm.snapshot().csn)
            .killed_roots
            .is_empty());
    }

    #[test]
    fn prune_respects_horizon() {
        let (h, tm) = heap();
        let t1 = tm.begin();
        let root = h.insert(row![1], t1);
        tm.commit(&[t1]);
        let old_reader_snapshot = tm.snapshot();
        update(&h, &tm, root, row![2]);
        // Horizon at the old reader's snapshot: version 1 must survive.
        let out = h.prune(tm.clog(), old_reader_snapshot.csn);
        assert_eq!(out.versions_pruned, 0);
        let r = tm.begin();
        let got = read(&h, &tm, root, &old_reader_snapshot, r);
        assert_eq!(got.visible.as_ref().unwrap().1, row![1]);
    }

    #[test]
    fn prune_kills_aborted_inserts_and_frees_aborted_updates() {
        let (h, tm) = heap();
        // An aborted insert that also updated its own row.
        let a = tm.begin();
        let gone = h.insert(row![1], a);
        h.try_lock_tuple(gone, a, tm.clog(), &SingleXid(a));
        let gone_v2 = h.append_version(gone, row![2], a);
        tm.abort(&[a]);
        // A committed row with an aborted update hanging off it.
        let t = tm.begin();
        let kept = h.insert(row![7], t);
        tm.commit(&[t]);
        let b = tm.begin();
        h.try_lock_tuple(kept, b, tm.clog(), &SingleXid(b));
        let kept_v2 = h.append_version(kept, row![8], b);
        tm.abort(&[b]);

        let out = h.prune(tm.clog(), tm.snapshot().csn);
        assert_eq!(out.killed_roots, vec![gone]);
        assert_eq!(
            out.versions_pruned, 3,
            "root stub + its update + b's update"
        );
        assert!(h.with_tuple(gone, |t| t.dead).unwrap());
        assert!(h.with_tuple(gone_v2, |_| ()).is_none());
        assert!(h.with_tuple(kept_v2, |_| ()).is_none());
        assert_eq!(next_tid(&h, kept), None, "aborted branch cut");
        let r = tm.begin();
        let snap = tm.snapshot();
        assert_eq!(read(&h, &tm, kept, &snap, r).visible, Some((kept, row![7])));
    }

    #[test]
    fn updated_heap_stops_growing_once_pruned() {
        let (h, tm) = heap();
        let t = tm.begin();
        let roots: Vec<TupleId> = (0..100i64).map(|i| h.insert(row![i, 0], t)).collect();
        tm.commit(&[t]);
        let mut high_water = 0;
        for round in 1..=200i64 {
            for (i, &root) in roots.iter().enumerate() {
                update(&h, &tm, root, row![i as i64, round]);
            }
            h.prune(tm.clog(), tm.snapshot().csn);
            if round == 2 {
                high_water = h.page_count();
            }
        }
        // 100 stubs + 100 live + 100 not yet pruned = 300 slots = 5 pages,
        // whatever the number of rounds.
        assert_eq!(high_water, 5);
        assert_eq!(h.page_count(), high_water);
        let r = tm.begin();
        let snap = tm.snapshot();
        let (rows, _) = scan(&h, &tm, &snap, r);
        assert_eq!(rows.len(), 100);
        assert!(rows
            .iter()
            .all(|(_, row)| row[1] == pgssi_common::Value::Int(200)));
    }

    /// The stale-pointer case, forced: a walker reads `root.next` (a cross-page
    /// pointer to row A's second version), and before it takes the target page's
    /// latch a prune frees that version and another row's update re-uses the
    /// slot. An unvalidated hop would land on row B's version and return
    /// `[2, 666]` — as row A's newest version from the dirty tail read, and, for
    /// the reader whose own transaction wrote it, as row A's visible version.
    /// The `xmin` check must send both back to the root, to `[1, 12]`.
    #[test]
    fn stale_cross_page_hop_restarts_from_the_root() {
        for dirty_tail_read in [true, false] {
            let (h, tm) = heap();
            let h = Arc::new(h);
            let tm = Arc::new(tm);
            // Page 0: row A, row B, and filler roots so that versions go to page 1.
            let t = tm.begin();
            let a = h.insert(row![1, 10], t);
            let b = h.insert(row![2, 20], t);
            for i in 2..TUPLES_PER_PAGE as i64 {
                h.insert(row![100 + i, 0], t);
            }
            tm.commit(&[t]);
            let a1 = update(&h, &tm, a, row![1, 11]);
            let a2 = update(&h, &tm, a, row![1, 12]);
            assert_eq!((a1.page, a2.page), (1, 1));
            assert_eq!(
                next_tid(&h, a),
                Some(a1),
                "the pointer the walker will read"
            );

            let me = tm.begin();
            let snap = tm.snapshot();
            *h.hop_hook.lock() = Some(Box::new({
                let (h, tm) = (Arc::clone(&h), Arc::clone(&tm));
                move || {
                    // Frees a1 (root A now redirects to a2) ...
                    assert_eq!(h.prune(tm.clog(), tm.snapshot().csn).versions_pruned, 2);
                    // ... and the reader's own transaction updates row B, whose
                    // new version lands in a1's slot.
                    assert_eq!(
                        h.try_lock_tuple(b, me, tm.clog(), &SingleXid(me)),
                        Some(LockOutcome::Locked)
                    );
                    assert_eq!(h.append_version(b, row![2, 666], me), a1);
                }
            }));
            if dirty_tail_read {
                assert_eq!(
                    h.with_chain_tail(a, |tid, t| (tid, t.row.clone())),
                    Some((a2, row![1, 12]))
                );
            } else {
                let got = read(&h, &tm, a, &snap, me);
                assert_eq!(got.visible, Some((a2, row![1, 12])));
            }
            assert!(h.hop_hook.lock().is_none(), "the hop under test happened");
        }
    }
}
