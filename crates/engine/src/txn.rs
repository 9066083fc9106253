//! Transactions: reads, writes, savepoints, commit/abort, PREPARE.
//!
//! A [`Transaction`] drives all four isolation levels through one code path,
//! diverging only where the paper does:
//!
//! * **Reads** resolve version chains against the transaction snapshot
//!   (per-statement under READ COMMITTED). Under `Serializable`, every access
//!   takes SIREAD locks — tuple locks on the versions read, page locks on the
//!   B+-tree leaves visited (gap locking), relation locks for sequential scans
//!   and for hash indexes (§5.2.1, §7.4) — and forwards the MVCC conflict
//!   events to the SSI core (§5.2). Under `Serializable2pl` the same targets
//!   get classic S/IS locks in the heavyweight lock manager.
//! * **Writes** take the tuple write lock (the `xmax` field), waiting on the
//!   holder's transaction with deadlock detection; a committed concurrent
//!   updater is a first-updater-wins serialization failure under SI/SSI, and a
//!   signal to re-fetch the row under READ COMMITTED. Serializable writes then
//!   check SIREAD locks coarse-to-fine; 2PL writes take X locks.
//! * **Savepoints** create subtransactions; rolling one back keeps SIREAD locks
//!   (§7.3) and the write-lock-drop optimization is suppressed while any
//!   subtransaction is open.
//!
//! Retryable failures (serialization failures, deadlocks, lock timeouts)
//! automatically roll the transaction back — the handle stays usable only for
//! `rollback()`, mirroring what a PostgreSQL client must do after SQLSTATE
//! 40001/40P01.

use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;

use pgssi_common::stats::AbortSite;
use pgssi_common::{Error, Key, LockTarget, Result, Row, Snapshot, TupleId, TxnId};
use pgssi_core::{SsiManager, SxactHandle};
use pgssi_lockmgr::s2pl::LockMode;
use pgssi_storage::heap::{ChainRead, LockOutcome};
use pgssi_storage::visibility::OwnXids;
use pgssi_storage::{TxnStatus, VisEvent};

use crate::catalog::{IndexImpl, IndexSlot, Table, TableInner};
use crate::database::{BeginOptions, DbInner, IsolationLevel};
use crate::durability::{encode_commit, RedoOp};

/// Answers "is this xid mine?" for visibility: top-level xid plus live subxids.
struct TxnXids<'a> {
    txid: TxnId,
    subxids: &'a [TxnId],
}

impl OwnXids for TxnXids<'_> {
    fn is_mine(&self, xid: TxnId) -> bool {
        xid == self.txid || self.subxids.contains(&xid)
    }
}

/// `[txid] ++ subxids` for the transaction manager's finish calls: borrowed
/// from the caller's copy of the top-level xid when there are no
/// subtransactions (no allocation on the common finish), owned otherwise.
fn all_xids<'a>(txid: &'a TxnId, subxids: &[TxnId]) -> Cow<'a, [TxnId]> {
    if subxids.is_empty() {
        Cow::Borrowed(std::slice::from_ref(txid))
    } else {
        Cow::Owned(
            std::iter::once(*txid)
                .chain(subxids.iter().copied())
                .collect(),
        )
    }
}

/// A serializable transaction's SSI state: the handle `SsiManager::begin`
/// returned and the manager that issued it. Holding the manager here (rather
/// than re-reading [`DbInner::ssi`] per operation) keeps every read, write and
/// finish on memory this transaction owns — and keeps a transaction that
/// outlives a simulated crash talking to the manager its handle belongs to.
pub(crate) struct SsiTxn {
    pub mgr: Arc<SsiManager>,
    pub sx: SxactHandle,
}

struct SavepointRec {
    name: String,
    /// Index into `subxids` of the subtransaction created for this savepoint.
    sub_index: usize,
}

/// A running transaction. Dropping an unfinished transaction rolls it back.
pub struct Transaction {
    db: Arc<DbInner>,
    txid: TxnId,
    subxids: Vec<TxnId>,
    savepoints: Vec<SavepointRec>,
    snapshot: Snapshot,
    opts: BeginOptions,
    /// SSI state (`Serializable` only).
    ssi: Option<SsiTxn>,
    /// Redo ops captured for the durable WAL, tagged with the subtransaction
    /// depth at capture time so savepoint rollback can discard exactly the
    /// ops belonging to aborted subtransactions.
    redo: Vec<(usize, RedoOp)>,
    wrote: bool,
    finished: bool,
}

impl Transaction {
    pub(crate) fn new(
        db: Arc<DbInner>,
        txid: TxnId,
        snapshot: Snapshot,
        opts: BeginOptions,
        ssi: Option<SsiTxn>,
    ) -> Transaction {
        Transaction {
            db,
            txid,
            subxids: Vec::new(),
            savepoints: Vec::new(),
            snapshot,
            opts,
            ssi,
            redo: Vec::new(),
            wrote: false,
            finished: false,
        }
    }

    /// This transaction's id.
    pub fn txid(&self) -> TxnId {
        self.txid
    }

    /// The isolation level it runs at.
    pub fn isolation(&self) -> IsolationLevel {
        self.opts.isolation
    }

    /// The snapshot this transaction currently reads at (per-statement under
    /// READ COMMITTED, transaction-scoped otherwise). Tests and staleness
    /// measurements use its `csn`.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Whether `commit`/`rollback` has already run (or an error auto-aborted).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    fn xid_for_writes(&self) -> TxnId {
        self.subxids.last().copied().unwrap_or(self.txid)
    }

    fn own(&self) -> TxnXids<'_> {
        TxnXids {
            txid: self.txid,
            subxids: &self.subxids,
        }
    }

    fn is_2pl(&self) -> bool {
        self.opts.isolation == IsolationLevel::Serializable2pl
    }

    fn ensure_active(&self) -> Result<()> {
        if self.finished {
            return Err(Error::InvalidState(
                "transaction already committed or rolled back".into(),
            ));
        }
        Ok(())
    }

    /// Start-of-operation bookkeeping: active check, doomed check (SSI),
    /// snapshot refresh (READ COMMITTED and 2PL read latest state per
    /// statement).
    fn begin_op(&mut self) -> Result<()> {
        self.ensure_active()?;
        if let Some(Err(e)) = self.ssi.as_ref().map(|s| s.mgr.check_doomed(&s.sx)) {
            return Err(self.abort_at(e, AbortSite::Statement, None));
        }
        if !self.opts.isolation.txn_snapshot() || self.is_2pl() {
            self.snapshot = self.db.tm.snapshot();
            self.db
                .active_snapshots
                .lock()
                .insert(self.txid, self.snapshot.csn);
        }
        Ok(())
    }

    /// Roll back in place for retryable failures, preserving the error.
    fn auto_abort(&mut self, e: Error) -> Error {
        if e.is_retryable() && !self.finished {
            self.rollback_in_place();
        }
        e
    }

    /// Taxonomy bookkeeping + auto-abort. The engine layer is the only place
    /// that knows *where* a failure was detected, so the per-site counters
    /// live here rather than in the SSI core.
    fn abort_at(&mut self, e: Error, site: AbortSite, rel: Option<u64>) -> Error {
        self.db.stats.aborts_by.record_error(&e, site, rel);
        self.auto_abort(e)
    }

    /// The SSI manager and handle this transaction runs under, if serializable.
    fn ssi_ref(&self) -> Option<(&SsiManager, &SxactHandle)> {
        self.ssi.as_ref().map(|s| (&*s.mgr, &s.sx))
    }

    /// This transaction's `active_snapshots` key: a non-serializable
    /// snapshot's vacuum-horizon entry. A serializable snapshot is registered
    /// only in the SSI manager's active set.
    fn pinned(&self) -> Option<TxnId> {
        self.ssi.is_none().then_some(self.txid)
    }

    /// The 2PL lock owner to release at the end, if two-phase locking.
    fn s2pl_owner(&self) -> Option<u64> {
        self.is_2pl().then_some(self.txid.0)
    }

    fn rollback_in_place(&mut self) {
        if self.finished {
            return;
        }
        let xids = all_xids(&self.txid, &self.subxids);
        self.db
            .abort_txn(self.txid, &xids, self.ssi_ref(), self.s2pl_owner());
        self.db.stats.aborts.bump();
        self.finished = true;
    }

    fn s2pl_lock(&mut self, target: LockTarget, mode: LockMode) -> Result<()> {
        let timeout = self.db.config.ssi.lock_wait_timeout;
        let rel = target.relation().0 as u64;
        self.db
            .s2pl
            .acquire(self.txid.0, target, mode, timeout)
            .map_err(|e| self.abort_at(e, AbortSite::LockWait, Some(rel)))
    }

    fn ssi_read(&self, targets: &[LockTarget]) {
        if let Some(s) = &self.ssi {
            s.mgr.on_read(&s.sx, targets);
        }
    }

    fn ssi_events(&mut self, events: &[VisEvent]) -> Result<()> {
        if let Some(s) = &self.ssi {
            if let Err(e) = s.mgr.on_mvcc_events(&s.sx, events, self.db.tm.clog()) {
                return Err(self.abort_at(e, AbortSite::OnRead, None));
            }
        }
        Ok(())
    }

    fn ssi_write(&mut self, chain: &[LockTarget], written: Option<LockTarget>) -> Result<()> {
        if let Some(s) = &self.ssi {
            let in_sub = !self.subxids.is_empty();
            if let Err(e) = s.mgr.on_write(&s.sx, chain, written, in_sub) {
                let rel = written
                    .as_ref()
                    .or(chain.first())
                    .map(|t| t.relation().0 as u64);
                return Err(self.abort_at(e, AbortSite::OnWrite, rel));
            }
        }
        Ok(())
    }

    fn check_writable(&self) -> Result<()> {
        if self.opts.read_only {
            return Err(Error::ReadOnlyTransaction);
        }
        Ok(())
    }

    /// Record a redo op for the durable WAL (skipped during recovery replay,
    /// when the log already contains it).
    fn capture_redo(&mut self, op: RedoOp) {
        if self.db.dwal.capturing() {
            self.redo.push((self.subxids.len(), op));
        }
    }

    /// Drain the captured redo ops (raw — the 2PC prepare record embeds them).
    fn take_redo_ops(&mut self) -> Vec<RedoOp> {
        std::mem::take(&mut self.redo)
            .into_iter()
            .map(|(_, op)| op)
            .collect()
    }

    /// Encode the captured redo ops as this transaction's commit record, or
    /// `None` if there is nothing to log.
    fn take_redo_payload(&mut self) -> Option<Vec<u8>> {
        if self.redo.is_empty() {
            return None;
        }
        let ops = self.take_redo_ops();
        Some(encode_commit(self.txid, &ops))
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup by primary key.
    pub fn get(&mut self, table: &str, key: &Key) -> Result<Option<Row>> {
        self.begin_op()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        let rows = self.read_via_index(
            &t,
            &inner,
            &inner.pk,
            Bound::Included(key),
            Bound::Included(key),
        )?;
        Ok(rows.into_iter().next().map(|(_, row)| row))
    }

    /// Equality lookup on a secondary index.
    pub fn index_get(&mut self, table: &str, index: &str, key: &Key) -> Result<Vec<Row>> {
        self.begin_op()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        let slot_rows = {
            let slot = inner.secondary(index)?;
            match &slot.imp {
                IndexImpl::BTree(_) => self.read_via_index(
                    &t,
                    &inner,
                    slot,
                    Bound::Included(key),
                    Bound::Included(key),
                )?,
                IndexImpl::Hash(h) => {
                    // Hash indexes cannot lock gaps: fall back to a
                    // relation-level SIREAD lock on the index (§7.4).
                    if self.is_2pl() {
                        self.s2pl_lock(LockTarget::Relation(slot.rel()), LockMode::Shared)?;
                    } else {
                        self.ssi_read(&[LockTarget::Relation(slot.rel())]);
                    }
                    let roots = h.search(key);
                    self.resolve_roots(&t, &inner, slot, roots, |k| k == key)?
                }
            }
        };
        Ok(slot_rows.into_iter().map(|(_, r)| r).collect())
    }

    /// Range scan on a secondary B+-tree index. Returns `(index key, row)` in
    /// key order.
    pub fn range(
        &mut self,
        table: &str,
        index: &str,
        lo: Bound<Key>,
        hi: Bound<Key>,
    ) -> Result<Vec<(Key, Row)>> {
        self.begin_op()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        let slot = inner.secondary(index)?;
        if !matches!(slot.imp, IndexImpl::BTree(_)) {
            return Err(Error::Misuse(format!(
                "index {index} does not support range scans"
            )));
        }
        self.read_via_index(&t, &inner, slot, lo.as_ref(), hi.as_ref())
    }

    /// Range scan on the primary key.
    pub fn range_pk(
        &mut self,
        table: &str,
        lo: Bound<Key>,
        hi: Bound<Key>,
    ) -> Result<Vec<(Key, Row)>> {
        self.begin_op()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        self.read_via_index(&t, &inner, &inner.pk, lo.as_ref(), hi.as_ref())
    }

    /// Full sequential scan, optionally filtered. Serializable transactions take
    /// a relation-level SIREAD lock (any later write anywhere in the table
    /// conflicts — the price of a predicate the index cannot cover); the 2PL
    /// baseline takes a shared lock on the relation.
    pub fn scan_where(&mut self, table: &str, pred: impl FnMut(&Row) -> bool) -> Result<Vec<Row>> {
        self.begin_op()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        if self.is_2pl() {
            self.s2pl_lock(LockTarget::Relation(t.heap_rel), LockMode::Shared)?;
            // All writers are now blocked (S vs IX); read the latest state.
            self.snapshot = self.db.tm.snapshot();
        } else {
            self.ssi_read(&[LockTarget::Relation(t.heap_rel)]);
        }
        // One pass over the heap's pages; every version is judged on its own,
        // so rows come back in physical (unspecified) order.
        let track = self.ssi.is_some();
        let mut events: Vec<VisEvent> = Vec::new();
        let mut rows = Vec::new();
        inner.heap.scan_visible(
            &self.snapshot,
            self.db.tm.clog(),
            &self.own(),
            // A writer's old and new version usually sit side by side; the
            // SSI core dedups the rest.
            &mut |e| {
                if track && events.last().map(|l| l.writer()) != Some(e.writer()) {
                    events.push(e);
                }
            },
            &mut |_tid, row| rows.push(row.clone()),
        );
        self.ssi_events(&events)?;
        rows.retain(pred);
        Ok(rows)
    }

    /// Full sequential scan.
    pub fn scan(&mut self, table: &str) -> Result<Vec<Row>> {
        self.scan_where(table, |_| true)
    }

    /// Shared logic for B+-tree-driven reads: scan the index, take gap locks on
    /// the visited leaves, resolve version chains, forward conflict events, and
    /// re-check keys against the visible versions (stale entries linger until
    /// vacuum).
    fn read_via_index(
        &mut self,
        t: &Table,
        inner: &TableInner,
        slot: &IndexSlot,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
    ) -> Result<Vec<(Key, Row)>> {
        let IndexImpl::BTree(btree) = &slot.imp else {
            return Err(Error::Misuse("expected a B+-tree index".into()));
        };
        let in_bounds = |k: &Key| {
            (match lo {
                Bound::Included(b) => k >= b,
                Bound::Excluded(b) => k > b,
                Bound::Unbounded => true,
            }) && (match hi {
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
                Bound::Unbounded => true,
            })
        };
        let scan = if self.is_2pl() {
            // 2PL phantom protection: lock the visited leaves, then re-scan
            // until a scan runs entirely under pre-acquired locks (no insert
            // can slip between scan and lock).
            self.s2pl_lock(LockTarget::Relation(t.heap_rel), LockMode::IntentionShared)?;
            self.s2pl_lock(LockTarget::Relation(slot.rel()), LockMode::IntentionShared)?;
            let mut locked: HashSet<pgssi_common::PageNo> = HashSet::new();
            loop {
                let s = btree.range_hooked(lo, hi, &mut |_| {});
                let mut newly_locked = false;
                for &p in &s.leaf_pages {
                    if !locked.contains(&p) {
                        self.s2pl_lock(LockTarget::Page(slot.rel(), p), LockMode::Shared)?;
                        locked.insert(p);
                        newly_locked = true;
                    }
                }
                if !newly_locked {
                    break s;
                }
            }
        } else {
            // SSI gap locks are taken under the tree lock (see
            // `range_hooked`), closing the scan-vs-insert race.
            let rel = slot.rel();
            btree.range_hooked(lo, hi, &mut |p| self.ssi_read(&[LockTarget::Page(rel, p)]))
        };
        let roots: Vec<TupleId> = scan.entries.iter().map(|(_, tid)| *tid).collect();
        self.resolve_roots(t, inner, slot, roots, in_bounds)
    }

    /// Resolve one chain against the current snapshot, taking the tuple SIREAD
    /// lock on the visible version under its page latch (see
    /// [`pgssi_storage::Heap::read_chain`] for why this ordering matters).
    fn read_root(&self, t: &Table, inner: &TableInner, root: TupleId) -> ChainRead {
        inner.heap.read_chain(
            root,
            &self.snapshot,
            self.db.tm.clog(),
            &self.own(),
            &mut |tid| self.ssi_read(&[LockTarget::tuple(t.heap_rel, tid)]),
        )
    }

    /// Resolve root tuple ids to visible rows with conflict tracking, key
    /// re-checking, and per-tuple locks.
    fn resolve_roots(
        &mut self,
        t: &Table,
        inner: &TableInner,
        slot: &IndexSlot,
        roots: Vec<TupleId>,
        mut key_ok: impl FnMut(&Key) -> bool,
    ) -> Result<Vec<(Key, Row)>> {
        let mut seen: HashSet<TupleId> = HashSet::new();
        let mut rows = Vec::new();
        let several = roots.len() > 1;
        for root in roots {
            if several && !seen.insert(root) {
                continue; // duplicate entries (old + new key) resolve once
            }
            if self.is_2pl() {
                self.s2pl_lock(LockTarget::tuple(t.heap_rel, root), LockMode::Shared)?;
                // 2PL reads the latest committed state; the S lock just taken
                // guarantees it is stable, but the snapshot must be refreshed
                // *after* the lock to actually see it.
                self.snapshot = self.db.tm.snapshot();
            }
            let read = self.read_root(t, inner, root);
            self.ssi_events(&read.events)?;
            let Some((_tid, row)) = read.visible else {
                continue;
            };
            let key = slot.key_of(&row);
            if !key_ok(&key) {
                continue; // stale index entry: the row's key moved on
            }
            rows.push((key, row));
        }
        Ok(rows)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert a row. Fails with [`Error::DuplicateKey`] if the primary key (or
    /// any unique secondary key) is already live.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        self.begin_op()?;
        self.check_writable()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        if row.len() != inner.def.columns.len() {
            return Err(Error::Misuse(format!(
                "row width {} != table width {}",
                row.len(),
                inner.def.columns.len()
            )));
        }
        if self.is_2pl() {
            self.s2pl_lock(
                LockTarget::Relation(t.heap_rel),
                LockMode::IntentionExclusive,
            )?;
        }
        // Uniqueness: serialize probes per key through a stripe lock; waiting on
        // an in-progress rival requires releasing the stripe and retrying.
        loop {
            let pk_key = inner.pk_of(&row);
            let stripe = self.stripe_for(table, &pk_key);
            let guard = self.db.unique_stripes[stripe].lock();
            match self.unique_probe(&inner, &inner.pk, &pk_key)? {
                UniqueProbe::Clear => {
                    // Also probe unique secondaries under the same stripe; key
                    // collisions across stripes are acceptable because the probe
                    // only needs mutual exclusion per identical key.
                    let mut wait_for = None;
                    for s in inner.secondaries.iter().filter(|s| s.def.unique) {
                        match self.unique_probe(&inner, s, &s.key_of(&row))? {
                            UniqueProbe::Clear => {}
                            UniqueProbe::Duplicate(idx) => {
                                return Err(Error::DuplicateKey { index: idx })
                            }
                            UniqueProbe::WaitFor(x) => {
                                wait_for = Some(x);
                                break;
                            }
                        }
                    }
                    if let Some(x) = wait_for {
                        drop(guard);
                        self.wait_for_txn(x)?;
                        continue;
                    }
                    // Clear everywhere: do the physical insert while still
                    // holding the stripe, so a concurrent identical insert
                    // cannot slip between probe and insert.
                    let new_tid = inner.heap.insert(row.clone(), self.xid_for_writes());
                    drop(guard);
                    self.wrote = true;
                    self.capture_redo(RedoOp::Upsert {
                        table: table.to_string(),
                        row: row.clone(),
                    });
                    self.finish_insert(&t, &inner, &row, new_tid)?;
                    return Ok(());
                }
                UniqueProbe::Duplicate(idx) => return Err(Error::DuplicateKey { index: idx }),
                UniqueProbe::WaitFor(x) => {
                    drop(guard);
                    self.wait_for_txn(x)?;
                }
            }
        }
    }

    /// Index maintenance + conflict checks after the heap insert.
    fn finish_insert(
        &mut self,
        t: &Table,
        inner: &TableInner,
        row: &Row,
        new_tid: TupleId,
    ) -> Result<()> {
        // Heap-level conflict check: sequential-scan readers hold a relation
        // lock; tuple/page readers cannot have read a brand-new tuple (§5.2.1).
        self.ssi_write(&[LockTarget::Relation(t.heap_rel)], None)?;
        let mut slots: Vec<&IndexSlot> = vec![&inner.pk];
        slots.extend(inner.secondaries.iter());
        for slot in slots {
            self.index_insert_with_checks(slot, slot.key_of(row), new_tid)?;
        }
        Ok(())
    }

    /// Insert one index entry, copying gap locks across leaf splits and
    /// checking the gap for conflicting readers.
    fn index_insert_with_checks(&mut self, slot: &IndexSlot, key: Key, tid: TupleId) -> Result<()> {
        match slot.insert(key, tid) {
            Some(outcome) => {
                // B+-tree: a split moves gap coverage; copy locks first
                // (PostgreSQL's PredicateLockPageSplit), then check the landing
                // page for conflicts.
                if let Some((old, new)) = outcome.leaf_split {
                    self.db.ssi().siread().on_page_split(slot.rel(), old, new);
                }
                let page = LockTarget::Page(slot.rel(), outcome.leaf);
                if self.is_2pl() {
                    self.s2pl_lock(
                        LockTarget::Relation(slot.rel()),
                        LockMode::IntentionExclusive,
                    )?;
                    self.s2pl_lock(page, LockMode::Exclusive)?;
                } else {
                    self.ssi_write(&page.check_chain(), None)?;
                }
            }
            None => {
                // Hash index: relation-granularity only (§7.4).
                let rel = LockTarget::Relation(slot.rel());
                if self.is_2pl() {
                    self.s2pl_lock(rel, LockMode::Exclusive)?;
                } else {
                    self.ssi_write(&[rel], None)?;
                }
            }
        }
        Ok(())
    }

    /// Update the row with primary key `key` by applying `f` to its current
    /// value — the `UPDATE … SET col = col - x` shape. Under READ COMMITTED,
    /// if a concurrent update commits first the function is re-applied to the
    /// *new* row version (PostgreSQL's `EvalPlanQual` behaviour), so
    /// read-modify-write deltas are never lost. Returns `false` if no visible
    /// row matched.
    pub fn update_with(
        &mut self,
        table: &str,
        key: &Key,
        mut f: impl FnMut(&Row) -> Row,
    ) -> Result<bool> {
        self.update_inner(table, key, &mut f)
    }

    /// Update the row with primary key `key` to `new_row` (same primary key).
    /// Returns `false` if no visible row matched.
    ///
    /// The new row is a value computed by the caller: if it was derived from a
    /// previous read, READ COMMITTED permits the classic lost update (exactly
    /// as `SELECT` + `UPDATE … SET col = $computed` does in PostgreSQL). Use
    /// [`Transaction::update_with`] for delta semantics, or a snapshot-scoped
    /// isolation level where first-updater-wins forbids the lost update.
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> Result<bool> {
        self.update_inner(table, key, &mut |_old| new_row.clone())
    }

    /// Shared update loop: the new row is recomputed from the freshly located
    /// version on every (RC) retry, which is what gives `update_with` its
    /// EvalPlanQual semantics.
    fn update_inner(
        &mut self,
        table: &str,
        key: &Key,
        compute: &mut dyn FnMut(&Row) -> Row,
    ) -> Result<bool> {
        self.begin_op()?;
        self.check_writable()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        loop {
            // Locate the visible version through the primary key.
            let Some((root, vis_tid, old_row)) = self.locate_for_write(&t, &inner, key)? else {
                return Ok(false);
            };
            let new_row = compute(&old_row);
            if inner.pk_of(&new_row) != *key {
                return Err(Error::Misuse(
                    "update must not change the primary key; delete + insert instead".into(),
                ));
            }
            match self.lock_version(&t, &inner, root, vis_tid)? {
                VersionLock::Locked => {
                    self.wrote = true;
                    // Conflict-in check on the version being replaced; then the
                    // new version is appended and chained.
                    let tuple_target = LockTarget::tuple(t.heap_rel, vis_tid);
                    self.ssi_write(&tuple_target.check_chain(), Some(tuple_target))?;
                    inner
                        .heap
                        .append_version(vis_tid, new_row.clone(), self.xid_for_writes());
                    self.capture_redo(RedoOp::Upsert {
                        table: table.to_string(),
                        row: new_row.clone(),
                    });
                    // Secondary-index maintenance for changed keys.
                    for slot in &inner.secondaries {
                        let old_k = slot.key_of(&old_row);
                        let new_k = slot.key_of(&new_row);
                        if old_k != new_k {
                            if slot.def.unique {
                                self.unique_wait_loop(&inner, slot, &new_k)?;
                            }
                            self.index_insert_with_checks(slot, new_k, root)?;
                        }
                    }
                    return Ok(true);
                }
                VersionLock::Retry => continue,
            }
        }
    }

    /// Delete the row with primary key `key`. Returns `false` if no visible row
    /// matched.
    pub fn delete(&mut self, table: &str, key: &Key) -> Result<bool> {
        self.begin_op()?;
        self.check_writable()?;
        let t = self.db.catalog.table(table)?;
        let inner = t.inner.read();
        loop {
            let Some((_root, vis_tid, _old_row)) = self.locate_for_write(&t, &inner, key)? else {
                return Ok(false);
            };
            match self.lock_version(&t, &inner, _root, vis_tid)? {
                VersionLock::Locked => {
                    self.wrote = true;
                    let tuple_target = LockTarget::tuple(t.heap_rel, vis_tid);
                    self.ssi_write(&tuple_target.check_chain(), Some(tuple_target))?;
                    // The stamped xmax *is* the delete; nothing else to do.
                    self.capture_redo(RedoOp::Delete {
                        table: table.to_string(),
                        key: key.clone(),
                    });
                    return Ok(true);
                }
                VersionLock::Retry => continue,
            }
        }
    }

    /// Find the visible version of the row with primary key `key`, for a write.
    ///
    /// A miss is an observation too ("no such row in my snapshot"), so a
    /// search that finds no row is repeated under the gap lock a point read
    /// takes: SSI's page SIREAD lock inside `range_hooked`, under the tree
    /// lock, so an insert either precedes the repeat (and is seen) or meets
    /// the lock; S2PL's shared lock on the visited leaf, re-searching until a
    /// search runs entirely under it (`read_via_index`'s loop). Without it an
    /// insert-if-absent written as an update that misses is a write skew. A
    /// hit observed only its row, which its tuple locks cover, so it leaves
    /// the leaf unlocked.
    fn locate_for_write(
        &mut self,
        t: &Table,
        inner: &TableInner,
        key: &Key,
    ) -> Result<Option<(TupleId, TupleId, Row)>> {
        let IndexImpl::BTree(btree) = &inner.pk.imp else {
            unreachable!("pk is btree")
        };
        let rel = inner.pk.rel();
        if self.is_2pl() {
            self.s2pl_lock(
                LockTarget::Relation(t.heap_rel),
                LockMode::IntentionExclusive,
            )?;
            self.s2pl_lock(LockTarget::Relation(rel), LockMode::IntentionShared)?;
        }
        let mut locked: Vec<pgssi_common::PageNo> = Vec::new();
        let mut ssi_gap_locked = false;
        loop {
            let scan = if ssi_gap_locked {
                btree.range_hooked(Bound::Included(key), Bound::Included(key), &mut |p| {
                    self.ssi_read(&[LockTarget::Page(rel, p)])
                })
            } else {
                btree.search(key)
            };
            for &(_, root) in &scan.entries {
                if self.is_2pl() {
                    self.s2pl_lock(LockTarget::tuple(t.heap_rel, root), LockMode::Exclusive)?;
                    // With the X lock held, the latest committed version is stable.
                    self.snapshot = self.db.tm.snapshot();
                }
                // The update's read of the old row is a read like any other: it
                // takes a SIREAD lock on the version (immediately subsumed by the
                // write lock when the write goes through — the §7.3 optimization).
                let read = self.read_root(t, inner, root);
                self.ssi_events(&read.events)?;
                if let Some((tid, row)) = read.visible {
                    if inner.pk_of(&row) == *key {
                        return Ok(Some((root, tid, row)));
                    }
                }
            }
            if !self.is_2pl() {
                if self.ssi.is_none() || ssi_gap_locked {
                    return Ok(None);
                }
                ssi_gap_locked = true;
                continue;
            }
            let mut newly_locked = false;
            for p in scan.leaf_pages {
                if !locked.contains(&p) {
                    self.s2pl_lock(LockTarget::Page(rel, p), LockMode::Shared)?;
                    locked.push(p);
                    newly_locked = true;
                }
            }
            if !newly_locked {
                return Ok(None);
            }
        }
    }

    /// Take the tuple write lock on the visible version, handling waits and the
    /// first-updater-wins rule.
    fn lock_version(
        &mut self,
        _t: &Table,
        inner: &TableInner,
        _root: TupleId,
        vis_tid: TupleId,
    ) -> Result<VersionLock> {
        loop {
            let outcome = inner
                .heap
                .try_lock_tuple(
                    vis_tid,
                    self.xid_for_writes(),
                    self.db.tm.clog(),
                    &self.own(),
                )
                .ok_or_else(|| Error::InvalidState("tuple vanished".into()))?;
            match outcome {
                LockOutcome::Locked | LockOutcome::SelfLocked(_) => return Ok(VersionLock::Locked),
                LockOutcome::Wait(holder) => {
                    self.wait_for_txn(holder)?;
                    match self.db.tm.status(holder) {
                        TxnStatus::Aborted => continue, // lock freed; steal it
                        _ => {
                            // Holder committed: first updater wins.
                            return self.concurrent_update_outcome();
                        }
                    }
                }
                LockOutcome::Committed { .. } => {
                    return self.concurrent_update_outcome();
                }
            }
        }
    }

    /// A concurrent transaction updated the row and committed. Under SI/SSI this
    /// is the classic "could not serialize access due to concurrent update";
    /// READ COMMITTED re-runs the statement against a fresh snapshot.
    fn concurrent_update_outcome(&mut self) -> Result<VersionLock> {
        if self.opts.isolation.txn_snapshot() && !self.is_2pl() {
            let e = Error::serialization(
                pgssi_common::SerializationKind::WriteConflict,
                "concurrent update committed first",
            );
            Err(self.abort_at(e, AbortSite::OnWrite, None))
        } else {
            // RC / 2PL: re-read latest state and retry.
            self.snapshot = self.db.tm.snapshot();
            Ok(VersionLock::Retry)
        }
    }

    fn wait_for_txn(&mut self, holder: TxnId) -> Result<()> {
        let timeout = self.db.config.ssi.lock_wait_timeout;
        self.db
            .tm
            .wait_for(self.txid, holder, timeout)
            .map_err(|e| self.abort_at(e, AbortSite::LockWait, None))
    }

    fn stripe_for(&self, table: &str, key: &Key) -> usize {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        table.hash(&mut h);
        key.hash(&mut h);
        (h.finish() as usize) % self.db.unique_stripes.len()
    }

    /// Uniqueness probe: is any version of `key` live (committed latest state)
    /// or pending (in-progress writer)?
    fn unique_probe(&self, inner: &TableInner, slot: &IndexSlot, key: &Key) -> Result<UniqueProbe> {
        let roots: Vec<TupleId> = match &slot.imp {
            IndexImpl::BTree(b) => b.search(key).entries.into_iter().map(|(_, t)| t).collect(),
            IndexImpl::Hash(h) => h.search(key),
        };
        for root in roots {
            // Walk to the newest version and judge liveness from the latest
            // committed state (a "dirty" read, like PostgreSQL's unique check).
            let Some((xmin, xmax, row, pruned)) = inner
                .heap
                .with_chain_tail(root, |_, tt| (tt.xmin, tt.xmax, tt.row.clone(), tt.pruned))
            else {
                continue;
            };
            if pruned {
                continue;
            }
            match self.db.tm.status(xmin) {
                TxnStatus::Aborted => continue,
                TxnStatus::InProgress if !self.own().is_mine(xmin) => {
                    return Ok(UniqueProbe::WaitFor(xmin));
                }
                _ => {}
            }
            // Creator committed (or is us): key must actually match (stale
            // entries from key updates).
            if slot.key_of(&row) != *key {
                continue;
            }
            if !xmax.is_valid() {
                return Ok(UniqueProbe::Duplicate(slot.def.name.clone()));
            }
            match self.db.tm.status(xmax) {
                TxnStatus::Aborted => return Ok(UniqueProbe::Duplicate(slot.def.name.clone())),
                TxnStatus::InProgress => {
                    if self.own().is_mine(xmax) {
                        // We deleted it ourselves: free to re-insert.
                        continue;
                    }
                    // A concurrent delete is pending; wait for its verdict.
                    return Ok(UniqueProbe::WaitFor(xmax));
                }
                TxnStatus::Committed(_) => continue, // deleted: key is free
            }
        }
        Ok(UniqueProbe::Clear)
    }

    /// Wait-loop wrapper for unique secondary keys during updates.
    fn unique_wait_loop(&mut self, inner: &TableInner, slot: &IndexSlot, key: &Key) -> Result<()> {
        loop {
            match self.unique_probe(inner, slot, key)? {
                UniqueProbe::Clear => return Ok(()),
                UniqueProbe::Duplicate(idx) => return Err(Error::DuplicateKey { index: idx }),
                UniqueProbe::WaitFor(x) => self.wait_for_txn(x)?,
            }
        }
    }

    // ------------------------------------------------------------------
    // Savepoints (§7.3)
    // ------------------------------------------------------------------

    /// Establish a savepoint: starts a subtransaction whose writes can be
    /// rolled back independently.
    pub fn savepoint(&mut self, name: &str) -> Result<()> {
        self.ensure_active()?;
        let sub = self.new_subxid();
        self.subxids.push(sub);
        self.savepoints.push(SavepointRec {
            name: name.to_string(),
            sub_index: self.subxids.len() - 1,
        });
        Ok(())
    }

    /// Allocate a subtransaction id and alias it into the SSI graph, so MVCC
    /// conflict events naming the subxid find this transaction's record.
    fn new_subxid(&self) -> TxnId {
        let sub = self.db.tm.begin_sub();
        if let Some(s) = &self.ssi {
            s.mgr.register_subxid(&s.sx, sub);
        }
        sub
    }

    /// ROLLBACK TO SAVEPOINT: abort every subtransaction at or after the
    /// savepoint, discarding their writes. SIREAD locks acquired inside the
    /// subtransaction are **kept** — the data read may have been externalized
    /// (§7.3). The savepoint remains established.
    pub fn rollback_to_savepoint(&mut self, name: &str) -> Result<()> {
        self.ensure_active()?;
        let pos = self
            .savepoints
            .iter()
            .rposition(|s| s.name == name)
            .ok_or_else(|| Error::NotFound(format!("savepoint {name:?}")))?;
        let cut = self.savepoints[pos].sub_index;
        for &sub in &self.subxids[cut..] {
            self.db.tm.abort_sub(sub);
        }
        // Redo ops captured inside the aborted subtransactions (depth beyond
        // the cut) must not reach the durable log.
        self.redo.retain(|(depth, _)| *depth <= cut);
        self.subxids.truncate(cut);
        self.savepoints.truncate(pos + 1);
        // The savepoint continues with a fresh subtransaction.
        let fresh = self.new_subxid();
        self.subxids.push(fresh);
        self.savepoints[pos].sub_index = self.subxids.len() - 1;
        Ok(())
    }

    /// RELEASE SAVEPOINT: the subtransactions merge into the parent (their
    /// xids simply commit with the top-level transaction).
    pub fn release_savepoint(&mut self, name: &str) -> Result<()> {
        self.ensure_active()?;
        let pos = self
            .savepoints
            .iter()
            .rposition(|s| s.name == name)
            .ok_or_else(|| Error::NotFound(format!("savepoint {name:?}")))?;
        self.savepoints.truncate(pos);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Finish
    // ------------------------------------------------------------------

    /// Commit. Runs the SSI pre-commit check (§5.4); on serialization failure
    /// the transaction is rolled back and the error returned for retry.
    ///
    /// Transactions that wrote nothing finish through
    /// [`pgssi_storage::TxnManager::commit_readonly`], which does not advance
    /// the commit frontier.
    pub fn commit(mut self) -> Result<()> {
        self.ensure_active()?;
        let span = self.db.stats.commit_ns.start();
        let txid = self.txid;
        let xids = all_xids(&txid, &self.subxids);
        let payload = if self.wrote {
            self.take_redo_payload()
        } else {
            None
        };
        if let Some((mgr, sx)) = self.ssi_ref() {
            if let Err(e) = mgr.precommit(sx, self.db.tm.frontier()) {
                return Err(self.abort_at(e, AbortSite::Precommit, None));
            }
        }
        // A failed commit-time pivot re-check committed nothing, so rolling
        // back here is exactly like a precommit failure.
        let ssi = self.ssi_ref();
        let lsn = match self
            .db
            .commit_txn(txid, &xids, ssi, self.wrote, payload.as_deref())
        {
            Ok(lsn) => lsn,
            Err(e) => return Err(self.abort_at(e, AbortSite::Precommit, None)),
        };
        self.db.finish_commit(self.pinned(), lsn, self.s2pl_owner());
        self.db.stats.commit_ns.record_elapsed(span);
        self.finished = true;
        Ok(())
    }

    /// Roll back. Idempotent (a no-op after auto-abort).
    pub fn rollback(mut self) {
        self.rollback_in_place();
    }

    /// PREPARE TRANSACTION (two-phase commit, §7.1): runs the SSI pre-commit
    /// check and persists the SIREAD locks; the transaction's fate is decided
    /// later by [`crate::Database::commit_prepared`] / `rollback_prepared`.
    pub fn prepare(mut self, gid: &str) -> Result<()> {
        // Sim interleaving point on the 2PC prepare edge: a prepared-but-
        // unresolved transaction is the state other commits must respect.
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::TwoPhasePrepare);
        self.ensure_active()?;
        let xids = all_xids(&self.txid, &self.subxids).into_owned();
        let ssi_rec = match &self.ssi {
            Some(s) => match s.mgr.prepare(&s.sx, self.db.tm.frontier()) {
                Ok(rec) => Some(rec),
                Err(e) => return Err(self.abort_at(e, AbortSite::Prepare, None)),
            },
            None => None,
        };
        // Persist the in-doubt state as a durable Prepare record: gid, redo
        // ops, and the SIREAD footprint as replay-stable *table names*
        // (relation ids are assigned in open order and shift across
        // recoveries). Encoded before the prepared-map lock; appended inside
        // it so the record cannot orphan a rejected duplicate gid.
        let payload = self.db.dwal.capturing().then(|| {
            let mut siread_tables: Vec<String> = ssi_rec
                .as_ref()
                .map(|rec| {
                    rec.siread_locks
                        .iter()
                        .filter_map(|t| self.db.catalog.table_of_rel(t.relation()))
                        .collect()
                })
                .unwrap_or_default();
            siread_tables.sort();
            siread_tables.dedup();
            crate::durability::encode_prepare(&crate::durability::PreparedRecord {
                gid: gid.to_string(),
                txid: self.txid,
                serializable: ssi_rec.is_some(),
                siread_tables,
                ops: self.take_redo_ops(),
            })
        });
        let rec = crate::twophase::PreparedTxn {
            txid: self.txid,
            xids,
            sx: self.ssi.as_ref().map(|s| s.sx.clone()),
            ssi: ssi_rec,
            s2pl_owner: self.s2pl_owner(),
            wrote: self.wrote,
            prepare_lsn: None,
        };
        let prepare_lsn = {
            let mut prepared = self.db.lock_prepared();
            if prepared.contains_key(gid) {
                drop(prepared);
                return Err(Error::Misuse(format!("gid {gid:?} already prepared")));
            }
            let mut rec = rec;
            let lsn = payload.map(|p| self.db.dwal.append_record(&p));
            rec.prepare_lsn = lsn;
            prepared.insert(gid.to_string(), rec);
            lsn
        };
        // PREPARE is acknowledged only once the in-doubt record is on stable
        // storage — the promise COMMIT PREPARED relies on after a crash.
        if let Some(lsn) = prepare_lsn {
            self.db.dwal.wait_durable(lsn);
        }
        // A prepared serializable transaction keeps pinning the vacuum
        // horizon from the SSI active set until COMMIT/ROLLBACK PREPARED.
        if let Some(txid) = self.pinned() {
            self.db.active_snapshots.lock().remove(&txid);
        }
        self.finished = true;
        Ok(())
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.rollback_in_place();
    }
}

enum VersionLock {
    Locked,
    Retry,
}

enum UniqueProbe {
    Clear,
    Duplicate(String),
    WaitFor(TxnId),
}
