//! Durable logical WAL: redo capture, group commit, checkpoint + recovery
//! (DESIGN.md §5).
//!
//! The replication stream in [`crate::replication`] ships SSI *metadata*
//! (digests, snapshots) to live followers; this module is the orthogonal
//! durability layer: every committed writing transaction appends one
//! **logical redo record** (the rows it upserted/deleted) to a
//! [`WalStore`], and reopening the same directory replays those records to
//! rebuild heap, clog, and the `TxnManager` frontier.
//!
//! Three invariants carry the design:
//!
//! 1. **Log order = commit order.** The record append happens under the same
//!    mutex as the clog commit ([`DurableWal::commit_durably`]), so if T2's
//!    write depended on T1's commit (tuple lock order), T1's record precedes
//!    T2's in the log. Replaying the prefix in order therefore visits only
//!    states that existed (a transaction-consistent history).
//! 2. **Commit ⇒ durable.** A committing transaction does not return success
//!    until the log is fsynced past its record ([`DurableWal::wait_durable`]).
//!    One *leader* fsyncs everything buffered so far while the other
//!    committers park on the sync epoch — group commit, the classic
//!    batched-fsync amortization.
//! 3. **Torn tail = uncommitted.** A crash mid-append leaves at most one torn
//!    frame at the tail; open-time truncation (see `pgssi_storage::wal`)
//!    discards it, which is safe because the commit that wrote it never
//!    reported success (it was still parked in `wait_durable`).
//!
//! An in-memory database (`WalMode::Memory`) keeps no log at all: its
//! [`DurableWal`] has no store, redo capture is off for good, and commits
//! never reach the append lock.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Condvar, Mutex, MutexGuard};
use pgssi_common::sim::{self, Site};
use pgssi_common::stats::Counter;
use pgssi_common::{CommitSeqNo, Key, Row, TxnId, Value};
use pgssi_storage::wal::{FileWalStore, Lsn, WalStore};

use crate::catalog::{IndexDef, IndexKind, TableDef};

/// Log file name inside a `WalMode::File` directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside a `WalMode::File` directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

// ---------------------------------------------------------------------------
// Redo records
// ---------------------------------------------------------------------------

/// One logical redo operation. Replay is idempotent: `Upsert` inserts or
/// overwrites by primary key, `Delete` ignores missing rows, `CreateTable`
/// tolerates an existing table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedoOp {
    /// DDL: create a table (logged as its own record at `create_table` time).
    CreateTable(TableDef),
    /// Insert or update: the full new row (its primary key is derivable).
    Upsert {
        /// Target table.
        table: String,
        /// Complete new row version.
        row: Row,
    },
    /// Delete by primary key.
    Delete {
        /// Target table.
        table: String,
        /// Primary key of the deleted row.
        key: Key,
    },
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        put_value(out, v);
    }
}

fn put_op(out: &mut Vec<u8>, op: &RedoOp) {
    match op {
        RedoOp::CreateTable(def) => {
            out.push(0);
            put_str(out, &def.name);
            out.extend_from_slice(&(def.columns.len() as u32).to_le_bytes());
            for c in &def.columns {
                put_str(out, c);
            }
            out.extend_from_slice(&(def.pk.len() as u32).to_le_bytes());
            for &p in &def.pk {
                out.extend_from_slice(&(p as u32).to_le_bytes());
            }
            out.extend_from_slice(&(def.indexes.len() as u32).to_le_bytes());
            for idx in &def.indexes {
                put_str(out, &idx.name);
                out.extend_from_slice(&(idx.cols.len() as u32).to_le_bytes());
                for &c in &idx.cols {
                    out.extend_from_slice(&(c as u32).to_le_bytes());
                }
                out.push(idx.unique as u8);
                out.push(match idx.kind {
                    IndexKind::BTree => 0,
                    IndexKind::Hash => 1,
                });
            }
        }
        RedoOp::Upsert { table, row } => {
            out.push(1);
            put_str(out, table);
            put_row(out, row);
        }
        RedoOp::Delete { table, key } => {
            out.push(2);
            put_str(out, table);
            put_row(out, key);
        }
    }
}

/// Encode one commit record: the committing txid plus its redo ops.
pub fn encode_commit(txid: TxnId, ops: &[RedoOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + ops.len() * 24);
    out.extend_from_slice(&txid.0.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        put_op(&mut out, op);
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().ok()?)),
            3 => Value::Text(self.str()?),
            _ => return None,
        })
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        let mut row = Row::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row)
    }

    fn op(&mut self) -> Option<RedoOp> {
        Some(match self.u8()? {
            0 => {
                let name = self.str()?;
                let ncols = self.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(self.str()?);
                }
                let npk = self.u32()? as usize;
                let mut pk = Vec::with_capacity(npk.min(1024));
                for _ in 0..npk {
                    pk.push(self.u32()? as usize);
                }
                let nidx = self.u32()? as usize;
                let mut indexes = Vec::with_capacity(nidx.min(1024));
                for _ in 0..nidx {
                    let iname = self.str()?;
                    let nic = self.u32()? as usize;
                    let mut cols = Vec::with_capacity(nic.min(1024));
                    for _ in 0..nic {
                        cols.push(self.u32()? as usize);
                    }
                    let unique = self.u8()? != 0;
                    let kind = match self.u8()? {
                        0 => IndexKind::BTree,
                        1 => IndexKind::Hash,
                        _ => return None,
                    };
                    indexes.push(IndexDef {
                        name: iname,
                        cols,
                        unique,
                        kind,
                    });
                }
                RedoOp::CreateTable(TableDef {
                    name,
                    columns,
                    pk,
                    indexes,
                })
            }
            1 => RedoOp::Upsert {
                table: self.str()?,
                row: self.row()?,
            },
            2 => RedoOp::Delete {
                table: self.str()?,
                key: self.row()?,
            },
            _ => return None,
        })
    }
}

/// Decode a commit record produced by [`encode_commit`]. `None` on any
/// malformed byte (a checksummed frame should never produce one, so callers
/// treat `None` as corruption and stop replay) and on 2PC records (which
/// carry the [`TWOPHASE_SENTINEL`] prefix instead of a txid).
pub fn decode_commit(payload: &[u8]) -> Option<(TxnId, Vec<RedoOp>)> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let txid = TxnId(r.u64()?);
    if txid.0 == TWOPHASE_SENTINEL {
        return None;
    }
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(r.op()?);
    }
    if r.pos != payload.len() {
        return None;
    }
    Some((txid, ops))
}

// ---------------------------------------------------------------------------
// Two-phase-commit records (§7.1 durability)
// ---------------------------------------------------------------------------

/// Prefix marking a WAL frame as a 2PC record rather than a commit record.
/// Commit frames start with the committing txid; txids are assigned from a
/// monotone frontier and can never reach `u64::MAX`, so the sentinel is
/// unambiguous.
const TWOPHASE_SENTINEL: u64 = u64::MAX;
const TAG_PREPARE: u8 = 0;
const TAG_RESOLVE: u8 = 1;

/// Crash-safe image of a prepared transaction: everything recovery needs to
/// re-instate the in-doubt gid. Tuple/page SIREAD targets are not
/// replay-stable (heap positions are rebuilt), so the read set is persisted
/// as the *names* of the relations it touched and recovery re-acquires
/// relation-level SIREAD locks — coarser, therefore conservative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedRecord {
    /// The global identifier PREPARE TRANSACTION was given.
    pub gid: String,
    /// The prepared transaction's pre-crash txid (diagnostic only: recovery
    /// assigns a fresh txid; resolution is keyed on the gid).
    pub txid: TxnId,
    /// Whether it ran under SSI (recovery then re-instates the conservative
    /// conflicts-both-ways summary state, §7.1).
    pub serializable: bool,
    /// Names of relations covered by its SIREAD locks at prepare time.
    pub siread_tables: Vec<String>,
    /// Its captured redo ops, applied under a fresh in-progress txid at
    /// recovery (re-taking the tuple write locks) and made visible only by a
    /// later `Resolve { committed: true }`.
    pub ops: Vec<RedoOp>,
}

/// One decoded durable-WAL frame: plain commit, 2PC prepare, or 2PC resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalEntry {
    /// An ordinary committed transaction's redo record.
    Commit {
        /// The committing txid.
        txid: TxnId,
        /// Its redo ops.
        ops: Vec<RedoOp>,
    },
    /// `PREPARE TRANSACTION <gid>`: appended (and fsynced) at prepare time so
    /// the in-doubt transaction survives a crash.
    Prepare(PreparedRecord),
    /// `COMMIT PREPARED` / `ROLLBACK PREPARED <gid>`. A committing resolve is
    /// appended under the clog-commit critical section, so its log position
    /// is the transaction's commit position (replay applies the stashed
    /// prepare ops here, preserving log order = commit order).
    Resolve {
        /// The gid being resolved.
        gid: String,
        /// True for COMMIT PREPARED, false for ROLLBACK PREPARED.
        committed: bool,
    },
}

/// Encode a 2PC prepare record.
pub fn encode_prepare(rec: &PreparedRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rec.ops.len() * 24);
    out.extend_from_slice(&TWOPHASE_SENTINEL.to_le_bytes());
    out.push(TAG_PREPARE);
    put_str(&mut out, &rec.gid);
    out.extend_from_slice(&rec.txid.0.to_le_bytes());
    out.push(rec.serializable as u8);
    out.extend_from_slice(&(rec.siread_tables.len() as u32).to_le_bytes());
    for t in &rec.siread_tables {
        put_str(&mut out, t);
    }
    out.extend_from_slice(&(rec.ops.len() as u32).to_le_bytes());
    for op in &rec.ops {
        put_op(&mut out, op);
    }
    out
}

/// Encode a 2PC resolve record.
pub fn encode_resolve(gid: &str, committed: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + gid.len());
    out.extend_from_slice(&TWOPHASE_SENTINEL.to_le_bytes());
    out.push(TAG_RESOLVE);
    put_str(&mut out, gid);
    out.push(committed as u8);
    out
}

/// Decode any durable-WAL frame (commit, prepare, or resolve). `None` on any
/// malformed byte.
pub fn decode_entry(payload: &[u8]) -> Option<WalEntry> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let head = r.u64()?;
    if head != TWOPHASE_SENTINEL {
        let (txid, ops) = decode_commit(payload)?;
        return Some(WalEntry::Commit { txid, ops });
    }
    let entry = match r.u8()? {
        TAG_PREPARE => {
            let gid = r.str()?;
            let txid = TxnId(r.u64()?);
            let serializable = r.u8()? != 0;
            let ntab = r.u32()? as usize;
            let mut siread_tables = Vec::with_capacity(ntab.min(1024));
            for _ in 0..ntab {
                siread_tables.push(r.str()?);
            }
            let nops = r.u32()? as usize;
            let mut ops = Vec::with_capacity(nops.min(1024));
            for _ in 0..nops {
                ops.push(r.op()?);
            }
            WalEntry::Prepare(PreparedRecord {
                gid,
                txid,
                serializable,
                siread_tables,
                ops,
            })
        }
        TAG_RESOLVE => WalEntry::Resolve {
            gid: r.str()?,
            committed: r.u8()? != 0,
        },
        _ => return None,
    };
    if r.pos != payload.len() {
        return None;
    }
    Some(entry)
}

// ---------------------------------------------------------------------------
// DurableWal
// ---------------------------------------------------------------------------

/// Durability counters, folded into `Database::stats_report`.
#[derive(Default)]
pub struct WalStats {
    /// Commit records appended.
    pub records: Counter,
    /// Fsyncs issued (group commit batches many records per fsync).
    pub syncs: Counter,
    /// Commits that parked waiting for another committer's fsync to cover them.
    pub sync_waits: Counter,
    /// Records replayed during the most recent recovery.
    pub recovered_records: Counter,
    /// Torn-tail bytes truncated at open.
    pub torn_bytes: Counter,
    /// Time (ns) a committer spent in `wait_durable` parked behind another
    /// committer's in-flight fsync (leaders fsync directly and record
    /// nothing here).
    pub sync_wait_ns: pgssi_common::Histogram,
}

struct SyncState {
    /// The log is fsynced up to here.
    synced: Lsn,
    /// A leader is currently inside `sync()` on behalf of the current epoch.
    leader_running: bool,
    /// Poison flag: a leader's fsync failed. The leader panics (a WAL I/O
    /// error is unrecoverable mid-commit, PostgreSQL-style), but a panic
    /// alone would leave `leader_running` stuck and every follower parked
    /// behind a dead leader forever. Setting this before unwinding makes
    /// every present and future waiter panic too instead of hanging —
    /// exactly what the fault-injecting simulator needs to treat an fsync
    /// failure as a clean crash.
    failed: bool,
}

/// The engine's handle on the durable log: redo appends serialized with clog
/// commits, plus the group-commit machinery.
pub struct DurableWal {
    /// `None` for an in-memory database, which keeps no log.
    store: Option<Box<dyn WalStore>>,
    /// Redo capture switch: off while recovery replays the log (replayed
    /// writes must not be re-logged), and off for good without a store.
    capture: AtomicBool,
    /// Serializes `{clog commit; buffered append}` so log order equals commit
    /// order (invariant 1 above). Checkpointing also takes it to capture a
    /// `(snapshot, end_lsn)` pair atomically.
    append_lock: Mutex<()>,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Counters (exposed via `Database::stats_report`).
    pub stats: WalStats,
}

impl DurableWal {
    /// The in-memory database's handle: no store, capture off. Every append
    /// site is gated on [`DurableWal::capturing`], so nothing is ever logged.
    pub fn none() -> DurableWal {
        DurableWal::build(None)
    }

    /// Wrap an already-open store.
    pub fn with_store(store: Box<dyn WalStore>) -> DurableWal {
        DurableWal::build(Some(store))
    }

    fn build(store: Option<Box<dyn WalStore>>) -> DurableWal {
        DurableWal {
            capture: AtomicBool::new(store.is_some()),
            store,
            append_lock: Mutex::new(()),
            sync_state: Mutex::new(SyncState {
                synced: 0,
                leader_running: false,
                failed: false,
            }),
            sync_cv: Condvar::new(),
            stats: WalStats::default(),
        }
    }

    /// Open the file store under `dir`, truncating any torn tail.
    pub fn open_file(dir: &std::path::Path) -> std::io::Result<DurableWal> {
        let store = FileWalStore::open(dir.join(WAL_FILE))?;
        let torn = store.truncated_tail();
        let wal = DurableWal::with_store(Box::new(store));
        wal.stats.torn_bytes.add(torn);
        Ok(wal)
    }

    /// Whether transactions should capture redo ops right now.
    pub fn capturing(&self) -> bool {
        self.capture.load(Ordering::Relaxed)
    }

    /// Suspend/resume redo capture (recovery replay runs with it off).
    pub(crate) fn set_capture(&self, on: bool) {
        debug_assert!(self.store.is_some(), "no log to capture into");
        self.capture.store(on, Ordering::Relaxed);
    }

    /// Whether commits actually park for fsync (file-backed store).
    pub fn is_durable(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_durable())
    }

    /// The underlying store (recovery, tests); `None` in memory mode.
    pub fn store(&self) -> Option<&dyn WalStore> {
        self.store.as_deref()
    }

    /// Offset just past the last appended record (0 with no log).
    pub fn end_lsn(&self) -> Lsn {
        self.store.as_ref().map_or(0, |s| s.end_lsn())
    }

    /// The store behind an append site. Those sites are reachable only while
    /// capturing, which a store-less handle never is.
    fn log(&self) -> &dyn WalStore {
        self.store
            .as_deref()
            .expect("redo capture is off without a log")
    }

    /// Acquire the append lock. Under the simulator this spins on `try_lock`
    /// with a yield between attempts instead of blocking: the store's
    /// `append` contains a yield point, so the lock is held *across* yields
    /// and a sim thread must never block in the kernel on it while the
    /// holder is parked (it would keep the run token forever). Real mode
    /// takes the plain lock.
    fn lock_append(&self) -> MutexGuard<'_, ()> {
        if sim::is_sim_thread() {
            sim::yield_point(Site::DurableAppend);
            loop {
                if let Some(g) = self.append_lock.try_lock() {
                    return g;
                }
                sim::yield_point(Site::LockSpin);
            }
        }
        self.append_lock.lock()
    }

    /// Scheduler wakeup key for group-commit fsync waits.
    #[inline]
    fn sync_key(&self) -> usize {
        std::ptr::addr_of!(self.sync_cv) as usize
    }

    /// Drop the log prefix a durable checkpoint has made redundant. Holds the
    /// append lock so no commit record lands while the file store rewrites
    /// itself (the store serializes internally too; this keeps the clog-order
    /// invariant's critical section the single point of log mutation).
    pub fn trim_to(&self, up_to: Lsn) -> std::io::Result<()> {
        let _g = self.lock_append();
        self.log().trim_to(up_to)
    }

    /// Run the clog commit and, if `payload` is present, append it to the log
    /// in the same critical section — making the record's log position atomic
    /// with the commit's visibility (invariant 1). Returns the commit CSN and
    /// the record's LSN to later [`wait_durable`](DurableWal::wait_durable) on.
    ///
    /// A WAL append failure is unrecoverable mid-commit (the clog commit has
    /// already happened), so it panics — the PostgreSQL response to a WAL
    /// write error is likewise a PANIC.
    pub fn commit_durably(
        &self,
        payload: Option<&[u8]>,
        commit: impl FnOnce() -> CommitSeqNo,
    ) -> (CommitSeqNo, Option<Lsn>) {
        match payload {
            None => (commit(), None),
            Some(p) => {
                let _g = self.lock_append();
                let csn = commit();
                let lsn = self.log().append(p).expect("WAL append failed");
                self.stats.records.bump();
                (csn, Some(lsn))
            }
        }
    }

    /// Append a standalone record (DDL, 2PC prepare/resolve) without waiting
    /// for the fsync; callers that need durability before acknowledging chain
    /// a [`wait_durable`](DurableWal::wait_durable) on the returned position.
    pub fn append_record(&self, payload: &[u8]) -> Lsn {
        let _g = self.lock_append();
        let lsn = self.log().append(payload).expect("WAL append failed");
        self.stats.records.bump();
        lsn
    }

    /// Append a standalone (non-transactional) record — DDL — and make it
    /// durable before returning.
    pub fn append_ddl(&self, payload: &[u8]) {
        let lsn = self.append_record(payload);
        self.wait_durable(lsn);
    }

    /// Capture a `(snapshot end, log end)` pair with no commit in flight:
    /// every commit with `lsn <= end_lsn` is visible to a snapshot taken
    /// inside `f`, and none after. Checkpointing uses this.
    pub fn quiesced<T>(&self, f: impl FnOnce() -> T) -> (T, Lsn) {
        let _g = self.lock_append();
        let t = f();
        (t, self.end_lsn())
    }

    /// Block until the log is durable past `lsn`. No-op for a store whose
    /// `sync` is free. The first committer to find no fsync in flight becomes
    /// the leader and syncs everything buffered (covering every record
    /// appended before its call); the rest park on the sync epoch and are
    /// woken exactly once, when `synced` passes them.
    pub fn wait_durable(&self, lsn: Lsn) {
        if !self.is_durable() {
            return;
        }
        let mut st = self.sync_state.lock();
        loop {
            if st.failed {
                panic!("WAL fsync failed (group-commit leader reported the error)");
            }
            if st.synced >= lsn {
                return;
            }
            if st.leader_running {
                // A leader's fsync is in flight; it may have started before
                // our append, so re-check after it finishes.
                self.stats.sync_waits.bump();
                let parked = self.stats.sync_wait_ns.start();
                if sim::is_sim_thread() {
                    // Sim park: no deadline — a leader always finishes (or
                    // poisons), so the wakeup is guaranteed; the fault plan
                    // may delay it but never drops deadline-less waits.
                    drop(st);
                    let _ = sim::block(Site::FsyncWait, self.sync_key(), None);
                    st = self.sync_state.lock();
                } else {
                    self.sync_cv.wait(&mut st);
                }
                self.stats.sync_wait_ns.record_elapsed(parked);
            } else {
                st.leader_running = true;
                drop(st);
                // Everything appended before this call — ours and any records
                // buffered since the last sync — rides this one fsync.
                let end = self.sync_or_poison();
                self.stats.syncs.bump();
                st = self.sync_state.lock();
                st.leader_running = false;
                if end > st.synced {
                    st.synced = end;
                }
                self.notify_synced();
            }
        }
    }

    /// Run the store's fsync; on failure poison the sync state (wake every
    /// follower into a panic — see [`SyncState::failed`]) and then panic.
    fn sync_or_poison(&self) -> Lsn {
        match self.log().sync() {
            Ok(end) => end,
            Err(e) => {
                let mut st = self.sync_state.lock();
                st.failed = true;
                st.leader_running = false;
                drop(st);
                self.notify_synced();
                panic!("WAL fsync failed: {e}");
            }
        }
    }

    fn notify_synced(&self) {
        self.sync_cv.notify_all();
        sim::notify(Site::FsyncWait, self.sync_key());
    }

    /// Fsync whatever is buffered (shutdown, tests).
    pub fn flush(&self) {
        if self.is_durable() {
            let end = self.sync_or_poison();
            let mut st = self.sync_state.lock();
            if end > st.synced {
                st.synced = end;
            }
            drop(st);
            self.notify_synced();
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint encoding
// ---------------------------------------------------------------------------

const CKPT_MAGIC: &[u8; 8] = b"PGSSICK1";

/// A decoded checkpoint: the WAL position it covers and the table contents.
pub struct Checkpoint {
    /// Replay must start at the first record with `lsn > applied_lsn`.
    pub applied_lsn: Lsn,
    /// Per table: definition + latest committed rows at checkpoint time.
    pub tables: Vec<(TableDef, Vec<Row>)>,
}

/// Encode a checkpoint image (body is CRC-protected; see
/// [`decode_checkpoint`]).
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&ckpt.applied_lsn.to_le_bytes());
    body.extend_from_slice(&(ckpt.tables.len() as u32).to_le_bytes());
    for (def, rows) in &ckpt.tables {
        let mut defop = Vec::new();
        put_op(&mut defop, &RedoOp::CreateTable(def.clone()));
        body.extend_from_slice(&defop);
        body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for row in rows {
            put_row(&mut body, row);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&pgssi_storage::crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode a checkpoint file. `None` on bad magic, bad CRC, or malformed body
/// — the caller falls back to full-log replay.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    if bytes.len() < 12 || &bytes[..8] != CKPT_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let body = &bytes[12..];
    if pgssi_storage::crc32(body) != crc {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    let applied_lsn = r.u64()?;
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        let RedoOp::CreateTable(def) = r.op()? else {
            return None;
        };
        let nrows = r.u64()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            rows.push(r.row()?);
        }
        tables.push((def, rows));
    }
    if r.pos != body.len() {
        return None;
    }
    Some(Checkpoint {
        applied_lsn,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::row;
    use pgssi_storage::wal::MemWalStore;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn commit_record_roundtrip() {
        let def = TableDef::new("t", &["id", "v"], vec![0]).with_index(IndexDef {
            name: "t_v".into(),
            cols: vec![1],
            unique: true,
            kind: IndexKind::Hash,
        });
        let ops = vec![
            RedoOp::CreateTable(def),
            RedoOp::Upsert {
                table: "t".into(),
                row: row![1, "x"],
            },
            RedoOp::Upsert {
                table: "t".into(),
                row: row![Value::Null, true, -7],
            },
            RedoOp::Delete {
                table: "t".into(),
                key: row![1],
            },
        ];
        let enc = encode_commit(TxnId(42), &ops);
        let (txid, dec) = decode_commit(&enc).unwrap();
        assert_eq!(txid, TxnId(42));
        assert_eq!(dec, ops);
    }

    /// Rows on both sides of the inline capacity (4) survive the redo codec.
    #[test]
    fn redo_rows_roundtrip_inline_and_spilled() {
        for width in [0usize, 4, 5, 20] {
            let row: Row = (0..width)
                .map(|i| match i % 3 {
                    0 => Value::Int(i as i64 - 7),
                    1 => Value::text(format!("c{i}")),
                    _ => Value::Null,
                })
                .collect();
            let ops = vec![
                RedoOp::Upsert {
                    table: "t".into(),
                    row: row.clone(),
                },
                RedoOp::Delete {
                    table: "t".into(),
                    key: row,
                },
            ];
            let (_, dec) = decode_commit(&encode_commit(TxnId(7), &ops)).unwrap();
            assert_eq!(dec, ops, "{width} columns");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let enc = encode_commit(
            TxnId(7),
            &[RedoOp::Delete {
                table: "t".into(),
                key: row![1],
            }],
        );
        for cut in 0..enc.len() {
            assert!(decode_commit(&enc[..cut]).is_none(), "cut at {cut}");
        }
        let mut garbage = enc.clone();
        garbage.push(0);
        assert!(decode_commit(&garbage).is_none());
    }

    #[test]
    fn twophase_records_roundtrip_and_stay_distinct_from_commits() {
        let prep = PreparedRecord {
            gid: "gid-1".into(),
            txid: TxnId(42),
            serializable: true,
            siread_tables: vec!["acct".into(), "hist".into()],
            ops: vec![
                RedoOp::Upsert {
                    table: "acct".into(),
                    row: row![1, 10],
                },
                RedoOp::Delete {
                    table: "acct".into(),
                    key: row![2],
                },
            ],
        };
        let enc = encode_prepare(&prep);
        assert_eq!(decode_entry(&enc), Some(WalEntry::Prepare(prep.clone())));
        // 2PC frames must never parse as commit records (the sim crash oracle
        // and older tooling call decode_commit directly).
        assert!(decode_commit(&enc).is_none());
        for cut in 0..enc.len() {
            assert!(decode_entry(&enc[..cut]).is_none(), "cut at {cut}");
        }
        let mut garbage = enc.clone();
        garbage.push(0);
        assert!(decode_entry(&garbage).is_none());

        let res = encode_resolve("gid-1", true);
        assert_eq!(
            decode_entry(&res),
            Some(WalEntry::Resolve {
                gid: "gid-1".into(),
                committed: true
            })
        );
        assert!(decode_commit(&res).is_none());
        let res = encode_resolve("gid-2", false);
        assert_eq!(
            decode_entry(&res),
            Some(WalEntry::Resolve {
                gid: "gid-2".into(),
                committed: false
            })
        );

        // Plain commit frames round-trip through decode_entry unchanged.
        let enc = encode_commit(
            TxnId(7),
            &[RedoOp::Delete {
                table: "t".into(),
                key: row![1],
            }],
        );
        match decode_entry(&enc) {
            Some(WalEntry::Commit { txid, ops }) => {
                assert_eq!(txid, TxnId(7));
                assert_eq!(ops.len(), 1);
            }
            other => panic!("expected commit entry, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ckpt = Checkpoint {
            applied_lsn: 1234,
            tables: vec![(
                TableDef::new("t", &["id", "v"], vec![0]),
                vec![row![1, 10], row![2, 20]],
            )],
        };
        let enc = encode_checkpoint(&ckpt);
        let dec = decode_checkpoint(&enc).unwrap();
        assert_eq!(dec.applied_lsn, 1234);
        assert_eq!(dec.tables.len(), 1);
        assert_eq!(dec.tables[0].1, vec![row![1, 10], row![2, 20]]);
        let mut bad = enc.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(decode_checkpoint(&bad).is_none());
        assert!(decode_checkpoint(&enc[..6]).is_none());
    }

    /// A store whose sync is slow and counted, to observe group-commit
    /// batching deterministically.
    struct SlowSyncStore {
        inner: MemWalStore,
        syncs: Arc<AtomicU64>,
    }

    impl WalStore for SlowSyncStore {
        fn append(&self, payload: &[u8]) -> std::io::Result<Lsn> {
            self.inner.append(payload)
        }
        fn sync(&self) -> std::io::Result<Lsn> {
            // A real fsync only covers bytes written before it started; capture
            // the watermark first so appends made during the (slow) sync must
            // ride the next one.
            let covered = self.inner.end_lsn();
            std::thread::sleep(std::time::Duration::from_millis(10));
            self.syncs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.sync()?;
            Ok(covered)
        }
        fn end_lsn(&self) -> Lsn {
            self.inner.end_lsn()
        }
        fn is_durable(&self) -> bool {
            true
        }
        fn read_all(&self) -> std::io::Result<Vec<(Lsn, Vec<u8>)>> {
            self.inner.read_all()
        }
    }

    /// Group commit wakes every waiter in a synced epoch exactly once, and
    /// batches: with one slow fsync in flight, the stragglers' records all
    /// ride the next fsync (2 syncs for N committers, not N).
    #[test]
    fn batched_fsync_wakes_every_waiter_once() {
        let sync_count = Arc::new(AtomicU64::new(0));
        let store = Box::new(SlowSyncStore {
            inner: MemWalStore::new(),
            syncs: Arc::clone(&sync_count),
        });
        let wal = Arc::new(DurableWal::with_store(store));

        // Leader: appended first, starts the first (slow) fsync.
        let leader = {
            let wal = Arc::clone(&wal);
            let (_, lsn) = wal.commit_durably(Some(b"leader"), || CommitSeqNo(1));
            std::thread::spawn(move || wal.wait_durable(lsn.unwrap()))
        };
        // Give the leader time to enter sync().
        std::thread::sleep(std::time::Duration::from_millis(3));
        // Followers: append while the leader's fsync is in flight, then wait.
        let woken = Arc::new(AtomicU64::new(0));
        let followers: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                let woken = Arc::clone(&woken);
                std::thread::spawn(move || {
                    let (_, lsn) =
                        wal.commit_durably(Some(format!("f{i}").as_bytes()), || CommitSeqNo(2 + i));
                    wal.wait_durable(lsn.unwrap());
                    // Exactly-once: each waiter returns from wait_durable once.
                    woken.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                })
            })
            .collect();
        leader.join().unwrap();
        for f in followers {
            f.join().unwrap();
        }
        assert_eq!(woken.load(std::sync::atomic::Ordering::SeqCst), 8);
        let syncs = sync_count.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            (2..8).contains(&syncs),
            "expected batched fsyncs, got {syncs}"
        );
        assert_eq!(wal.stats.syncs.get(), syncs);
        // Everything committed is durable and readable.
        assert_eq!(wal.store().unwrap().read_all().unwrap().len(), 9);
    }
}
