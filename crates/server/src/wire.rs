//! The sessioned connection front-end: [`Server`] accepts logical client
//! sessions — over in-process duplex channels here, over sockets in
//! [`crate::tcp`] — and executes their protocol requests through the shared
//! [`SessionPool`].
//!
//! A session is a [`WireTask`]: an inbox of request lines, at most one open
//! transaction, and a response buffer. One *drain* (one activation) executes
//! every line queued in the inbox — so a client that pipelines a whole
//! transaction (`BEGIN` … `COMMIT` in one batch) never holds row locks across
//! a scheduling boundary — formats each response straight into the session's
//! reused buffer, and delivers the lot in one step when the inbox runs dry:
//! one lock and one notify for an in-process client, one `write` for a socket.
//! That is the flush point for both transports, and the only one: responses
//! to a batch become visible together, in request order, when the batch is
//! done (a statement that blocks on a row lock holds back the responses of
//! the lines before it in the same batch, as it holds back its own).
//! [`execute_line`] and the response formatting exist once; the transports
//! differ only in the [`ResponseSink`] behind the buffer and in which thread
//! runs the drain (a pool worker for a [`SessionHandle`], the connection's
//! own thread for TCP).
//!
//! A [`SessionHandle`] is the client end of an in-process channel: `send`
//! enqueues a request line and wakes the session, `recv` (blocking) or
//! `try_recv` collects one response line per request.
//!
//! Each session owns at most one open [`ShardedTransaction`]; its txid
//! allocation is pinned to a shard derived from the session id, so sessions
//! spread across the transaction manager's txid shards no matter which thread
//! runs them.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use pgssi_common::{Error, Result, ServerConfig, TxnId};
use pgssi_engine::{Database, IsolationLevel, ShardedDatabase, ShardedTransaction};

use crate::lines::LineWriter;
use crate::pool::{Next, SessionId, SessionPool, SessionTask};
use crate::proto::{self, Command};
use crate::transport::Transport;

#[derive(Default)]
pub(crate) struct Channel {
    pub(crate) requests: VecDeque<String>,
    responses: VecDeque<String>,
    pub(crate) closed: bool,
    /// The TCP connection thread is parked in [`Duplex::wait_drained`]; the
    /// drain that empties the inbox notifies it.
    reader_parked: bool,
}

/// Client/server halves share this duplex channel. For TCP sessions only the
/// request direction is used (the connection thread is the "client half");
/// responses go straight to the socket.
pub(crate) struct Duplex {
    pub(crate) chan: Mutex<Channel>,
    /// Signalled when a drain has delivered its responses, and on close.
    delivered: Condvar,
}

impl Duplex {
    pub(crate) fn new() -> Duplex {
        Duplex {
            chan: Mutex::new(Channel::default()),
            delivered: Condvar::new(),
        }
    }

    /// Block until the session has taken every queued request (or closed).
    /// A connection thread calls this when a pool worker, not itself, is
    /// running its session: it must not read further ahead of that worker,
    /// or a client that sends faster than the session executes grows the
    /// inbox without bound.
    pub(crate) fn wait_drained(&self) {
        let mut c = self.chan.lock();
        while !c.requests.is_empty() && !c.closed {
            c.reader_parked = true;
            self.delivered.wait(&mut c);
        }
        c.reader_parked = false;
    }
}

/// Where a drain's coalesced response bytes go. `write` receives whole
/// `\n`-terminated lines, every response of one drain in a single call.
pub(crate) trait ResponseSink: Write + Send {
    /// The session is being closed from the server side: make the client's
    /// blocked read fail.
    fn hang_up(&mut self) {}
}

/// The in-process sink: response lines go back onto the duplex channel, one
/// lock and one notify per drain.
struct ChannelSink(Arc<Duplex>);

impl Write for ChannelSink {
    fn write(&mut self, lines: &[u8]) -> io::Result<usize> {
        let mut c = self.0.chan.lock();
        // A closed channel has no reader left; its responses are dropped.
        if !c.closed {
            c.responses.extend(
                lines
                    .split_inclusive(|&b| b == b'\n')
                    .map(|l| l.strip_suffix(b"\n").unwrap_or(l))
                    .map(|l| String::from_utf8_lossy(l).into_owned()),
            );
        }
        drop(c);
        self.0.delivered.notify_all();
        Ok(lines.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ResponseSink for ChannelSink {}

/// The server: a session pool plus the accept path.
pub struct Server {
    pub(crate) pool: Arc<SessionPool>,
}

impl Server {
    /// Start a server fronting `db` with `cfg.workers` worker threads (a
    /// one-shard cluster; every statement routes to shard 0).
    pub fn new(db: Database, cfg: ServerConfig) -> Server {
        Server {
            pool: Arc::new(SessionPool::new(db, cfg)),
        }
    }

    /// Start a server fronting a sharded cluster. Statements route per
    /// shard — `BEGIN` pins nothing; a session's transaction escalates to
    /// cross-shard 2PC only when its statements actually span shards.
    pub fn new_cluster(db: ShardedDatabase, cfg: ServerConfig) -> Server {
        Server {
            pool: Arc::new(SessionPool::new_cluster(db, cfg)),
        }
    }

    /// The cluster behind the server (one shard for [`Server::new`]).
    pub fn db(&self) -> &ShardedDatabase {
        self.pool.db()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.pool.live_sessions()
    }

    /// Open a logical session; returns the client end of its duplex channel.
    pub fn connect(&self) -> Result<SessionHandle> {
        let duplex = Arc::new(Duplex::new());
        let task = WireTask::new(
            Arc::clone(&duplex),
            Arc::downgrade(&self.pool),
            Box::new(ChannelSink(Arc::clone(&duplex))),
        );
        let sid = self.pool.spawn(Box::new(task))?;
        Ok(SessionHandle {
            pool: Arc::clone(&self.pool),
            duplex,
            sid,
        })
    }

    /// Stop the workers and close every live session (open transactions roll
    /// back; clients blocked in `recv` observe `Disconnected`).
    pub fn shutdown(self) {
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool.shutdown(),
            // Live handles keep the pool allocated (its Drop joins the
            // workers), but their sessions close now.
            Err(pool) => pool.close_sessions(),
        }
    }
}

/// Client end of a session's duplex channel. Dropping it closes the session
/// (any open transaction rolls back).
pub struct SessionHandle {
    pool: Arc<SessionPool>,
    duplex: Arc<Duplex>,
    sid: SessionId,
}

fn disconnected() -> Error {
    Error::Disconnected("session closed".to_string())
}

impl Transport for SessionHandle {
    /// Enqueue one request line (non-blocking) and wake the session.
    fn send(&self, line: &str) -> Result<()> {
        {
            let mut c = self.duplex.chan.lock();
            if c.closed {
                return Err(disconnected());
            }
            c.requests.push_back(line.to_string());
        }
        self.pool.db().session_stats().requests_enqueued.bump();
        self.pool.wake(self.sid);
        Ok(())
    }

    /// Blocking receive of the next response line; fails with
    /// [`Error::Disconnected`] once closed with an empty response queue.
    fn recv(&self) -> Result<String> {
        let mut c = self.duplex.chan.lock();
        loop {
            if let Some(r) = c.responses.pop_front() {
                return Ok(r);
            }
            if c.closed {
                return Err(disconnected());
            }
            self.duplex.delivered.wait(&mut c);
        }
    }

    /// Non-blocking receive.
    fn try_recv(&self) -> Result<Option<String>> {
        let mut c = self.duplex.chan.lock();
        match c.responses.pop_front() {
            Some(r) => Ok(Some(r)),
            None if c.closed => Err(disconnected()),
            None => Ok(None),
        }
    }

    /// Pipeline a batch (e.g. a whole transaction) and collect every response.
    /// Because the batch is enqueued before the session is woken, one worker
    /// activation executes it back-to-back — the override enqueues under one
    /// lock acquisition where the default method would wake per line.
    fn pipeline(&self, lines: &[&str]) -> Result<Vec<String>> {
        {
            let mut c = self.duplex.chan.lock();
            if c.closed {
                return Err(disconnected());
            }
            for l in lines {
                c.requests.push_back(l.to_string());
            }
        }
        let stats = self.pool.db().session_stats();
        stats.requests_enqueued.add(lines.len() as u64);
        self.pool.wake(self.sid);
        (0..lines.len()).map(|_| self.recv()).collect()
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.duplex.chan.lock().closed = true;
        self.pool.wake(self.sid);
    }
}

/// Server-side session state: drains the inbox on each activation.
pub(crate) struct WireTask {
    duplex: Arc<Duplex>,
    /// Back-reference for transaction-ownership bookkeeping (weak: tasks live
    /// inside the pool's slots, so a strong handle would be a cycle).
    pool: std::sync::Weak<SessionPool>,
    /// Responses of the drain in progress, one `\n`-terminated line each,
    /// in front of the sink they are delivered to when the inbox runs dry.
    out: LineWriter<Box<dyn ResponseSink>>,
    /// Lines executed since the last delivery (`requests_executed` is
    /// advanced once per drain, before the client can see the responses).
    executed: u64,
    txn: Option<ShardedTransaction>,
    /// Branches the open transaction has registered with the pool's
    /// `(shard, txid)` → session map. Shared with the transaction's enlist
    /// hook: branches register the instant they open (they can block inside
    /// that same statement), and everything deregisters when the
    /// transaction slot empties.
    tracked: Arc<Mutex<Vec<(usize, TxnId)>>>,
    /// Whether the `ACTIVITY` row last written showed a transaction open, and
    /// whether a line has run since (the row may then show a wait that is
    /// over): the row is rewritten when the first changes, and at the end of
    /// a drain if the second is set — not per line.
    activity_open: bool,
    activity_stale: bool,
    /// Per-session cache of `(pk columns, width)` by table, so hot-path PUTs
    /// don't re-take the catalog and table locks per request. Schemas are
    /// immutable after `create_table`, so the cache never goes stale.
    shapes: HashMap<String, (Vec<usize>, usize)>,
}

impl WireTask {
    pub(crate) fn new(
        duplex: Arc<Duplex>,
        pool: std::sync::Weak<SessionPool>,
        sink: Box<dyn ResponseSink>,
    ) -> WireTask {
        WireTask {
            duplex,
            pool,
            out: LineWriter::new(sink),
            executed: 0,
            txn: None,
            tracked: Arc::new(Mutex::new(Vec::new())),
            activity_open: false,
            activity_stale: false,
            shapes: HashMap::new(),
        }
    }

    /// Execute one request line and append its response line to the buffer.
    fn answer(&mut self, db: &ShardedDatabase, sid: SessionId, line: &str) {
        let start = self.out.pending();
        let refused = self.execute_line(db, sid, line);
        let out = self.out.buffer();
        if let Err(Refusal(why)) = refused {
            out.truncate(start);
            out.extend_from_slice(b"ERR ");
            out.extend_from_slice(why.as_bytes());
        }
        // Responses are line-oriented: nothing inside one may end the line.
        for b in &mut out[start..] {
            if *b == b'\n' {
                *b = b' ';
            }
        }
        out.push(b'\n');
        self.executed += 1;
        self.untrack_finished_txn();
        if self.txn.is_some() != self.activity_open {
            self.note_activity(sid);
        } else {
            self.activity_stale = true;
        }
    }

    fn note_activity(&mut self, sid: SessionId) {
        self.activity_open = self.txn.is_some();
        self.activity_stale = false;
        if let Some(pool) = self.pool.upgrade() {
            pool.note_activity(
                sid,
                self.txn.as_ref().and_then(|t| t.txid()),
                self.txn.as_ref().map(|t| iso_label(t.isolation())),
                self.tracked.lock().iter().map(|&(s, _)| s),
            );
        }
    }

    /// The inbox is empty: hand the drain's responses to the client in one
    /// step. `reader_parked` is the channel's flag as read under the lock
    /// that found the inbox empty.
    fn deliver(&mut self, db: &ShardedDatabase, sid: SessionId, reader_parked: bool) -> Next {
        if self.activity_stale {
            self.note_activity(sid);
        }
        db.session_stats()
            .requests_executed
            .add(std::mem::take(&mut self.executed));
        if self.out.flush().is_err() {
            // Client gone mid-response: nothing more can reach it. Retire
            // the session now (open transaction rolls back) and make sure
            // the connection thread's read ends too.
            self.close();
            return Next::Stop;
        }
        if reader_parked {
            self.duplex.delivered.notify_all();
        }
        Next::Idle
    }

    /// Registration happens eagerly in the transaction's enlist hook (set at
    /// BEGIN); this is the matching teardown, run after each request: once
    /// the transaction slot is empty (COMMIT/ABORT/auto-abort), every branch
    /// it registered is forgotten.
    fn untrack_finished_txn(&mut self) {
        if self.txn.is_some() {
            return;
        }
        let pairs: Vec<(usize, TxnId)> = self.tracked.lock().drain(..).collect();
        if pairs.is_empty() {
            return;
        }
        if let Some(pool) = self.pool.upgrade() {
            for (shard, txid) in pairs {
                pool.forget_txn(shard, txid);
            }
        }
    }

    /// Drop and forget the open transaction (rolls back via `Drop`): the
    /// retirement paths, where only the ownership *removal* matters and no
    /// session id is meaningful.
    fn drop_txn(&mut self) {
        self.txn = None;
        self.untrack_finished_txn();
    }
}

impl SessionTask for WireTask {
    /// Server-side close (pool shutdown, panic, dead socket): mark the
    /// channel closed and wake the client so a blocked `recv` fails with
    /// [`Error::Disconnected`] instead of hanging on a retired session. TCP
    /// clients learn the same thing from the socket shutting down, and the
    /// connection thread from its `read` ending.
    fn close(&mut self) {
        self.drop_txn();
        self.duplex.chan.lock().closed = true;
        self.duplex.delivered.notify_all();
        self.out.sink().hang_up();
    }

    fn run(&mut self, db: &ShardedDatabase, sid: SessionId) -> Next {
        loop {
            let line = {
                let mut c = self.duplex.chan.lock();
                if c.closed {
                    c.responses.clear();
                    None
                } else {
                    match c.requests.pop_front() {
                        Some(l) => Some(l),
                        None => {
                            let reader_parked = c.reader_parked;
                            drop(c);
                            return self.deliver(db, sid, reader_parked);
                        }
                    }
                }
            };
            let Some(line) = line else {
                // Channel closed: roll back any open transaction (forgetting
                // its pool ownership) and retire the session.
                self.drop_txn();
                return Next::Stop;
            };
            self.answer(db, sid, &line);
        }
    }
}

/// The text after `ERR ` for a refused request. Anything `Display` converts,
/// so `?` works on engine errors, parse errors and literal messages alike.
struct Refusal(String);

impl<T: std::fmt::Display> From<T> for Refusal {
    fn from(why: T) -> Refusal {
        Refusal(why.to_string())
    }
}

type Reply = std::result::Result<(), Refusal>;

/// Short isolation label used in `ACTIVITY` rows.
fn iso_label(iso: IsolationLevel) -> &'static str {
    match iso {
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::RepeatableRead => "SI",
        IsolationLevel::Serializable => "SSI",
        IsolationLevel::Serializable2pl => "S2PL",
    }
}

/// `ROWS <n> row|row|…`, each row written by `row`.
fn write_rows<T>(out: &mut Vec<u8>, rows: &[T], mut row: impl FnMut(&mut Vec<u8>, &T)) {
    let _ = write!(out, "ROWS {}", rows.len());
    for (i, r) in rows.iter().enumerate() {
        out.push(if i == 0 { b' ' } else { b'|' });
        row(out, r);
    }
}

impl WireTask {
    /// Execute one request line against the session's transaction slot,
    /// writing the response (without its terminator) into the buffer. On
    /// `Err` the caller replaces whatever was written with the `ERR` line.
    fn execute_line(&mut self, db: &ShardedDatabase, sid: SessionId, line: &str) -> Reply {
        let WireTask {
            pool,
            txn,
            tracked,
            shapes,
            out,
            ..
        } = self;
        let out = out.buffer();
        let cmd = proto::parse(line)?;
        // Retryable failures auto-abort the engine transaction; a dead handle must
        // not linger as "open".
        if txn.as_ref().is_some_and(|t| t.is_finished()) {
            *txn = None;
        }
        match cmd {
            Command::Begin(spec) => {
                if txn.is_some() {
                    return Err("transaction already open".into());
                }
                let mut t = db.begin_with_on_shard(spec.options(), Some(sid))?;
                // Register branches the moment they open: a branch can
                // park on a row lock inside the statement that opened
                // it, and the wait observer must already know the
                // `(shard, txid)` → session mapping by then.
                let pool = pool.clone();
                let tracked = Arc::clone(tracked);
                t.set_enlist_hook(move |shard, txid| {
                    tracked.lock().push((shard, txid));
                    if let Some(p) = pool.upgrade() {
                        p.note_txn(shard, txid, sid);
                    }
                });
                *txn = Some(t);
                out.extend_from_slice(b"OK");
            }
            Command::Commit => {
                txn.take().ok_or("no transaction open")?.commit()?;
                out.extend_from_slice(b"OK");
            }
            Command::Abort => {
                txn.take().ok_or("no transaction open")?.rollback();
                out.extend_from_slice(b"OK");
            }
            Command::Get { table, key } => with_txn(txn, |t| {
                match t.get(&table, &key)? {
                    Some(r) => {
                        out.extend_from_slice(b"ROW ");
                        proto::write_row(out, &r, b' ');
                    }
                    None => out.extend_from_slice(b"NIL"),
                }
                Ok(())
            })?,
            Command::Put { table, row } => with_txn(txn, |t| {
                if !shapes.contains_key(&table) {
                    shapes.insert(table.clone(), db.table_shape(&table)?);
                }
                let (pk, width) = &shapes[&table];
                // Validate arity up front: the engine checks row width on insert
                // but not on update, and the pk projection below would panic.
                if row.len() != *width {
                    return Err(Error::Misuse(format!(
                        "PUT row width {} != table width {width}",
                        row.len()
                    ))
                    .into());
                }
                let key: pgssi_common::Key = pk.iter().map(|&i| row[i].clone()).collect();
                if !t.update(&table, &key, row.clone())? {
                    t.insert(&table, row)?;
                }
                out.extend_from_slice(b"OK");
                Ok(())
            })?,
            Command::Del { table, key } => with_txn(txn, |t| {
                let hit = t.delete(&table, &key)?;
                let _ = write!(out, "OK {}", u8::from(hit));
                Ok(())
            })?,
            // Introspection verbs: read engine/pool state, no transaction needed.
            // Responses are single lines like everything else on the wire.
            Command::Stats => {
                let report = db.stats_report().to_string();
                out.extend_from_slice(b"STATS");
                for (i, l) in report.lines().enumerate() {
                    let _ = write!(out, "{}{l}", if i == 0 { " " } else { " ; " });
                }
            }
            Command::Hist { name } => {
                let h = db.histogram(&name).ok_or_else(|| {
                    format!(
                        "unknown histogram {name:?} (try one of: {})",
                        pgssi_engine::LatencyReport::NAMES.join(", ")
                    )
                })?;
                let _ = write!(
                    out,
                    "HIST {name} n={} p50={} p95={} p99={} max={}",
                    h.count(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0),
                    h.max()
                );
            }
            Command::Activity => {
                let rows = pool.upgrade().ok_or("pool shut down")?.activity_rows();
                write_rows(out, &rows, |out, (sid, a)| {
                    // Open-ness is keyed on the isolation label, not the
                    // txid: a transaction is open from BEGIN, but its txid
                    // appears only once a statement routes to a shard.
                    let state = match (a.isolation, a.waiting_on) {
                        (Some(_), Some(_)) => "waiting",
                        (Some(_), None) => "active",
                        _ => "idle",
                    };
                    let opt = |out: &mut Vec<u8>, v: Option<u64>| {
                        let _ = match v {
                            Some(v) => write!(out, "{v},"),
                            None => write!(out, "-,"),
                        };
                    };
                    let _ = write!(out, "{sid},{state},");
                    opt(out, a.txid);
                    let _ = write!(out, "{},", a.isolation.unwrap_or("-"));
                    opt(out, a.waiting_on);
                    // Trailing column: shards the transaction has enlisted,
                    // "+"-joined ("0+2" = cross-shard 2PC over shards 0 and
                    // 2; "-" = none routed yet).
                    if a.shards.is_empty() {
                        out.push(b'-');
                    }
                    for (i, s) in a.shards.iter().enumerate() {
                        let _ = write!(out, "{}{s}", if i == 0 { "" } else { "+" });
                    }
                });
            }
            Command::Scan { table } => with_txn(txn, |t| {
                let rows = t.scan(&table)?;
                write_rows(out, &rows, |out, r| proto::write_row(out, r, b','));
                Ok(())
            })?,
        }
        Ok(())
    }
}

/// Run a data command against the open transaction (refusing when there is
/// none) and reap a handle the engine auto-aborted under it.
fn with_txn(
    txn: &mut Option<ShardedTransaction>,
    f: impl FnOnce(&mut ShardedTransaction) -> Reply,
) -> Reply {
    let t = txn.as_mut().ok_or("no transaction open")?;
    let reply = f(t);
    if t.is_finished() {
        // Retryable error rolled the transaction back under us.
        *txn = None;
    }
    reply
}
