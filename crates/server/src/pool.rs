//! The session pool: threadless sessions multiplexed onto few workers.
//!
//! PostgreSQL gives every connection an OS process; the paper's evaluation
//! (§8.2) leans on that to run hundreds of mostly-idle DBT-2 terminals. Here
//! a TCP connection gets a thread of its own ([`crate::tcp`]). The sessions
//! that have none — in-process [`SessionHandle`](crate::SessionHandle)s,
//! DBT-2 terminals, sim clients — are run by this pool's fixed set of worker
//! threads ([`ServerConfig::workers`]). Giving each of them a thread was
//! measured and lost. DBT-2 terminals under SSI on a 2-vCPU box, 4 s
//! windows, three rounds: 1 024 terminals with 10 ms think time ran
//! 8.4–8.7k txn/s at 216–229 µs CPU per commit on two workers, and
//! 334–371 txn/s at 4.6–5.1 ms with a thread each; 1 024 terminals with
//! 200 ms think time (≈ 5.1k txn/s offered) ran 5.0–5.1k against 589–694.
//! The bounded worker set is admission control, so it stays. The pool
//! schedules *session activations* onto the workers:
//!
//! * a session is a [`SessionTask`]; each activation calls
//!   [`SessionTask::run`] once and the returned [`Next`] decides what happens
//!   to the session — run again, sleep for a think time, go idle until an
//!   external [`SessionPool::wake`], or stop;
//! * sessions with pending work sit in a FIFO ready queue; sessions sleeping
//!   a think/keying time sit in a deadline heap and are promoted when due;
//! * at most one thread ever runs a given session (the slot's task is taken
//!   out while running), so session state needs no internal synchronization
//!   beyond `Send`.
//!
//! **One runner per session.** A session opened with [`SessionPool::spawn`]
//! is run by pool workers only. A TCP session is opened idle and is never
//! woken, so it never enters the ready queue: its connection thread alone
//! claims its task (`SessionPool::run_here`) and runs each activation on the
//! spot. Both runners go through one routine (`PoolInner::activate`), so the
//! claim, the panic containment and the settling of the slot by [`Next`]
//! exist once.
//!
//! A wake that races an activation is never lost: [`SessionPool::wake`]
//! marks `wake_pending` under the pool mutex when the task is claimed or
//! queued, and a task returning [`Next::Idle`] re-enters the ready queue if
//! the mark is set.
//!
//! Blocking inside an activation (row-lock waits, DEFERRABLE safe-snapshot
//! waits) blocks the thread running it: a worker, exactly like a PostgreSQL
//! backend, or the connection's own thread, which costs nobody else
//! anything. Clients that *pipeline* whole transactions (the `fig_sessions`
//! driver does) never hold row locks across a scheduling boundary, because
//! one activation drains the whole pipelined batch; interactive clients can
//! hold locks across activations, and the engine's deadlock detector plus
//! lock-wait timeout bound the damage — see `crates/server/tests` for the
//! 1024-sessions-on-4-workers case.
//!
//! One mechanism exists for a lock holder descheduled behind other work: the
//! **emergency reserve worker**. With every worker inside a reported lock
//! wait the queue is frozen, so once a queued session has an open
//! transaction (its `ACTIVITY` row says so) the pool spawns a bounded extra
//! thread that drains the ready queue and exits. Without it
//! `all_workers_blocked_on_one_holder_resolves_via_reserve_worker` stalls to
//! the lock-wait timeout and its waiter gets `ERR`. Only pool workers count
//! as blocked: a connection thread parked on a row lock starves no queue
//! (`tcp_waiter_is_not_counted_as_a_blocked_worker`).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use pgssi_common::sim::{self, Site};
use pgssi_common::{Error, Result, ServerConfig, TxnId};
use pgssi_engine::{Database, ShardedDatabase};
use std::sync::{Arc, Weak};

/// Identifies a session within its pool.
pub type SessionId = usize;

/// One row of the `ACTIVITY` introspection listing (pg_stat_activity
/// analogue): what a session is doing *right now*.
#[derive(Clone, Debug, Default)]
pub struct SessionActivity {
    /// Open transaction's id, if any.
    pub txid: Option<u64>,
    /// Short isolation label ("SSI", "SI", "RC", "S2PL") for the open
    /// transaction.
    pub isolation: Option<&'static str>,
    /// The txid this session is currently blocked on (row-lock wait), set by
    /// the wait observer when the thread running the session parks and
    /// cleared when the request that blocked completes.
    pub waiting_on: Option<u64>,
    /// Shards the open transaction has enlisted, in enlistment order (empty
    /// when no statement has routed yet). More than one entry means the
    /// transaction escalated to cross-shard 2PC.
    pub shards: Vec<usize>,
}

/// Cap on concurrently-live emergency reserve workers. One suffices for the
/// canonical all-blocked-on-one-holder shape; a few more cover a reserve
/// itself blocking on a second descheduled holder. Past the cap the pool
/// falls back to the lock-wait timeout, as before reserves existed.
const MAX_RESERVE_WORKERS: usize = 4;

thread_local! {
    /// Set on a worker thread between its row-lock wait report and the end of
    /// that activation; backs `PoolState::waiting_workers`. Thread-local so
    /// one activation reporting several waits counts as one blocked worker.
    static IN_WAIT_REPORT: Cell<bool> = const { Cell::new(false) };
    /// True on the pool's own threads (regular and reserve workers). A
    /// connection thread running its session is not one: when it parks on a
    /// row lock no runnable session loses a worker, so it must never count
    /// into `waiting_workers`.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The session whose activation this thread is running, for the wait
    /// observer (which runs on the waiting thread) to find its `ACTIVITY`
    /// row. Set around [`SessionTask::run`] by every runner.
    static CURRENT_SESSION: Cell<Option<SessionId>> = const { Cell::new(None) };
}

/// What a session does after an activation returns.
pub enum Next {
    /// Nothing to do until someone calls [`SessionPool::wake`].
    Idle,
    /// More work queued: reschedule immediately (fair FIFO, not run-to-death).
    Again,
    /// Sleep for a think/keying time, then reschedule.
    After(Duration),
    /// Session is finished; drop the task.
    Stop,
}

/// A logical session's behavior. `run` is called by exactly one worker at a
/// time; the task owns all per-session state (open transaction, RNG, inbox).
pub trait SessionTask: Send {
    /// One activation. Runs on the session's one runner (a pool worker, or a
    /// TCP session's connection thread) with no pool locks held. The
    /// pool always fronts a [`ShardedDatabase`] (a plain [`Database`] is
    /// wrapped as a cluster of one); single-shard tasks use
    /// [`ShardedDatabase::shard`] to reach their engine directly.
    fn run(&mut self, db: &ShardedDatabase, sid: SessionId) -> Next;

    /// Called if `run` panics, before the session is retired, so the task can
    /// unblock anyone waiting on it (the wire layer closes its duplex channel
    /// here — otherwise a client blocked in `recv` would hang forever).
    /// Engine transactions the task owns roll back via `Drop` regardless.
    fn close(&mut self) {}
}

struct Slot {
    /// Taken out while a worker runs the task.
    task: Option<Box<dyn SessionTask>>,
    /// In the ready queue or deadline heap (prevents double-queueing).
    queued: bool,
    /// A wake arrived while the task was running or queued.
    wake_pending: bool,
}

struct PoolState {
    slots: Vec<Option<Slot>>,
    free: Vec<SessionId>,
    ready: VecDeque<SessionId>,
    timed: BinaryHeap<Reverse<(Instant, SessionId)>>,
    live: usize,
    shutdown: bool,
    /// Workers currently blocked inside a reported row-lock wait (from the
    /// wait report to the end of that activation — a slight overcount if the
    /// wait resolves mid-activation, which only errs toward spawning a
    /// reserve that finds nothing to do and exits).
    waiting_workers: usize,
    /// Emergency reserve workers currently alive (≤ [`MAX_RESERVE_WORKERS`]).
    reserve_workers: usize,
}

struct PoolInner {
    db: ShardedDatabase,
    cfg: ServerConfig,
    state: Mutex<PoolState>,
    work: Condvar,
    /// Live-session activity for the `ACTIVITY` verb; also where the reserve
    /// rule reads whether a session has a transaction open. Innermost lock:
    /// taken only as a leaf, never while acquiring another pool lock.
    activity: Mutex<HashMap<SessionId, SessionActivity>>,
}

/// A fixed-worker pool executing [`SessionTask`] activations.
pub struct SessionPool {
    inner: Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SessionPool {
    /// Start `cfg.workers` worker threads fronting a single [`Database`]
    /// (wrapped as a one-shard cluster; routing degenerates to shard 0).
    pub fn new(db: Database, cfg: ServerConfig) -> SessionPool {
        SessionPool::new_cluster(ShardedDatabase::from_shards(vec![db]), cfg)
    }

    /// Start `cfg.workers` worker threads fronting a sharded cluster.
    /// Statements route per shard; the wait observer is installed on every
    /// shard so a wait is seen wherever a branch blocks.
    pub fn new_cluster(db: ShardedDatabase, cfg: ServerConfig) -> SessionPool {
        let inner = Arc::new(PoolInner {
            db,
            cfg: ServerConfig {
                workers: cfg.workers.max(1),
                ..cfg
            },
            state: Mutex::new(PoolState {
                slots: Vec::new(),
                free: Vec::new(),
                ready: VecDeque::new(),
                timed: BinaryHeap::new(),
                live: 0,
                shutdown: false,
                waiting_workers: 0,
                reserve_workers: 0,
            }),
            work: Condvar::new(),
            activity: Mutex::new(HashMap::new()),
        });
        // A thread about to park on a row lock tells us the holder's txid:
        // that feeds `ACTIVITY` and the count of blocked workers behind the
        // reserve rule. The observer holds only a weak handle (the Database
        // outlives pools fronting it; a dead pool's observer is a no-op).
        // Installed per shard, each closure carrying its shard index: txids
        // are only meaningful within a shard.
        for shard in 0..inner.db.shards() {
            let weak: Weak<PoolInner> = Arc::downgrade(&inner);
            inner
                .db
                .shard(shard)
                .set_wait_observer(Arc::new(move |waiter, holder| {
                    if let Some(pool) = weak.upgrade() {
                        pool.report_wait(shard, waiter, holder);
                    }
                }));
        }
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                sim::spawn_thread(format!("pool-worker-{i}"), move || {
                    worker_loop(&inner, false)
                })
            })
            .collect();
        SessionPool { inner, workers }
    }

    /// The cluster this pool fronts (a one-shard cluster for pools built
    /// with [`SessionPool::new`]).
    pub fn db(&self) -> &ShardedDatabase {
        &self.inner.db
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// The server configuration this pool runs under.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Open a session and schedule its first activation on a pool worker.
    /// Fails once [`ServerConfig::max_sessions`] sessions are live, or once
    /// the pool is shutting down.
    pub fn spawn(&self, task: Box<dyn SessionTask>) -> Result<SessionId> {
        self.open(task, true)
    }

    /// Open a session that stays idle until its first [`SessionPool::wake`]
    /// — or, for a TCP session, forever: its connection thread runs it
    /// through [`SessionPool::run_here`] and nothing ever wakes it.
    pub(crate) fn open_idle(&self, task: Box<dyn SessionTask>) -> Result<SessionId> {
        self.open(task, false)
    }

    fn open(&self, task: Box<dyn SessionTask>, queued: bool) -> Result<SessionId> {
        let mut st = self.inner.state.lock();
        if st.shutdown {
            return Err(Error::Misuse("session pool is shutting down".into()));
        }
        if st.live >= self.inner.cfg.max_sessions {
            return Err(Error::Misuse(format!(
                "session limit reached ({} live)",
                st.live
            )));
        }
        let sid = match st.free.pop() {
            Some(sid) => sid,
            None => {
                st.slots.push(None);
                st.slots.len() - 1
            }
        };
        st.slots[sid] = Some(Slot {
            task: Some(task),
            queued,
            wake_pending: false,
        });
        st.live += 1;
        if queued {
            st.ready.push_back(sid);
        }
        drop(st);
        self.inner
            .activity
            .lock()
            .insert(sid, SessionActivity::default());
        self.inner.db.session_stats().sessions_opened.bump();
        if queued {
            self.inner.notify_work_one();
        }
        Ok(sid)
    }

    /// Make an idle session runnable (new input arrived). Never lost: if the
    /// session is currently running, the wake is latched and applied when its
    /// activation returns [`Next::Idle`].
    ///
    /// If the woken session has a transaction open while every worker is
    /// blocked in a row-lock wait, those workers may well be waiting on *this
    /// session's* locks (a COMMIT arriving for a descheduled holder is the
    /// canonical case) — and no worker is left to run it, so the pool spawns
    /// an emergency reserve worker rather than stalling to the lock timeout.
    pub fn wake(&self, sid: SessionId) {
        let mut st = self.inner.state.lock();
        let Some(Some(slot)) = st.slots.get_mut(sid) else {
            return;
        };
        if slot.task.is_none() || slot.queued {
            slot.wake_pending = true;
            return;
        }
        slot.queued = true;
        st.ready.push_back(sid);
        let reserve = self.inner.reserve_needed(&mut st);
        drop(st);
        self.inner.notify_work_one();
        if reserve {
            self.inner.spawn_reserve();
        }
    }

    /// Run one activation of `sid` on the calling thread: the connection
    /// thread of a TCP session (opened with [`SessionPool::open_idle`]) that
    /// has just queued input for it. Nothing else ever claims such a session,
    /// so the task is always in its slot — unless a pool-wide close retired
    /// the slot, which makes this a no-op.
    ///
    /// The calling thread is not a pool worker: what it blocks on (a row
    /// lock, a slow client's socket) stalls its own session only, and it
    /// never counts towards the all-workers-blocked test that spawns reserve
    /// workers.
    pub(crate) fn run_here(&self, sid: SessionId) {
        let mut st = self.inner.state.lock();
        let Some(task) = st.slots.get_mut(sid).and_then(|s| s.as_mut()?.task.take()) else {
            return;
        };
        drop(st);
        drop(self.inner.activate(sid, task));
    }

    /// Refresh `sid`'s `ACTIVITY` row: the open transaction (if any), its
    /// isolation label, and the shards it has enlisted so far. Wire tasks
    /// call it when the transaction slot opens or empties and once at the end
    /// of a drain. Clears any recorded wait target — if the session *was*
    /// blocked, the request that blocked it has finished by the time this
    /// runs.
    pub fn note_activity(
        &self,
        sid: SessionId,
        txid: Option<TxnId>,
        isolation: Option<&'static str>,
        shards: impl IntoIterator<Item = usize>,
    ) {
        if let Some(a) = self.inner.activity.lock().get_mut(&sid) {
            a.txid = txid.map(|t| t.0);
            a.isolation = isolation;
            a.waiting_on = None;
            a.shards.clear();
            a.shards.extend(shards);
        }
    }

    /// Snapshot of every live session's activity, sorted by session id (the
    /// `ACTIVITY` verb's payload).
    pub fn activity_rows(&self) -> Vec<(SessionId, SessionActivity)> {
        let mut rows: Vec<(SessionId, SessionActivity)> = self
            .inner
            .activity
            .lock()
            .iter()
            .map(|(sid, a)| (*sid, a.clone()))
            .collect();
        rows.sort_by_key(|(sid, _)| *sid);
        rows
    }

    /// Live-session count.
    pub fn live_sessions(&self) -> usize {
        self.inner.state.lock().live
    }

    /// Stop the workers and join them. Sessions that are mid-activation finish
    /// that activation; everything still queued is dropped (open transactions
    /// roll back via `Transaction`'s `Drop`).
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for h in self.workers.drain(..) {
            // Under simulation the workers are sim threads: wait for them
            // cooperatively before the OS join (which must not block while
            // this thread holds the run token).
            sim::join_thread(&h);
            let _ = h.join();
        }
        self.inner.close_all_slots();
    }

    /// Stop accepting work and close every live session, without consuming the
    /// pool: blocked clients observe `Disconnected` instead of hanging.
    /// Workers wind down; they are joined when the last pool handle drops.
    pub fn close_sessions(&self) {
        self.request_shutdown();
        self.inner.close_all_slots();
    }

    fn request_shutdown(&self) {
        let mut st = self.inner.state.lock();
        st.shutdown = true;
        drop(st);
        self.inner.notify_work_all();
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        self.request_shutdown();
        for h in self.workers.drain(..) {
            sim::join_thread(&h);
            let _ = h.join();
        }
        self.inner.close_all_slots();
    }
}

impl PoolInner {
    /// Key identifying this pool's worker-park channel in the simulator.
    fn work_key(&self) -> usize {
        std::ptr::addr_of!(self.work) as usize
    }

    /// Wake one parked worker (and, under simulation, its sim-parked twin).
    fn notify_work_one(&self) {
        self.work.notify_one();
        sim::notify(Site::PoolPark, self.work_key());
    }

    /// Wake every parked worker (and any sim-parked ones).
    fn notify_work_all(&self) {
        self.work.notify_all();
        sim::notify(Site::PoolPark, self.work_key());
    }

    /// Retire every live slot, calling each resident task's `close` hook so
    /// blocked clients unblock. Tasks that are mid-activation (taken out by a
    /// worker) are closed by that worker when it finds the slot retired.
    ///
    /// Tasks are closed and dropped *after* the state lock is released: a
    /// retiring task may own an open transaction whose `Drop` rolls back
    /// through the engine, and the engine must never run under pool locks.
    fn close_all_slots(&self) {
        let mut st = self.state.lock();
        let mut retired: Vec<Box<dyn SessionTask>> = Vec::new();
        for sid in 0..st.slots.len() {
            let Some(s @ Some(_)) = st.slots.get_mut(sid) else {
                continue;
            };
            if let Some(slot) = s.take() {
                if let Some(task) = slot.task {
                    retired.push(task);
                }
            }
            st.free.push(sid);
            st.live -= 1;
            self.activity.lock().remove(&sid);
        }
        drop(st);
        self.notify_work_all();
        for mut task in retired {
            task.close();
        }
    }

    /// Wait-observer entry point: the calling thread (running the session in
    /// `CURRENT_SESSION`) is about to park on a row lock held by `holder`,
    /// both txids scoped to `shard`. Records the wait target for `ACTIVITY`
    /// and marks a pool worker blocked (cleared when its activation returns).
    fn report_wait(self: &Arc<Self>, shard: usize, waiter: TxnId, holder: TxnId) {
        if let Some(sid) = CURRENT_SESSION.with(Cell::get) {
            if let Some(a) = self.activity.lock().get_mut(&sid) {
                a.waiting_on = Some(holder.0);
                // The branch may have opened inside the blocking statement,
                // before the row was last written.
                a.txid.get_or_insert(waiter.0);
                if !a.shards.contains(&shard) {
                    a.shards.push(shard);
                }
            }
        }
        // First report of this activation: count the worker as blocked. A
        // connection thread is no worker and is not counted.
        if !ON_POOL_WORKER.with(Cell::get) || IN_WAIT_REPORT.with(|f| f.replace(true)) {
            return;
        }
        let mut st = self.state.lock();
        st.waiting_workers += 1;
        // This may be the last worker to block, with the session that would
        // release its lock (a holder's COMMIT) already queued behind it.
        let reserve = self.reserve_needed(&mut st);
        drop(st);
        if reserve {
            self.spawn_reserve();
        }
    }

    /// With the state lock held: true (and a reserve slot claimed) when every
    /// worker — regular and reserve alike — is blocked inside a reported lock
    /// wait, a session in the ready queue has a transaction open (so it may
    /// hold the locks they wait on), and the reserve cap has room.
    fn reserve_needed(&self, st: &mut PoolState) -> bool {
        let all_blocked =
            !st.shutdown && st.waiting_workers >= self.cfg.workers + st.reserve_workers;
        if !all_blocked || st.reserve_workers >= MAX_RESERVE_WORKERS {
            return false;
        }
        let activity = self.activity.lock();
        let holder_queued = st
            .ready
            .iter()
            .any(|sid| activity.get(sid).is_some_and(|a| a.isolation.is_some()));
        drop(activity);
        if holder_queued {
            st.reserve_workers += 1;
        }
        holder_queued
    }

    /// Start a reserve worker (its `reserve_workers` slot is already claimed
    /// by [`PoolInner::reserve_needed`]). It drains the ready queue and exits.
    fn spawn_reserve(self: &Arc<Self>) {
        self.db.session_stats().reserve_workers.bump();
        let inner = Arc::clone(self);
        sim::spawn_thread("pool-reserve".to_string(), move || {
            worker_loop(&inner, true)
        });
    }

    /// Run one activation of the claimed `task` on the calling thread and
    /// settle the session's slot by what it returned. The one routine behind
    /// both runners: a pool worker, and a TCP session's connection thread
    /// ([`SessionPool::run_here`]). Called without the state lock; returns
    /// it held.
    fn activate(
        &self,
        sid: SessionId,
        mut task: Box<dyn SessionTask>,
    ) -> MutexGuard<'_, PoolState> {
        // Contain panics: one misbehaving session must not kill a worker
        // (the pool is fixed-size; a dead worker is capacity lost forever)
        // or strand its client.
        CURRENT_SESSION.with(|c| c.set(Some(sid)));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run(&self.db, sid)));
        CURRENT_SESSION.with(|c| c.set(None));
        // The activation is over; if it reported a row-lock wait, this
        // thread is no longer blocked in it.
        let waited = IN_WAIT_REPORT.with(|f| f.replace(false));
        // A session that panicked is closed on the spot and then retired
        // like one that asked to stop.
        let (next, closed) = match outcome {
            Ok(next) => (next, false),
            Err(_) => {
                eprintln!("pgssi-server: session {sid} panicked; closing it");
                task.close();
                (Next::Stop, true)
            }
        };
        let mut st = self.state.lock();
        if waited {
            st.waiting_workers -= 1;
        }
        let Some(Some(slot)) = st.slots.get_mut(sid) else {
            // Slot retired while this activation ran (pool-wide session
            // close): run the close hook so the task's client unblocks.
            // Closed and dropped outside the state lock — the task may own
            // a transaction whose `Drop` rolls back through the engine.
            drop(st);
            if !closed {
                task.close();
            }
            drop(task);
            return self.state.lock();
        };
        // A worker goes back to the ready queue by itself: another is told
        // only when more than this session is waiting there.
        match next {
            Next::Stop => {
                st.slots[sid] = None;
                st.free.push(sid);
                st.live -= 1;
                self.activity.lock().remove(&sid);
                // Drop the task outside the state lock (see above).
                drop(st);
                drop(task);
                st = self.state.lock();
            }
            Next::Again => {
                slot.task = Some(task);
                slot.queued = true;
                st.ready.push_back(sid);
                if st.ready.len() > 1 {
                    self.notify_work_one();
                }
            }
            Next::After(d) => {
                slot.task = Some(task);
                slot.queued = true;
                st.timed.push(Reverse((sim::now() + d, sid)));
                // A parked worker may be in an untimed wait (heap was
                // empty) or waiting on a later deadline; wake one so it
                // re-reads the heap and re-parks against this deadline —
                // otherwise the reactivation stalls until some unrelated
                // activation completes.
                self.notify_work_one();
            }
            Next::Idle => {
                slot.task = Some(task);
                if slot.wake_pending {
                    slot.wake_pending = false;
                    slot.queued = true;
                    st.ready.push_back(sid);
                }
            }
        }
        st
    }
}

/// The scheduling loop run by every pool thread. Regular workers
/// (`reserve == false`) park on the condvar when idle and live until
/// shutdown; emergency reserve workers exit as soon as the ready queue is
/// empty — they exist only to unfreeze an all-workers-blocked pool.
fn worker_loop(inner: &PoolInner, reserve: bool) {
    ON_POOL_WORKER.with(|f| f.set(true));
    let mut st = inner.state.lock();
    loop {
        // Shutdown preempts queued work: a task that keeps returning
        // `Next::Again` must not be able to pin a worker (and thereby hang
        // `shutdown()`'s join) by re-queueing itself forever. In-flight
        // activations still finish; everything merely *queued* is dropped.
        if st.shutdown {
            break;
        }
        // Promote due timers onto the ready queue.
        let now = sim::now();
        while let Some(Reverse((due, sid))) = st.timed.peek().copied() {
            if due > now {
                break;
            }
            st.timed.pop();
            st.ready.push_back(sid);
        }

        if let Some(sid) = st.ready.pop_front() {
            let Some(Some(slot)) = st.slots.get_mut(sid) else {
                continue;
            };
            slot.queued = false;
            let Some(task) = slot.task.take() else {
                continue;
            };
            drop(st);
            st = inner.activate(sid, task);
            continue;
        }

        // No ready work. A reserve worker's job is done — the frozen queue it
        // was spawned for has drained — so it retires instead of parking.
        if reserve {
            break;
        }
        inner.db.session_stats().worker_parks.bump();
        let deadline = st.timed.peek().map(|Reverse((due, _))| *due);
        if sim::is_sim_thread() {
            // Sim park: release the state lock first — sim threads never
            // block at a yield point while holding a pool lock.
            drop(st);
            let _ = sim::block(Site::PoolPark, inner.work_key(), deadline);
            st = inner.state.lock();
        } else {
            match deadline {
                Some(due) => {
                    let _ = inner.work.wait_until(&mut st, due);
                }
                None => inner.work.wait(&mut st),
            }
        }
    }
    if reserve {
        st.reserve_workers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::EngineConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountTo {
        n: u64,
        target: u64,
        total: Arc<AtomicU64>,
    }

    impl SessionTask for CountTo {
        fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
            self.n += 1;
            self.total.fetch_add(1, Ordering::Relaxed);
            if self.n >= self.target {
                Next::Stop
            } else {
                Next::Again
            }
        }
    }

    #[test]
    fn many_sessions_complete_on_few_workers() {
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(2));
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            pool.spawn(Box::new(CountTo {
                n: 0,
                target: 5,
                total: Arc::clone(&total),
            }))
            .unwrap();
        }
        while pool.live_sessions() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(total.load(Ordering::Relaxed), 500);
        assert_eq!(pool.db().stats_report().sessions_opened, 100);
        pool.shutdown();
    }

    #[test]
    fn session_limit_enforced() {
        let db = Database::new(EngineConfig::default());
        let cfg = ServerConfig {
            max_sessions: 2,
            ..ServerConfig::with_workers(1)
        };
        let pool = SessionPool::new(db, cfg);
        struct Forever;
        impl SessionTask for Forever {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                Next::Idle
            }
        }
        pool.spawn(Box::new(Forever)).unwrap();
        pool.spawn(Box::new(Forever)).unwrap();
        assert!(pool.spawn(Box::new(Forever)).is_err());
        pool.shutdown();
    }

    #[test]
    fn timed_sessions_fire_after_delay() {
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(1));
        struct Pulse {
            fired: u64,
            total: Arc<AtomicU64>,
        }
        impl SessionTask for Pulse {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                self.fired += 1;
                self.total.fetch_add(1, Ordering::Relaxed);
                if self.fired >= 3 {
                    Next::Stop
                } else {
                    Next::After(Duration::from_millis(5))
                }
            }
        }
        let total = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        pool.spawn(Box::new(Pulse {
            fired: 0,
            total: Arc::clone(&total),
        }))
        .unwrap();
        while pool.live_sessions() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(total.load(Ordering::Relaxed), 3);
        assert!(start.elapsed() >= Duration::from_millis(10));
        pool.shutdown();
    }

    #[test]
    fn shutdown_returns_even_with_a_forever_rescheduling_session() {
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(1));
        struct Spinner;
        impl SessionTask for Spinner {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                Next::Again // never stops on its own
            }
        }
        pool.spawn(Box::new(Spinner)).unwrap();
        std::thread::sleep(Duration::from_millis(10)); // let it spin
        let start = Instant::now();
        pool.shutdown(); // must preempt the queued re-activation and join
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn panicking_session_is_retired_without_killing_the_worker() {
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(1));
        struct Bomb {
            closed: Arc<AtomicU64>,
        }
        impl SessionTask for Bomb {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                panic!("boom");
            }
            fn close(&mut self) {
                self.closed.fetch_add(1, Ordering::SeqCst);
            }
        }
        let closed = Arc::new(AtomicU64::new(0));
        pool.spawn(Box::new(Bomb {
            closed: Arc::clone(&closed),
        }))
        .unwrap();
        // The single worker must survive the panic and run later sessions.
        let total = Arc::new(AtomicU64::new(0));
        pool.spawn(Box::new(CountTo {
            n: 0,
            target: 3,
            total: Arc::clone(&total),
        }))
        .unwrap();
        while pool.live_sessions() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(total.load(Ordering::Relaxed), 3);
        assert_eq!(closed.load(Ordering::SeqCst), 1, "close hook must run");
        pool.shutdown();
    }

    #[test]
    fn wake_is_not_lost_while_running() {
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(1));
        // The task sleeps inside its activation; a wake arriving during that
        // window must re-run it.
        struct SleepyOnce {
            runs: Arc<AtomicU64>,
        }
        impl SessionTask for SleepyOnce {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                let n = self.runs.fetch_add(1, Ordering::SeqCst);
                if n == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Next::Idle
            }
        }
        let runs = Arc::new(AtomicU64::new(0));
        let sid = pool
            .spawn(Box::new(SleepyOnce {
                runs: Arc::clone(&runs),
            }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(10)); // mid-first-activation
        pool.wake(sid);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        pool.shutdown();
    }
}
