//! The session pool: many logical sessions multiplexed onto few workers.
//!
//! PostgreSQL gives every connection an OS process; the paper's evaluation
//! (§8.2) leans on that to run hundreds of mostly-idle DBT-2 terminals. An
//! embedded engine cannot afford a thread per *in-process* session, so this
//! pool runs a fixed set of worker threads ([`ServerConfig::workers`]) and
//! schedules *session activations* onto them:
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
//! **Who may run an activation.** A pool worker that popped the session off
//! the ready queue, or — for a session that has a thread of its own, which is
//! every TCP connection — that thread, through [`SessionPool::run_or_wake`]:
//! it claims the task out of the slot exactly as a worker does and runs the
//! activation on the spot, with no hand-off. Both go through one routine
//! (`PoolInner::activate`), so the claim, the panic containment and the
//! settling of the slot by [`Next`] exist once. A TCP session is thereby what
//! the paper's PostgreSQL has, a backend per connection; the worker set is
//! for the sessions that have no thread (`SessionHandle`s, benchmark
//! terminals).
//!
//! A wake that races an activation is never lost: [`SessionPool::wake`] and
//! [`SessionPool::run_or_wake`] mark `wake_pending` under the pool mutex when
//! the task is claimed or queued, and a task returning [`Next::Idle`]
//! re-enters the ready queue if the mark is set.
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
//! Two mechanisms exist for multiplexed sessions whose lock *holder* is
//! descheduled behind other work, and both stay for them:
//!
//! * the **priority wake** — a thread about to park on a row lock reports the
//!   holder's txid and the holder's session jumps the ready queue. Without
//!   it `blocked_worker_priority_wakes_the_lock_holder_session`
//!   (`tests/server_basic.rs`) never sees `session_lock_wakeups` move.
//! * the **emergency reserve worker** — with every worker inside a reported
//!   lock wait the queue is frozen, so the pool spawns a bounded extra thread
//!   that drains the ready queue (the holder first) and exits. Without it
//!   `all_workers_blocked_on_one_holder_resolves_via_reserve_worker` stalls
//!   to the lock-wait timeout and its waiter gets `ERR`. Only pool workers
//!   count as blocked: a connection thread parked on a row lock starves no
//!   queue (`tcp_waiter_is_not_counted_as_a_blocked_worker`).

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
    /// the wait observer when the owning worker parks and cleared when the
    /// request that blocked completes.
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
    /// connection thread that lent itself to its session is not one: when it
    /// parks on a row lock no runnable session loses a worker, so it must
    /// never count into `waiting_workers`.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
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
    /// One activation. Runs on a pool worker with no pool locks held. The
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
    /// Which session owns which open transaction branch (maintained by the
    /// tasks via [`SessionPool::note_txn`]/[`SessionPool::forget_txn`]), so
    /// the wait observer can map a blocking txid back to its session. Keyed
    /// by `(shard, txid)`: each shard allocates txids independently, so a
    /// bare txid is ambiguous cluster-wide.
    txn_owners: Mutex<HashMap<(usize, TxnId), SessionId>>,
    /// Live-session activity for the `ACTIVITY` verb. Innermost lock: taken
    /// only as a leaf, never while acquiring another pool lock.
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
    /// shard so lock-aware scheduling works wherever a branch blocks.
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
            txn_owners: Mutex::new(HashMap::new()),
            activity: Mutex::new(HashMap::new()),
        });
        // Lock-aware scheduling: a worker about to park on a row lock tells
        // us the holder's txid; if that transaction belongs to a descheduled
        // session, jump it to the front of the ready queue so the lock is
        // released as soon as a worker frees up instead of stalling until the
        // lock timeout. The observer holds only a weak handle (the Database
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

    /// Open a session and schedule its first activation. Fails once
    /// [`ServerConfig::max_sessions`] sessions are live.
    pub fn spawn(&self, task: Box<dyn SessionTask>) -> Result<SessionId> {
        let mut st = self.inner.state.lock();
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
            queued: true,
            wake_pending: false,
        });
        st.live += 1;
        st.ready.push_back(sid);
        drop(st);
        self.inner
            .activity
            .lock()
            .insert(sid, SessionActivity::default());
        self.inner.db.session_stats().sessions_opened.bump();
        self.inner.notify_work_one();
        Ok(sid)
    }

    /// Make an idle session runnable (new input arrived). Never lost: if the
    /// session is currently running, the wake is latched and applied when its
    /// activation returns [`Next::Idle`].
    ///
    /// If the woken session owns an open transaction while every worker is
    /// blocked in a row-lock wait, those workers may well be waiting on *this
    /// session's* locks (a COMMIT arriving for a descheduled holder is the
    /// canonical case) — and no worker is left to run it, so the pool spawns
    /// an emergency reserve worker rather than stalling to the lock timeout.
    /// The ownership map is consulted only in that all-blocked state; an
    /// ordinary wake takes the state lock and nothing else.
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
        let stalled = self.inner.all_workers_waiting(&st);
        drop(st);
        self.inner.notify_work_one();
        // `txn_owners` nests outside the state lock, hence the re-check.
        if stalled && self.inner.owns_txn(sid) {
            let reserve = self.inner.reserve_needed(&mut self.inner.state.lock());
            if reserve {
                self.inner.spawn_reserve();
            }
        }
    }

    /// [`SessionPool::wake`] for a caller that can spare its own thread: a
    /// TCP connection thread that has just queued input for `sid`. If the
    /// session's task is parked in its slot, the caller claims it exactly as
    /// a worker would (the task leaves the slot, so there is still at most
    /// one runner per session), runs the activation on the spot and settles
    /// the slot by the returned [`Next`]; returns `true`. If a worker already
    /// holds or is about to pick up the task — the first activation after
    /// [`SessionPool::spawn`], or a priority wake that raced this call — the
    /// wake is latched like any other and that worker finishes the job;
    /// returns `false`.
    ///
    /// A lent thread is not a pool worker: what it blocks on (a row lock, a
    /// slow client's socket) stalls its own session only, and it never counts
    /// towards the all-workers-blocked test that spawns reserve workers.
    pub fn run_or_wake(&self, sid: SessionId) -> bool {
        let mut st = self.inner.state.lock();
        let Some(Some(slot)) = st.slots.get_mut(sid) else {
            return false;
        };
        let task = if slot.queued { None } else { slot.task.take() };
        let Some(task) = task else {
            slot.wake_pending = true;
            return false;
        };
        drop(st);
        drop(self.inner.activate(sid, task, true));
        true
    }

    /// Record that `sid`'s open transaction has branch `txid` on `shard`
    /// (wire tasks call this when a statement enlists a new shard). The wait
    /// observer uses the mapping to priority-schedule the session when
    /// another worker blocks on that branch's locks.
    pub fn note_txn(&self, shard: usize, txid: TxnId, sid: SessionId) {
        self.inner.txn_owners.lock().insert((shard, txid), sid);
        // Reflect the branch in the session's ACTIVITY row immediately: the
        // statement that opened this branch may block before the session's
        // post-request bookkeeping runs, and an observer should still see
        // which transaction and shards the blocked session holds.
        if let Some(a) = self.inner.activity.lock().get_mut(&sid) {
            if a.txid.is_none() {
                a.txid = Some(txid.0);
            }
            if !a.shards.contains(&shard) {
                a.shards.push(shard);
            }
        }
    }

    /// Forget a finished branch's ownership (COMMIT/ABORT/close).
    pub fn forget_txn(&self, shard: usize, txid: TxnId) {
        self.inner.txn_owners.lock().remove(&(shard, txid));
    }

    /// Refresh `sid`'s `ACTIVITY` row: the open transaction (if any), its
    /// isolation label, and the shards it has enlisted so far. Wire tasks
    /// call it when the transaction slot opens or empties and once at the end
    /// of a drain (branches appear through [`SessionPool::note_txn`] as they
    /// enlist). Clears any recorded wait target — if the session *was*
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

    /// Wait-observer entry point: the calling thread (running `waiter`'s
    /// session) is about to park on a row lock held by `holder`, both txids
    /// scoped to `shard`. Marks a pool worker blocked (cleared when its
    /// activation returns), records the wait target for `ACTIVITY`, and
    /// priority-wakes the holder's session.
    fn report_wait(self: &Arc<Self>, shard: usize, waiter: TxnId, holder: TxnId) {
        // First report of this activation: count the worker as blocked. A
        // lent connection thread is no worker and is not counted.
        if ON_POOL_WORKER.with(Cell::get) && IN_WAIT_REPORT.with(|f| !f.replace(true)) {
            self.state.lock().waiting_workers += 1;
        }
        if let Some(sid) = self.txn_owners.lock().get(&(shard, waiter)).copied() {
            if let Some(a) = self.activity.lock().get_mut(&sid) {
                a.waiting_on = Some(holder.0);
            }
        }
        self.wake_txn_owner(shard, holder);
    }

    /// Priority-wake the session owning `txid` (wait-observer path): a
    /// descheduled holder jumps the FIFO so its lock release is the very next
    /// thing a free worker runs. Counted only when it actually changes the
    /// schedule; a running or already-front session needs no help. If the
    /// holder is runnable but every worker is blocked in a lock wait, a free
    /// worker will never come — spawn an emergency reserve for it.
    fn wake_txn_owner(self: &Arc<Self>, shard: usize, txid: TxnId) {
        let Some(sid) = self.txn_owners.lock().get(&(shard, txid)).copied() else {
            return;
        };
        let mut st = self.state.lock();
        let Some(Some(slot)) = st.slots.get_mut(sid) else {
            return;
        };
        let mut woke = false;
        let mut holder_ready = false;
        if slot.task.is_some() {
            if slot.queued {
                // Parked in the ready queue behind others: move it to the front.
                if let Some(pos) = st.ready.iter().position(|s| *s == sid) {
                    holder_ready = true;
                    if pos > 0 {
                        st.ready.remove(pos);
                        st.ready.push_front(sid);
                        woke = true;
                    }
                }
                // Sleeping a think time (deadline heap): leave it — promoting
                // a thinking terminal would fake the workload's pacing.
            } else {
                // Idle (or latched): schedule it at the front right away.
                slot.queued = true;
                st.ready.push_front(sid);
                holder_ready = true;
                woke = true;
            }
        } else {
            // Mid-activation on another worker: latch the wake so the session
            // reschedules the moment its activation returns Idle. Still a
            // lock-holder wakeup — the latch is what keeps it runnable.
            slot.wake_pending = true;
            woke = true;
        }
        let reserve = holder_ready && self.reserve_needed(&mut st);
        drop(st);
        if woke {
            self.db.session_stats().lock_holder_wakeups.bump();
            if holder_ready {
                self.notify_work_one();
            }
        }
        if reserve {
            self.spawn_reserve();
        }
    }

    /// True when every worker — regular and reserve alike — is blocked inside
    /// a reported lock wait, so a just-queued session has no thread left to
    /// run it.
    fn all_workers_waiting(&self, st: &PoolState) -> bool {
        !st.shutdown && st.waiting_workers >= self.cfg.workers + st.reserve_workers
    }

    /// With the state lock held: true (and a reserve slot claimed) when
    /// [`PoolInner::all_workers_waiting`] and the reserve cap has room.
    fn reserve_needed(&self, st: &mut PoolState) -> bool {
        if !self.all_workers_waiting(st) || st.reserve_workers >= MAX_RESERVE_WORKERS {
            return false;
        }
        st.reserve_workers += 1;
        true
    }

    /// Does `sid` own an open transaction branch? A scan of the ownership
    /// map: callers ask only once the pool is already stalled.
    fn owns_txn(&self, sid: SessionId) -> bool {
        self.txn_owners.lock().values().any(|owner| *owner == sid)
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
    /// both runners: a pool worker (`lent == false`), and a connection thread
    /// that lent itself through [`SessionPool::run_or_wake`]. Called without
    /// the state lock; returns it held.
    fn activate(
        &self,
        sid: SessionId,
        mut task: Box<dyn SessionTask>,
        lent: bool,
    ) -> MutexGuard<'_, PoolState> {
        // Contain panics: one misbehaving session must not kill a worker
        // (the pool is fixed-size; a dead worker is capacity lost forever)
        // or strand its client.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run(&self.db, sid)));
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
        // A worker goes back to the ready queue by itself; work that a lent
        // thread leaves there needs a worker told.
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
                if lent || st.ready.len() > 1 {
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
                    if lent {
                        self.notify_work_one();
                    }
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
            st = inner.activate(sid, task, false);
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
    /// A connection thread lending itself (`run_or_wake`) races lock-holder
    /// priority wakes for the same session: the task is never entered by two
    /// threads at once, and every input queued before a `run_or_wake` is
    /// consumed exactly once — inline, or by the worker the wake was latched
    /// for.
    #[test]
    fn lent_thread_and_priority_wakes_never_share_a_task() {
        use std::sync::atomic::AtomicBool;

        struct Inbox {
            queue: Arc<Mutex<VecDeque<u64>>>,
            inside: Arc<AtomicBool>,
            taken: Arc<AtomicU64>,
            sum: Arc<AtomicU64>,
        }
        impl SessionTask for Inbox {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                assert!(
                    !self.inside.swap(true, Ordering::SeqCst),
                    "two threads inside one session"
                );
                loop {
                    let Some(x) = self.queue.lock().pop_front() else {
                        break;
                    };
                    self.sum.fetch_add(x, Ordering::SeqCst);
                    self.taken.fetch_add(1, Ordering::SeqCst);
                }
                self.inside.store(false, Ordering::SeqCst);
                Next::Idle
            }
        }

        /// Keeps the pool's only worker busy in short activations, so that a
        /// priority-woken session stays queued long enough to be met there
        /// (an idle worker can be switched to, run the session and park
        /// again inside the waker's own `notify` call).
        struct Busy;
        impl SessionTask for Busy {
            fn run(&mut self, _db: &ShardedDatabase, _sid: SessionId) -> Next {
                let until = Instant::now() + Duration::from_micros(20);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                Next::Again
            }
        }

        const INPUTS: u64 = 20_000;
        let db = Database::new(EngineConfig::default());
        let pool = SessionPool::new(db, ServerConfig::with_workers(1));
        pool.spawn(Box::new(Busy)).unwrap();
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let (taken, sum) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let sid = pool
            .spawn(Box::new(Inbox {
                queue: Arc::clone(&queue),
                inside: Arc::new(AtomicBool::new(false)),
                taken: Arc::clone(&taken),
                sum: Arc::clone(&sum),
            }))
            .unwrap();
        pool.note_txn(0, TxnId(7), sid);

        let feeding = AtomicBool::new(true);
        let (mut inline, mut latched) = (0u64, 0u64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Paced: back-to-back priority wakes keep the session queued
                // for a worker around the clock and nothing would run inline.
                while feeding.load(Ordering::SeqCst) {
                    pool.inner.wake_txn_owner(0, TxnId(7));
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            for x in 1..=INPUTS {
                queue.lock().push_back(x);
                // The other thread's wakes land wherever the scheduler puts
                // them; these land on the idle task just before a claim, so
                // the worker path is taken hundreds of times whatever the box.
                if x % 64 == 0 {
                    pool.inner.wake_txn_owner(0, TxnId(7));
                }
                if pool.run_or_wake(sid) {
                    inline += 1;
                    continue;
                }
                // Latched: a worker owes this input a run. Waiting for it
                // keeps the feeder in step with the pool, so the two kinds
                // of claim go on alternating for the whole run.
                latched += 1;
                let deadline = Instant::now() + Duration::from_secs(10);
                while taken.load(Ordering::SeqCst) < x {
                    assert!(Instant::now() < deadline, "input {x} was lost");
                    std::thread::yield_now();
                }
            }
            feeding.store(false, Ordering::SeqCst);
        });
        assert_eq!(taken.load(Ordering::SeqCst), INPUTS);
        assert_eq!(sum.load(Ordering::SeqCst), INPUTS * (INPUTS + 1) / 2);
        assert!(
            inline > INPUTS / 128 && latched > INPUTS / 128,
            "both outcomes must occur often for the race to have been run \
             (inline {inline}, latched {latched})"
        );
        pool.shutdown();
    }
}
