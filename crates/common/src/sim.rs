//! Deterministic simulation (DST) hooks: a seeded cooperative scheduler that
//! owns every thread-interleaving decision at instrumented points.
//!
//! ## The model
//!
//! In **real mode** (the default) every hook in this module collapses to a
//! single relaxed atomic load of [`enabled`] and an untaken branch — no
//! allocation, no locking, no syscall — so production and benchmark paths pay
//! nothing. In **sim mode** (a [`Scheduler::run`] is in progress) the
//! participating threads form a *cooperative* group: exactly one registered
//! thread holds the run token at any instant, and it hands the token back to
//! the scheduler at every [`yield_point`], [`block`], or [`sleep`]. The
//! scheduler picks the next runnable thread with a seeded
//! round-robin-with-perturbation policy, so the entire interleaving — and
//! therefore the entire execution — is a pure function of the seed. A failing
//! run is a replayable seed.
//!
//! ## Why this is deadlock-safe
//!
//! A parked thread still *holds* whatever OS mutexes it held when it yielded.
//! If the token holder then blocked on one of those mutexes the simulation
//! would hang: the holder is parked waiting for the token, the runner is
//! parked in the kernel. Two disciplines prevent it:
//!
//! 1. **Park sites hold nothing.** Every pre-existing engine park site
//!    (row-lock waits, group-commit fsync waits, session-pool worker parking)
//!    already releases its own mutex to wait — production code never sleeps
//!    for seconds holding a hot mutex. The sim versions of those sites drop
//!    the guard explicitly, call [`block`], and re-acquire on wake.
//! 2. **Locks held across yields are acquired with [`yield point`-spinning
//!    try-locks]** at *every* acquisition site. The two such locks (the SSI
//!    commit-order mutex and the WAL append lock — a yield inside
//!    `FileWalStore::append` runs under both) are only ever taken via
//!    `try_lock` loops that yield the token between attempts, so no sim
//!    thread ever blocks in the kernel on them.
//!
//! ## Virtual time
//!
//! [`now`] returns a virtual `Instant` in sim mode (a fixed base plus a
//! virtual-nanosecond counter advanced deterministically per scheduling
//! step). Every *control-flow* deadline in the engine — lock-wait timeouts,
//! session-pool timed wakeups, retry backoff — is computed from [`now`], so
//! timeouts fire at deterministic points in the schedule. When every thread
//! is blocked, virtual time jumps straight to the earliest deadline; a 10 s
//! lock timeout costs nothing to simulate.
//!
//! ## Wakeup faults
//!
//! The scheduler itself injects the wakeup-level faults of the fault plan:
//! a [`notify`] may be *delayed* (the waiter becomes runnable only after a
//! seeded virtual delay) or *dropped* (only for waits that carry a deadline,
//! so the timeout path fires instead of hanging the run). Storage-level
//! faults (torn writes, fsync failures, crash points) live in the
//! `pgssi-sim` crate's `FaultyWalStore`, driven by the same seed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Sites
// ---------------------------------------------------------------------------

/// An instrumented scheduling point. The variant names the *choke point* in
/// the engine, not the action taken there; the same site can appear in
/// `Yield`, `Block`, and `Notify` trace events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Site {
    /// Before acquiring the SSI commit-order mutex (`core/manager.rs`).
    CommitOrder,
    /// Spinning on a sim-aware try-lock (commit-order or WAL append lock).
    LockSpin,
    /// `DurableWal::commit_durably` entry: the clog-commit + append section.
    DurableAppend,
    /// Inside `FileWalStore::append` (runs under the WAL append lock).
    WalAppend,
    /// Before an fsync (`FileWalStore::sync` callers hold no locks).
    WalSync,
    /// Parked behind a group-commit leader's fsync (`wait_durable`).
    FsyncWait,
    /// Row-lock wait on another transaction's finish (`TxnManager::wait_for`).
    LockWait,
    /// SIREAD read-set batch publication into the partition table.
    SireadPublish,
    /// Session-pool worker parked with no runnable session.
    PoolPark,
    /// 2PC prepare edge (`Transaction::prepare`).
    TwoPhasePrepare,
    /// 2PC commit-prepared / rollback-prepared edge.
    TwoPhaseResolve,
    /// `Replica::catch_up` entry.
    ReplCatchUp,
    /// `with_retries` exponential-backoff sleep.
    RetryBackoff,
    /// Deferrable/safe-snapshot wait (`wait_for_safety`).
    SafetyWait,
    /// Inside a commit-order section, between the commit-CSN assignment and
    /// the fold of that CSN into the in-sources' out-conflict bounds — the
    /// window the authoritative commit-time pivot re-check exists to close.
    CsnFold,
    /// Waiting for another sim thread to exit (see [`join_thread`]).
    ThreadJoin,
    /// One step of a sim driver's workload script.
    DriverStep,
}

impl Site {
    /// Stable short name for trace rendering.
    pub fn name(self) -> &'static str {
        match self {
            Site::CommitOrder => "commit-order",
            Site::LockSpin => "lock-spin",
            Site::DurableAppend => "durable-append",
            Site::WalAppend => "wal-append",
            Site::WalSync => "wal-sync",
            Site::FsyncWait => "fsync-wait",
            Site::LockWait => "lock-wait",
            Site::SireadPublish => "siread-publish",
            Site::PoolPark => "pool-park",
            Site::TwoPhasePrepare => "2pc-prepare",
            Site::TwoPhaseResolve => "2pc-resolve",
            Site::ReplCatchUp => "repl-catch-up",
            Site::RetryBackoff => "retry-backoff",
            Site::SafetyWait => "safety-wait",
            Site::CsnFold => "csn-fold",
            Site::ThreadJoin => "thread-join",
            Site::DriverStep => "driver-step",
        }
    }
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// What happened at a trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Thread passed a yield point (and may have handed off the token).
    Yield,
    /// Thread blocked (parked in the scheduler).
    Block,
    /// Thread woke from a block; `arg` is 1 if notified, 0 if timed out.
    Wake,
    /// Thread notified waiters; `arg` is how many became runnable.
    Notify,
    /// A wakeup was delivered late by fault injection; `arg` = waiter thread.
    NotifyDelayed,
    /// A wakeup was dropped by fault injection; `arg` = waiter thread.
    NotifyDropped,
    /// A new sim thread was registered.
    Spawn,
    /// Thread exited its body.
    Exit,
    /// Thread panicked (crash-style faults surface here).
    Panic,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Yield => "yield",
            EventKind::Block => "block",
            EventKind::Wake => "wake",
            EventKind::Notify => "notify",
            EventKind::NotifyDelayed => "notify-delayed",
            EventKind::NotifyDropped => "notify-dropped",
            EventKind::Spawn => "spawn",
            EventKind::Exit => "exit",
            EventKind::Panic => "panic",
        }
    }
}

/// One entry of the deterministic event trace. Contains no addresses and no
/// wall-clock values, so two runs of the same seed produce byte-identical
/// traces (the replay-determinism acceptance test diffs them directly).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimEvent {
    /// Global decision sequence number.
    pub seq: u64,
    /// Acting thread's slot index.
    pub thread: u16,
    /// Where in the engine the event happened.
    pub site: Site,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific detail (see [`EventKind`]).
    pub arg: u64,
}

impl std::fmt::Display for SimEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6} t{:02} {:<14} {:<14} {}",
            self.seq,
            self.thread,
            self.kind.name(),
            self.site.name(),
            self.arg
        )
    }
}

/// How a [`block`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// A matching [`notify`] marked this thread runnable.
    Notified,
    /// The virtual deadline passed.
    TimedOut,
    /// Not running under a scheduler (real mode / unregistered thread): the
    /// caller must fall back to its real blocking primitive.
    NotSim,
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Scheduler configuration, all derived from one seed by the caller.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for every scheduling and wakeup-fault decision.
    pub seed: u64,
    /// Per-decision chance (permille) of picking a uniformly random runnable
    /// thread instead of the round-robin successor.
    pub perturb_permille: u16,
    /// Per-waiter chance (permille) that a notify is delivered late.
    pub delay_wakeup_permille: u16,
    /// Per-waiter chance (permille) that a notify is dropped entirely. Only
    /// applied to waits that carry a deadline (the timeout path compensates);
    /// deadline-less waits are never dropped, at most delayed.
    pub drop_wakeup_permille: u16,
    /// Upper bound on injected wakeup delay, in virtual nanoseconds.
    pub max_delay_ns: u64,
}

/// Hard cap on recorded trace events (the run keeps going; the trace marks
/// itself truncated).
const TRACE_EVENTS_MAX: usize = 1 << 20;

impl SimConfig {
    /// A schedule-exploring default: moderate perturbation, no wakeup faults.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            perturb_permille: 250,
            delay_wakeup_permille: 0,
            drop_wakeup_permille: 0,
            max_delay_ns: 2_000_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

/// Fast gate: true only while a `Scheduler::run` is in progress anywhere in
/// the process. Hot paths check this single relaxed load and skip everything.
static SIM_ON: AtomicBool = AtomicBool::new(false);

/// Mirror of the virtual clock for lock-free [`now`] reads.
static VNOW_NS: AtomicU64 = AtomicU64::new(0);

/// Global entropy counter backing [`jitter`] in real mode.
static JITTER_SEQ: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);

fn current_scheduler() -> Option<Arc<Scheduler>> {
    SCHEDULER.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

static SCHEDULER: StdMutex<Option<Arc<Scheduler>>> = StdMutex::new(None);

/// Serializes whole simulation runs (tests in one process must not overlap).
static RUN_LOCK: StdMutex<()> = StdMutex::new(());

thread_local! {
    /// This thread's slot index in the active scheduler, if registered.
    static SLOT: std::cell::Cell<Option<u16>> = const { std::cell::Cell::new(None) };
}

/// Whether a simulation run is active in this process. `#[inline]` and a
/// relaxed load: this is the only cost real mode pays at every hook.
#[inline(always)]
pub fn enabled() -> bool {
    SIM_ON.load(Ordering::Relaxed)
}

/// Whether the *calling thread* participates in the active run. Unregistered
/// threads (setup code, unrelated tests running concurrently in the same
/// process) fall through to real behavior at every hook.
#[inline]
pub fn is_sim_thread() -> bool {
    enabled() && SLOT.with(|s| s.get().is_some())
}

// ---------------------------------------------------------------------------
// Hook API (called from engine code)
// ---------------------------------------------------------------------------

/// Offer the scheduler a chance to switch threads. No-op in real mode.
#[inline(always)]
pub fn yield_point(site: Site) {
    if enabled() {
        yield_point_slow(site);
    }
}

#[cold]
fn yield_point_slow(site: Site) {
    let Some(slot) = SLOT.with(|s| s.get()) else {
        return;
    };
    if let Some(sched) = current_scheduler() {
        sched.yield_at(slot, site);
    }
}

/// Park the calling thread until `key` is notified or `deadline` passes
/// (virtual time). Callers must hold **no** locks and must re-check their
/// wait condition on return (spurious wakeups are allowed, exactly like a
/// condvar). Returns [`WakeReason::NotSim`] when not under a scheduler — the
/// caller then uses its real blocking primitive instead.
pub fn block(site: Site, key: usize, deadline: Option<Instant>) -> WakeReason {
    if !enabled() {
        return WakeReason::NotSim;
    }
    let Some(slot) = SLOT.with(|s| s.get()) else {
        return WakeReason::NotSim;
    };
    match current_scheduler() {
        Some(sched) => sched.block_at(slot, site, key, deadline),
        None => WakeReason::NotSim,
    }
}

/// Mark every sim thread blocked on `key` runnable (subject to the injected
/// wakeup faults). Call right next to the real `notify_all`; no-op in real
/// mode and from unregistered threads.
#[inline(always)]
pub fn notify(site: Site, key: usize) {
    if enabled() {
        notify_slow(site, key);
    }
}

#[cold]
fn notify_slow(site: Site, key: usize) {
    let Some(slot) = SLOT.with(|s| s.get()) else {
        return;
    };
    if let Some(sched) = current_scheduler() {
        sched.notify_at(slot, site, key);
    }
}

/// The engine's control-flow clock: real `Instant::now()` in real mode, the
/// virtual clock in sim mode. Every deadline that decides *behavior* (lock
/// timeouts, timed parks, backoff) must come from here; histogram timestamps
/// may keep using `Instant::now()` directly (they never change control flow).
#[inline(always)]
pub fn now() -> Instant {
    if enabled() {
        now_slow()
    } else {
        Instant::now()
    }
}

#[cold]
fn now_slow() -> Instant {
    match current_scheduler() {
        Some(sched) => sched.base + Duration::from_nanos(VNOW_NS.load(Ordering::Relaxed)),
        None => Instant::now(),
    }
}

/// Sleep for `d`: real `thread::sleep` in real mode, a deadline-only
/// [`block`] (virtual time, nothing ever notifies it) in sim mode.
pub fn sleep(site: Site, d: Duration) {
    if is_sim_thread() {
        // Key 0 is reserved: nothing notifies it, so this wakes by deadline.
        let _ = block(site, 0, Some(now() + d));
    } else {
        std::thread::sleep(d);
    }
}

/// A deterministic-under-sim entropy draw for backoff jitter. Sim mode pulls
/// from the scheduler's seeded stream (so retries are replayable); real mode
/// hashes a global counter (decorrelation without an OS entropy dependency).
pub fn jitter() -> u64 {
    if enabled() {
        if let (Some(slot), Some(sched)) = (SLOT.with(|s| s.get()), current_scheduler()) {
            return sched.draw(slot);
        }
    }
    splitmix64(JITTER_SEQ.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed))
}

/// Spawn a named thread that participates in the active simulation (if one is
/// running and the spawner is registered); otherwise a plain `std` spawn.
/// Used by the session pool so its workers join the cooperative group.
pub fn spawn_thread<F>(name: String, f: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    if is_sim_thread() {
        if let Some(sched) = current_scheduler() {
            return sched.spawn_child(name, Box::new(f));
        }
    }
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("thread spawn failed")
}

/// Acquire a mutex that may be **held across yield points** by another sim
/// thread. A sim thread must never OS-block on such a lock: the holder is
/// parked in the scheduler and needs the run token — which the blocked
/// caller would be sitting on — to resume and release it. Under sim this
/// spins on `try_acquire` with a yield between attempts (the scheduler
/// eventually runs the holder to its release); outside sim, or on an
/// unregistered thread, it takes the plain blocking `acquire`.
///
/// Use this for every lock the engine holds while reaching a yield point
/// (directly or transitively): the commit-order mutex, the WAL append lock,
/// SSI transaction records, SIREAD owner lists and partitions.
pub fn lock_cooperatively<G>(
    site: Site,
    mut try_acquire: impl FnMut() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> G {
    if is_sim_thread() {
        loop {
            if let Some(g) = try_acquire() {
                return g;
            }
            yield_point(site);
        }
    }
    acquire()
}

/// Wait (cooperatively) for `h`'s thread to exit, if both the caller and the
/// target are sim threads. A sim thread must **not** call `JoinHandle::join`
/// on another sim thread directly: the OS join would block while holding the
/// run token, and the joinee needs that token to run to completion. Call this
/// first — it parks in the scheduler until the target's body has exited —
/// then the real `join` completes without waiting on scheduled work. No-op in
/// real mode or when the target is not part of the run.
pub fn join_thread<T>(h: &std::thread::JoinHandle<T>) {
    if !is_sim_thread() {
        return;
    }
    if let Some(sched) = current_scheduler() {
        sched.wait_exit(h.thread().id());
    }
}

/// Debugging aid for hung runs: a snapshot of every slot's state plus the
/// trace tail, from any (watchdog) thread. `None` when no run is active. The
/// state mutex is only ever held briefly, so this works even when the run
/// itself is wedged on an engine lock.
pub fn dump_state() -> Option<String> {
    let sched = current_scheduler()?;
    let st = sched.lock_state();
    let mut out = String::new();
    out.push_str(&format!("state mutex at {:p}\n", &sched.state));
    for (i, s) in st.slots.iter().enumerate() {
        out.push_str(&format!(
            "slot {i:2} {:<16} {:?} key={:#x} deadline={:?} forced={:?} park={:p}\n",
            s.name, s.status, s.key, s.deadline_ns, s.forced_release_ns, &s.park.m
        ));
    }
    let skip = st.trace.len().saturating_sub(20);
    for e in &st.trace[skip..] {
        out.push_str(&format!("{e}\n"));
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Runnable, waiting to be granted the token.
    Ready,
    /// Holds the token (at most one slot at a time).
    Running,
    /// Parked on `key` until notify/deadline/forced release.
    Blocked,
    /// Body finished.
    Exited,
}

struct Slot {
    name: String,
    status: Status,
    /// OS identity of the thread occupying this slot (set right after spawn);
    /// lets [`join_thread`] map a `JoinHandle` back to a slot.
    tid: Option<std::thread::ThreadId>,
    /// Valid while `Blocked`.
    key: usize,
    deadline_ns: Option<u64>,
    /// Fault-delayed wakeup: becomes runnable when vnow reaches this.
    forced_release_ns: Option<u64>,
    /// Why the last grant woke this thread (read by `block_at` on wake).
    wake: WakeReason,
    park: Arc<Park>,
}

struct Park {
    m: StdMutex<bool>,
    cv: StdCondvar,
}

impl Park {
    fn new() -> Arc<Park> {
        Arc::new(Park {
            m: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn grant(&self) {
        let mut g = self.m.lock().unwrap_or_else(|e| e.into_inner());
        *g = true;
        drop(g);
        self.cv.notify_one();
    }

    fn wait_granted(&self) {
        let mut g = self.m.lock().unwrap_or_else(|e| e.into_inner());
        while !*g {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        *g = false;
    }
}

struct State {
    rng: u64,
    vnow_ns: u64,
    seq: u64,
    slots: Vec<Slot>,
    /// Round-robin cursor: index of the most recently granted slot.
    rr: usize,
    trace: Vec<SimEvent>,
    trace_truncated: bool,
    /// Fatal scheduler-level failure (global deadlock). Every thread that
    /// next touches the scheduler panics, unwinding the whole run.
    failed: Option<String>,
}

/// The seeded cooperative scheduler. Build runs with [`Scheduler::run`].
pub struct Scheduler {
    cfg: SimConfig,
    base: Instant,
    state: StdMutex<State>,
}

/// Virtual nanoseconds charged per scheduling decision.
const QUANTUM_NS: u64 = 1_000;

/// The block key [`join_thread`] waiters park on for a given slot. Real block
/// keys are condvar addresses; the top of the address space is reserved for
/// the kernel, so these can never collide.
fn exit_key(slot: u16) -> usize {
    usize::MAX - slot as usize
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Result of a completed simulation run.
pub struct SimRun {
    /// The deterministic event trace (byte-identical per seed).
    pub trace: Vec<SimEvent>,
    /// Whether the trace hit its capacity cap.
    pub trace_truncated: bool,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// Final virtual time, nanoseconds.
    pub vnow_ns: u64,
    /// Scheduler-level failure (global deadlock), if any.
    pub failed: Option<String>,
    /// Panic messages recorded from sim threads, in decision order. Expected
    /// crash-fault panics land here too; the driver decides what is fatal.
    pub panics: Vec<String>,
}

impl SimRun {
    /// Render the last `n` trace events for a failure report.
    pub fn tail(&self, n: usize) -> String {
        let start = self.trace.len().saturating_sub(n);
        let mut out = String::new();
        for e in &self.trace[start..] {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// Panic messages are collected per run, not globally.
struct PanicLog(StdMutex<Vec<String>>);

impl Scheduler {
    /// Run `roots` (name, body) as a cooperative group under seed `cfg.seed`
    /// and return the trace. Runs are process-exclusive (serialized on a
    /// global lock). Thread bodies interact with the engine normally; the
    /// instrumented hooks hand all interleaving decisions to this scheduler.
    ///
    /// Panics inside thread bodies are caught, recorded in the trace and in
    /// [`SimRun::panics`], and do not abort the other threads — crash-style
    /// fault injection *relies* on surviving an engine panic. A global
    /// deadlock (every thread blocked, nothing to wake) fails the run.
    pub fn run(cfg: SimConfig, roots: Vec<(String, Box<dyn FnOnce() + Send>)>) -> SimRun {
        let _excl = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!roots.is_empty(), "simulation needs at least one thread");
        let sched = Arc::new(Scheduler {
            base: Instant::now(),
            state: StdMutex::new(State {
                rng: splitmix64(cfg.seed),
                vnow_ns: 0,
                seq: 0,
                slots: Vec::new(),
                rr: 0,
                trace: Vec::new(),
                trace_truncated: false,
                failed: None,
            }),
            cfg,
        });
        let panics = Arc::new(PanicLog(StdMutex::new(Vec::new())));
        VNOW_NS.store(0, Ordering::Relaxed);

        // Pre-register every root so slot indices are deterministic, then
        // publish the scheduler and flip the gate.
        {
            let mut st = sched.lock_state();
            for (name, _) in &roots {
                st.slots.push(Slot {
                    name: name.clone(),
                    status: Status::Ready,
                    tid: None,
                    key: 0,
                    deadline_ns: None,
                    forced_release_ns: None,
                    wake: WakeReason::Notified,
                    park: Park::new(),
                });
            }
        }
        *SCHEDULER.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&sched));
        SIM_ON.store(true, Ordering::Relaxed);

        let mut handles = Vec::new();
        for (idx, (name, body)) in roots.into_iter().enumerate() {
            let sched2 = Arc::clone(&sched);
            let panics = Arc::clone(&panics);
            let h = std::thread::Builder::new()
                .name(name)
                .spawn(move || sched2.thread_main(idx as u16, body, &panics))
                .expect("sim thread spawn failed");
            sched.lock_state().slots[idx].tid = Some(h.thread().id());
            handles.push(h);
        }
        // Hand the token to the first runnable slot; everything after this is
        // driven by the threads themselves.
        {
            let mut st = sched.lock_state();
            sched.grant_next(&mut st);
        }
        for h in handles {
            let _ = h.join();
        }
        // Children spawned mid-run (e.g. pool workers) are not in `handles`;
        // wait until every slot has exited so the trace is final and no sim
        // thread leaks into the next run. A failed run force-woke everyone,
        // so breaking on `failed` is the backstop, not the normal path.
        loop {
            {
                let st = sched.lock_state();
                if st.failed.is_some() || st.slots.iter().all(|s| s.status == Status::Exited) {
                    break;
                }
            }
            std::thread::yield_now();
        }
        SIM_ON.store(false, Ordering::Relaxed);
        *SCHEDULER.lock().unwrap_or_else(|e| e.into_inner()) = None;

        let st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
        let panics = panics.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        SimRun {
            trace: st.trace.clone(),
            trace_truncated: st.trace_truncated,
            steps: st.seq,
            vnow_ns: st.vnow_ns,
            failed: st.failed.clone(),
            panics,
        }
    }

    fn thread_main(self: &Arc<Self>, slot: u16, body: Box<dyn FnOnce() + Send>, panics: &PanicLog) {
        SLOT.with(|s| s.set(Some(slot)));
        self.state_slot_park(slot).wait_granted();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        let panicked = match &result {
            Ok(()) => None,
            Err(p) => Some(panic_message(p.as_ref())),
        };
        if let Some(msg) = &panicked {
            panics
                .0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(format!("t{slot:02} {}", msg));
        }
        let mut st = self.lock_state();
        let kind = if panicked.is_some() {
            EventKind::Panic
        } else {
            EventKind::Exit
        };
        self.record(&mut st, slot, Site::DriverStep, kind, 0);
        st.slots[slot as usize].status = Status::Exited;
        // Wake any thread parked in `join_thread` on this slot. Exit wakeups
        // are delivered reliably (no fault injection): a dropped exit wakeup
        // would model nothing real, only hang the joiner.
        let ek = exit_key(slot);
        for i in 0..st.slots.len() {
            if st.slots[i].status == Status::Blocked && st.slots[i].key == ek {
                st.slots[i].status = Status::Ready;
                st.slots[i].wake = WakeReason::Notified;
            }
        }
        self.grant_next(&mut st);
        drop(st);
        SLOT.with(|s| s.set(None));
    }

    fn state_slot_park(&self, slot: u16) -> Arc<Park> {
        Arc::clone(&self.lock_state().slots[slot as usize].park)
    }

    fn lock_state(&self) -> StdMutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn next_rand(&self, st: &mut State) -> u64 {
        // xorshift64*: tiny, deterministic, good enough for scheduling.
        let mut x = st.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        st.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// One seeded u64 for [`jitter`], charged to the calling thread.
    fn draw(&self, _slot: u16) -> u64 {
        let mut st = self.lock_state();
        self.next_rand(&mut st)
    }

    fn record(&self, st: &mut State, thread: u16, site: Site, kind: EventKind, arg: u64) {
        st.seq += 1;
        if st.trace.len() < TRACE_EVENTS_MAX {
            let seq = st.seq;
            st.trace.push(SimEvent {
                seq,
                thread,
                site,
                kind,
                arg,
            });
        } else {
            st.trace_truncated = true;
        }
    }

    fn check_failed(&self, st: &State) {
        if let Some(msg) = &st.failed {
            panic!("simulation failed: {msg}");
        }
    }

    fn yield_at(self: &Arc<Self>, slot: u16, site: Site) {
        let mut st = self.lock_state();
        self.check_failed(&st);
        debug_assert_eq!(st.slots[slot as usize].status, Status::Running);
        self.record(&mut st, slot, site, EventKind::Yield, 0);
        st.vnow_ns += QUANTUM_NS;
        VNOW_NS.store(st.vnow_ns, Ordering::Relaxed);
        // A waiter that came due is runnable now, whether or not anyone else
        // ever blocks.
        Self::release_due(&mut st);
        // Pick among the other Ready slots and ourselves.
        let next = self.pick_next(&mut st, Some(slot as usize));
        match next {
            Some(n) if n != slot as usize => {
                st.slots[slot as usize].status = Status::Ready;
                st.slots[n].status = Status::Running;
                st.rr = n;
                let park = Arc::clone(&st.slots[n].park);
                let own = Arc::clone(&st.slots[slot as usize].park);
                drop(st);
                park.grant();
                own.wait_granted();
                let st = self.lock_state();
                self.check_failed(&st);
            }
            _ => {}
        }
    }

    fn block_at(
        self: &Arc<Self>,
        slot: u16,
        site: Site,
        key: usize,
        deadline: Option<Instant>,
    ) -> WakeReason {
        let mut st = self.lock_state();
        self.check_failed(&st);
        let deadline_ns =
            deadline.map(|d| d.saturating_duration_since(self.base).as_nanos() as u64);
        self.record(&mut st, slot, site, EventKind::Block, 0);
        {
            let s = &mut st.slots[slot as usize];
            s.status = Status::Blocked;
            s.key = key;
            s.deadline_ns = deadline_ns;
            s.forced_release_ns = None;
        }
        self.grant_next(&mut st);
        let own = Arc::clone(&st.slots[slot as usize].park);
        drop(st);
        own.wait_granted();
        let mut st = self.lock_state();
        self.check_failed(&st);
        let reason = st.slots[slot as usize].wake;
        let arg = u64::from(reason == WakeReason::Notified);
        self.record(&mut st, slot, site, EventKind::Wake, arg);
        reason
    }

    fn notify_at(self: &Arc<Self>, slot: u16, site: Site, key: usize) {
        let mut st = self.lock_state();
        self.check_failed(&st);
        let delay_p = self.cfg.delay_wakeup_permille as u64;
        let drop_p = self.cfg.drop_wakeup_permille as u64;
        let mut woken = 0u64;
        // Keys are runtime addresses (never traced); iteration is by slot
        // index, so fault rolls consume rng in a deterministic order.
        for i in 0..st.slots.len() {
            if st.slots[i].status != Status::Blocked || st.slots[i].key != key {
                continue;
            }
            let roll = self.next_rand(&mut st) % 1000;
            let has_deadline = st.slots[i].deadline_ns.is_some();
            if roll < drop_p && has_deadline {
                self.record(&mut st, slot, site, EventKind::NotifyDropped, i as u64);
            } else if roll < drop_p + delay_p {
                let d = self.next_rand(&mut st) % self.cfg.max_delay_ns.max(1);
                let vnow = st.vnow_ns;
                st.slots[i].forced_release_ns = Some(vnow + d.max(QUANTUM_NS));
                self.record(&mut st, slot, site, EventKind::NotifyDelayed, i as u64);
            } else {
                st.slots[i].status = Status::Ready;
                st.slots[i].wake = WakeReason::Notified;
                woken += 1;
            }
        }
        self.record(&mut st, slot, site, EventKind::Notify, woken);
    }

    fn spawn_child(
        self: &Arc<Self>,
        name: String,
        body: Box<dyn FnOnce() + Send>,
    ) -> std::thread::JoinHandle<()> {
        let idx = {
            let mut st = self.lock_state();
            self.check_failed(&st);
            st.slots.push(Slot {
                name: name.clone(),
                status: Status::Ready,
                tid: None,
                key: 0,
                deadline_ns: None,
                forced_release_ns: None,
                wake: WakeReason::Notified,
                park: Park::new(),
            });
            let idx = (st.slots.len() - 1) as u16;
            let spawner = SLOT.with(|s| s.get()).unwrap_or(u16::MAX);
            self.record(
                &mut st,
                spawner,
                Site::DriverStep,
                EventKind::Spawn,
                idx as u64,
            );
            idx
        };
        let sched = Arc::clone(self);
        // Child panics are recorded in the trace (EventKind::Panic); the
        // message itself is only needed for root threads, whose runner owns
        // the PanicLog — children reuse a local sink.
        let h = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let sink = PanicLog(StdMutex::new(Vec::new()));
                sched.thread_main(idx, body, &sink);
            })
            .expect("sim child spawn failed");
        // Record the OS identity before anyone can try to join this slot:
        // the spawner still holds the run token, so no sim thread observes
        // the slot without its `tid`.
        self.lock_state().slots[idx as usize].tid = Some(h.thread().id());
        h
    }

    /// Cooperative wait for the slot occupied by OS thread `tid` to exit.
    /// Token discipline makes the check-then-block race-free: the target
    /// cannot make progress while the caller holds the token.
    fn wait_exit(self: &Arc<Self>, tid: std::thread::ThreadId) {
        loop {
            let target = {
                let st = self.lock_state();
                self.check_failed(&st);
                st.slots
                    .iter()
                    .position(|s| s.tid == Some(tid))
                    .map(|i| (i as u16, st.slots[i].status))
            };
            match target {
                // Not part of the run: the caller's real `join` is safe.
                None => return,
                Some((_, Status::Exited)) => return,
                Some((slot, _)) => {
                    let _ = block(Site::ThreadJoin, exit_key(slot), None);
                }
            }
        }
    }

    /// Grant the token to the next runnable slot (round-robin from `rr`, with
    /// seeded perturbation). When nothing is runnable, advance virtual time
    /// to the earliest deadline / forced release; if there is none and live
    /// threads remain, the run is deadlocked and fails.
    fn grant_next(self: &Arc<Self>, st: &mut State) {
        loop {
            if let Some(n) = self.pick_next(st, None) {
                st.slots[n].status = Status::Running;
                st.rr = n;
                let park = Arc::clone(&st.slots[n].park);
                park.grant();
                return;
            }
            // Nothing runnable: either all exited, or time must advance.
            let live: Vec<usize> = (0..st.slots.len())
                .filter(|&i| st.slots[i].status == Status::Blocked)
                .collect();
            if live.is_empty() {
                return; // run is over
            }
            let earliest = live
                .iter()
                .filter_map(|&i| {
                    let s = &st.slots[i];
                    match (s.deadline_ns, s.forced_release_ns) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) => Some(a),
                        (None, Some(b)) => Some(b),
                        (None, None) => None,
                    }
                })
                .min();
            let Some(t) = earliest else {
                let stuck: Vec<&str> = live.iter().map(|&i| st.slots[i].name.as_str()).collect();
                st.failed = Some(format!(
                    "global deadlock: every live thread is blocked with no deadline ({})",
                    stuck.join(", ")
                ));
                // Wake everyone so they observe `failed` and unwind.
                for i in 0..st.slots.len() {
                    if st.slots[i].status == Status::Blocked {
                        st.slots[i].status = Status::Ready;
                        st.slots[i].wake = WakeReason::TimedOut;
                        st.slots[i].park.grant();
                    }
                }
                return;
            };
            st.vnow_ns = st.vnow_ns.max(t);
            VNOW_NS.store(st.vnow_ns, Ordering::Relaxed);
            Self::release_due(st);
        }
    }

    /// Make every blocked slot whose deadline or fault-delayed wake is due at
    /// the current virtual time `Ready`. Runs wherever the clock advances: in
    /// [`Scheduler::yield_at`], so a busy peer cannot hold a due waiter back,
    /// and in [`Scheduler::grant_next`] when it jumps the clock.
    fn release_due(st: &mut State) {
        let now = st.vnow_ns;
        for s in st.slots.iter_mut().filter(|s| s.status == Status::Blocked) {
            let timed_out = s.deadline_ns.is_some_and(|d| d <= now);
            let released = s.forced_release_ns.is_some_and(|d| d <= now);
            if timed_out || released {
                s.status = Status::Ready;
                s.wake = if timed_out && !released {
                    WakeReason::TimedOut
                } else {
                    WakeReason::Notified
                };
            }
        }
    }

    /// Choose the next slot to run among Ready ones (plus `including`, the
    /// yielding thread itself). Round-robin from the cursor, with a seeded
    /// chance of a uniformly random pick instead.
    fn pick_next(&self, st: &mut State, including: Option<usize>) -> Option<usize> {
        let n = st.slots.len();
        let candidate =
            |st: &State, i: usize| st.slots[i].status == Status::Ready || including == Some(i);
        let count = (0..n).filter(|&i| candidate(st, i)).count();
        if count == 0 {
            return None;
        }
        let perturb = (self.next_rand(st) % 1000) < self.cfg.perturb_permille as u64;
        if perturb && count > 1 {
            let k = (self.next_rand(st) % count as u64) as usize;
            return (0..n).filter(|&i| candidate(st, i)).nth(k);
        }
        // Round-robin: first candidate strictly after the cursor, wrapping.
        let start = st.rr;
        (1..=n).map(|d| (start + d) % n).find(|&i| candidate(st, i))
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn run_counter_scenario(seed: u64) -> (Vec<SimEvent>, Vec<usize>) {
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
        for t in 0..3usize {
            let order = Arc::clone(&order);
            roots.push((
                format!("w{t}"),
                Box::new(move || {
                    for _ in 0..5 {
                        yield_point(Site::DriverStep);
                        order.lock().unwrap().push(t);
                    }
                }),
            ));
        }
        let run = Scheduler::run(SimConfig::new(seed), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        let order = Arc::try_unwrap(order).unwrap().into_inner().unwrap();
        (run.trace, order)
    }

    #[test]
    fn same_seed_same_trace_and_order() {
        let (t1, o1) = run_counter_scenario(42);
        let (t2, o2) = run_counter_scenario(42);
        assert_eq!(t1, t2, "traces must be byte-identical per seed");
        assert_eq!(o1, o2, "side-effect order must be identical per seed");
        let (_, o3) = run_counter_scenario(43);
        // Overwhelmingly likely to differ; if a new seed ever collides,
        // pick another — the point is seeds drive the schedule.
        assert_ne!(o1, o3, "different seeds should explore different orders");
    }

    #[test]
    fn block_and_notify_round_trip() {
        let flag = Arc::new(AtomicBool::new(false));
        let key = 0x1234usize;
        let f1 = Arc::clone(&flag);
        let f2 = Arc::clone(&flag);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![
            (
                "waiter".into(),
                Box::new(move || {
                    while !f1.load(Ordering::Relaxed) {
                        let r = block(Site::LockWait, key, None);
                        assert_ne!(r, WakeReason::NotSim);
                    }
                }),
            ),
            (
                "notifier".into(),
                Box::new(move || {
                    yield_point(Site::DriverStep);
                    f2.store(true, Ordering::Relaxed);
                    notify(Site::LockWait, key);
                }),
            ),
        ];
        let run = Scheduler::run(SimConfig::new(7), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn deadline_fires_in_virtual_time() {
        let woke = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woke);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![(
            "sleeper".into(),
            Box::new(move || {
                let start = now();
                let r = block(Site::LockWait, 99, Some(now() + Duration::from_secs(10)));
                assert_eq!(r, WakeReason::TimedOut);
                assert!(now().duration_since(start) >= Duration::from_secs(10));
                w.store(1, Ordering::Relaxed);
            }),
        )];
        let run = Scheduler::run(SimConfig::new(3), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert_eq!(woke.load(Ordering::Relaxed), 1);
        // The 10-virtual-second sleep must not take 10 real seconds; the
        // scheduler jumps time. (If it did sleep for real, the test harness
        // timeout would catch it anyway.)
    }

    /// A timed waiter wakes when it comes due even while another thread
    /// never blocks: one thread yields in a loop, a second waits with a
    /// deadline, a third gets a delayed notify. Both wake within one quantum
    /// of their due time.
    #[test]
    fn due_waiters_wake_while_another_thread_yields() {
        let cfg = SimConfig {
            perturb_permille: 0,
            delay_wakeup_permille: 1000,
            max_delay_ns: 50_000,
            ..SimConfig::new(5)
        };
        // How late each waiter woke, in virtual ns (MAX = never).
        let late = Arc::new([AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)]);
        let notify_due = Arc::new(AtomicU64::new(0));
        let parked = Arc::new(AtomicBool::new(false));
        let vnow = || VNOW_NS.load(Ordering::Relaxed);
        let (l0, l1, l2) = (Arc::clone(&late), Arc::clone(&late), Arc::clone(&late));
        let (due1, due2) = (Arc::clone(&notify_due), Arc::clone(&notify_due));
        let (p1, p2) = (Arc::clone(&parked), Arc::clone(&parked));
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![
            (
                "yielder".into(),
                Box::new(move || {
                    while !p1.load(Ordering::Relaxed) {
                        yield_point(Site::DriverStep);
                    }
                    notify(Site::LockWait, 0x77);
                    let sched = current_scheduler().expect("in a run");
                    let due = sched.lock_state().slots[2].forced_release_ns;
                    due1.store(due.expect("the notify was delayed"), Ordering::Relaxed);
                    let give_up = vnow() + 5_000_000;
                    while l0.iter().any(|l| l.load(Ordering::Relaxed) == u64::MAX)
                        && vnow() < give_up
                    {
                        yield_point(Site::DriverStep);
                    }
                }),
            ),
            (
                "deadline".into(),
                Box::new(move || {
                    let due = vnow() + 20_000;
                    let r = block(
                        Site::LockWait,
                        0x55,
                        Some(now() + Duration::from_nanos(20_000)),
                    );
                    assert_eq!(r, WakeReason::TimedOut);
                    l1[0].store(vnow() - due, Ordering::Relaxed);
                }),
            ),
            (
                "notified".into(),
                Box::new(move || {
                    p2.store(true, Ordering::Relaxed);
                    let r = block(Site::LockWait, 0x77, None);
                    assert_eq!(r, WakeReason::Notified);
                    l2[1].store(vnow() - due2.load(Ordering::Relaxed), Ordering::Relaxed);
                }),
            ),
        ];
        let run = Scheduler::run(cfg, roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert!(run.panics.is_empty(), "{:?}", run.panics);
        for (who, l) in ["deadline", "delayed notify"].iter().zip(late.iter()) {
            let l = l.load(Ordering::Relaxed);
            assert!(l <= QUANTUM_NS, "{who} waiter woke {l} ns after it was due");
        }
    }

    #[test]
    fn global_deadlock_is_detected_not_hung() {
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![(
            "stuck".into(),
            Box::new(|| {
                let _ = block(Site::LockWait, 5, None); // nothing ever notifies
                panic!("unreachable: scheduler must fail the run first");
            }),
        )];
        let run = Scheduler::run(SimConfig::new(1), roots);
        assert!(run.failed.is_some(), "deadlock must be reported");
    }

    #[test]
    fn dropped_wakeups_fall_back_to_timeouts() {
        let cfg = SimConfig {
            drop_wakeup_permille: 1000, // drop every deadline-carrying notify
            ..SimConfig::new(11)
        };
        let done = Arc::new(AtomicBool::new(false));
        let d1 = Arc::clone(&done);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![
            (
                "waiter".into(),
                Box::new(move || {
                    let r = block(Site::LockWait, 77, Some(now() + Duration::from_millis(50)));
                    assert_eq!(r, WakeReason::TimedOut, "notify was dropped");
                    d1.store(true, Ordering::Relaxed);
                }),
            ),
            (
                "notifier".into(),
                Box::new(|| {
                    yield_point(Site::DriverStep);
                    notify(Site::LockWait, 77);
                }),
            ),
        ];
        let run = Scheduler::run(cfg, roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert!(done.load(Ordering::Relaxed));
    }

    #[test]
    fn real_mode_hooks_are_inert() {
        // `enabled()` is process-global: hold the run lock so a sibling
        // test's `Scheduler::run` cannot flip it (and swap `now()` to the
        // virtual clock) while this test asserts real-mode behaviour.
        let _no_run = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        assert!(!is_sim_thread());
        yield_point(Site::CommitOrder);
        notify(Site::LockWait, 1);
        assert_eq!(block(Site::LockWait, 1, None), WakeReason::NotSim);
        let a = now();
        let b = Instant::now();
        assert!(b >= a);
    }

    #[test]
    fn panicking_thread_does_not_stop_the_others() {
        let survived = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&survived);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![
            (
                "crasher".into(),
                Box::new(|| {
                    yield_point(Site::DriverStep);
                    panic!("injected crash");
                }),
            ),
            (
                "survivor".into(),
                Box::new(move || {
                    for _ in 0..10 {
                        yield_point(Site::DriverStep);
                    }
                    s.store(true, Ordering::Relaxed);
                }),
            ),
        ];
        let run = Scheduler::run(SimConfig::new(21), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert!(survived.load(Ordering::Relaxed));
        assert_eq!(run.panics.len(), 1);
        assert!(run.panics[0].contains("injected crash"));
    }

    #[test]
    fn spawned_children_join_the_schedule() {
        let total = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&total);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![(
            "parent".into(),
            Box::new(move || {
                let mut hs = Vec::new();
                for c in 0..2 {
                    let t = Arc::clone(&t);
                    hs.push(spawn_thread(format!("child-{c}"), move || {
                        for _ in 0..3 {
                            yield_point(Site::DriverStep);
                            t.fetch_add(1, Ordering::Relaxed);
                        }
                    }));
                }
                for _ in 0..5 {
                    yield_point(Site::DriverStep);
                }
            }),
        )];
        let run = Scheduler::run(SimConfig::new(9), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn sim_thread_can_join_its_children() {
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![(
            "parent".into(),
            Box::new(move || {
                let d2 = Arc::clone(&d);
                let h = spawn_thread("child".into(), move || {
                    for _ in 0..20 {
                        yield_point(Site::DriverStep);
                    }
                    d2.store(true, Ordering::Relaxed);
                });
                // Direct h.join() here would deadlock the run (OS block while
                // holding the token); the cooperative wait must come first.
                join_thread(&h);
                assert!(d.load(Ordering::Relaxed), "child ran to completion");
                let _ = h.join();
            }),
        )];
        let run = Scheduler::run(SimConfig::new(17), roots);
        assert!(run.failed.is_none(), "{:?}", run.failed);
        assert!(done.load(Ordering::Relaxed));
    }
}
