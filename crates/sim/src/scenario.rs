//! The simulated workloads: each scenario builds an engine, runs a seeded
//! schedule over it, and checks invariants. Everything a scenario does —
//! thread interleaving, fault timing, workload choices — derives from the one
//! seed, so a failing `(scenario, seed)` pair replays exactly.
//!
//! | scenario  | exercises                               | checks |
//! |-----------|------------------------------------------|--------|
//! | `mix`     | serializable OLTP mix with vacuum steps, retries, wakeup faults, a DEFERRABLE reader parking on safe-snapshot waits | history (snapshot reads, FCW, SG acyclicity), snapshot oracle, no lost safety wake-up |
//! | `crash`   | durable WAL + injected crash/torn-write/fsync faults | acked ⊆ recovered, recovery ≡ independent prefix replay |
//! | `repl`    | §8.4 metadata shipping + replica catch-up/reconnect | atomic-capture invariant (every in-flight serializable r/w is named in the record's `concurrent_rw`), no panics |
//! | `pool`    | session pool + wire protocol under sim   | protocol responses, final row values, clean shutdown |
//! | `cluster` | sharded engine, cross-shard 2PC yield edges | per-shard projected histories, merged cross-shard SG acyclicity, 2PC hygiene, fast-path invariant |
//! | `pivot`   | write-skew battering (optionally with the historical pivot-precommit race re-enabled) | history SG acyclicity |
//!
//! `pivot` takes an `emulate` flag that re-introduces a historical race
//! behind its gate; the regression tests assert the harness *finds* the bug
//! on some seed with the flag on and stays clean with it off.
//!
//! An in-memory database keeps no log, so the scenarios that are not about
//! durability ask for one explicitly ([`logged_db`]): the log's
//! `durable-append` / `wal-append` yield points sit inside the commit path,
//! and the interleavings they allow are coverage.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pgssi_common::sim::{self, Scheduler, SimConfig, SimRun, Site};
use pgssi_common::{row, EngineConfig, ServerConfig, TxnId, Value};
use pgssi_engine::{
    decode_commit, with_retries, BeginOptions, Database, IsolationLevel, RedoOp, Replica,
    ShardedDatabase, TableDef, Transaction, WalRecord,
};
use pgssi_server::{Server, Transport};
use pgssi_storage::{MemWalStore, TxnStatus};

use crate::fault::{FaultPlan, SimWalStore};
use crate::history::{self, CommittedTxn, History};

/// Client-acknowledged commits in the crash scenario: txid plus the rows the
/// transaction wrote, for the acked-implies-recovered check.
type Acked = Arc<Mutex<Vec<(u64, Vec<(i64, i64)>)>>>;

/// A completed scenario run: the raw schedule plus everything that went wrong.
pub struct Outcome {
    /// The scheduler's deterministic record of the run.
    pub run: SimRun,
    /// Invariant violations (empty = the seed passed).
    pub violations: Vec<String>,
    /// The fault plan in force, for reports.
    pub plan: FaultPlan,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn next(rng: &mut u64) -> u64 {
    *rng = splitmix64(*rng);
    *rng
}

fn sim_config(seed: u64, plan: &FaultPlan) -> SimConfig {
    SimConfig {
        delay_wakeup_permille: plan.delay_wakeup_permille,
        drop_wakeup_permille: plan.drop_wakeup_permille,
        ..SimConfig::new(seed)
    }
}

/// A default-configuration database over an in-memory log (see the module
/// docs for why the sim wants the log).
fn logged_db() -> Database {
    Database::open_with_store(EngineConfig::default(), Box::new(MemWalStore::new()))
        .expect("an empty log replays clean")
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected Int, got {other:?}"),
    }
}

/// Commit CSN of a committed transaction, from the clog.
fn commit_csn(db: &Database, txid: u64) -> u64 {
    db.txn_manager()
        .clog()
        .commit_csn(TxnId(txid))
        .expect("recorded txn must be committed")
        .0
}

/// Globally unique written value: `(thread, per-thread attempt, key)` is
/// unique and the encoding is injective for key < 1000, attempt < 1e6.
fn uniq_val(thread: usize, attempt: u64, key: i64) -> i64 {
    (thread as i64 + 1) * 1_000_000_000 + attempt as i64 * 1_000 + key
}

/// Create `keys` rows `[k, 1000+k]` in `table` and record the seeding
/// transaction in `hist` so reads of initial values resolve.
fn seed_rows(db: &Database, hist: &History, table: &str, keys: i64) {
    let mut txn = db
        .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
        .unwrap();
    let scsn = txn.snapshot().csn.0;
    let txid = txn.txid().0;
    let mut writes = Vec::new();
    for k in 0..keys {
        txn.insert(table, row![k, 1_000 + k]).unwrap();
        writes.push((k, 1_000 + k));
    }
    txn.commit().unwrap();
    hist.push(CommittedTxn {
        label: "genesis".to_string(),
        txid,
        snapshot_csn: scsn,
        commit_csn: commit_csn(db, txid),
        reads: Vec::new(),
        writes,
    });
}

/// One logical transaction's shape, fixed before the first attempt so every
/// retry re-runs the same ops.
struct OpPlan {
    reads: Vec<i64>,
    write: Option<i64>,
}

fn op_plan(rng: &mut u64, keys: i64) -> OpPlan {
    let pick = |rng: &mut u64| (next(rng) % keys as u64) as i64;
    let a = pick(rng);
    let mut b = pick(rng);
    if b == a {
        b = (b + 1) % keys;
    }
    match next(rng) % 10 {
        // Read-modify-write over two keys (writes the second).
        0..=5 => OpPlan {
            reads: vec![a, b],
            write: Some(b),
        },
        // Write-skew shape (writes the first of the pair it read).
        6..=7 => OpPlan {
            reads: vec![a, b],
            write: Some(a),
        },
        // Read-only.
        _ => OpPlan {
            reads: vec![a, b, pick(rng)],
            write: None,
        },
    }
}

/// One step of a worker's schedule.
enum Step {
    Txn(OpPlan),
    /// `Database::vacuum()`: the heap frees the slots of dead versions and
    /// later updates re-use them, so the history checkers run over chains that
    /// were relinked, and slots that changed rows, under the readers' feet.
    Vacuum,
}

fn next_step(rng: &mut u64, keys: i64) -> Step {
    if next(rng).is_multiple_of(6) {
        Step::Vacuum
    } else {
        Step::Txn(op_plan(rng, keys))
    }
}

/// Run one recorded serializable transaction (with retries) and push it to
/// `hist` if it commits. Gives up silently after the retry budget.
fn run_recorded(
    db: &Database,
    hist: &History,
    plan: &OpPlan,
    label: String,
    thread: usize,
    attempt_ctr: &mut u64,
) {
    let mut rec: Option<CommittedTxn> = None;
    let result = with_retries(
        db,
        BeginOptions::new(IsolationLevel::Serializable),
        8,
        |txn: &mut Transaction| {
            *attempt_ctr += 1;
            let attempt = *attempt_ctr;
            let scsn = txn.snapshot().csn.0;
            let txid = txn.txid().0;
            let mut reads = Vec::new();
            for &k in &plan.reads {
                let r = txn.get("acct", &row![k])?.expect("keys are pre-seeded");
                reads.push((k, int(&r[1])));
            }
            let mut writes = Vec::new();
            if let Some(k) = plan.write {
                let v = uniq_val(thread, attempt, k);
                txn.update("acct", &row![k], row![k, v])?;
                writes.push((k, v));
            }
            rec = Some(CommittedTxn {
                label: label.clone(),
                txid,
                snapshot_csn: scsn,
                commit_csn: 0, // filled in after commit
                reads,
                writes,
            });
            Ok(())
        },
    );
    match result {
        Ok(_) => {
            let mut c = rec.expect("body ran");
            c.commit_csn = commit_csn(db, c.txid);
            hist.push(c);
        }
        Err(e) if e.is_retryable() => {} // budget exhausted: fine, no commit
        Err(e) => panic!("unexpected workload error: {e}"),
    }
}

/// A DEFERRABLE begin that takes this much *virtual* time slept to
/// `wait_for_safety`'s deadline instead of being woken: every writer it can
/// wait on finishes within a few lock-wait timeouts.
const LOST_WAKEUP: std::time::Duration = std::time::Duration::from_secs(1800);

/// One DEFERRABLE READ ONLY transaction (§4.3) reading `keys`, recorded in
/// `hist` like any other. Its begin parks in `wait_for_safety` whenever a
/// read/write transaction is in flight, which puts the register-then-sleep
/// window of the gated safety notify (the waiter counts itself in under the
/// commit-order mutex, drops it, parks; the finisher reads the count under
/// the same mutex) on the seeded schedule. Returns `false` if the begin slept
/// to its deadline — a lost wake-up, unless the fault plan drops wake-ups on
/// purpose.
fn run_deferrable(db: &Database, hist: &History, keys: &[i64], label: String) -> bool {
    let t0 = sim::now();
    let mut txn = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
        .expect("valid options");
    let woken = sim::now() - t0 < LOST_WAKEUP;
    let scsn = txn.snapshot().csn.0;
    let txid = txn.txid().0;
    let mut reads = Vec::new();
    for &k in keys {
        // A safe snapshot never aborts (§4.2).
        let r = txn
            .get("acct", &row![k])
            .expect("safe snapshot")
            .expect("keys are pre-seeded");
        reads.push((k, int(&r[1])));
    }
    txn.commit().expect("safe snapshot");
    hist.push(CommittedTxn {
        label,
        txid,
        snapshot_csn: scsn,
        commit_csn: commit_csn(db, txid),
        reads,
        writes: Vec::new(),
    });
    woken
}

/// Post-run checks shared by the history-recording scenarios: scheduler
/// health, panics, and history invariants.
fn common_checks(hist: &History, run: &SimRun, violations: &mut Vec<String>) {
    if let Some(f) = &run.failed {
        violations.push(format!("scheduler: {f}"));
    }
    for p in &run.panics {
        violations.push(format!("unexpected panic: {p}"));
    }
    violations.extend(history::check(&hist.take()));
}

// ---------------------------------------------------------------------------
// mix
// ---------------------------------------------------------------------------

/// Serializable OLTP mix: `threads` workers, each running `txns` recorded
/// transactions over `keys` hot rows, with seed-derived wakeup faults.
pub fn mix(seed: u64, scale: u32) -> Outcome {
    let mut plan = FaultPlan::from_seed(seed);
    // Storage faults belong to `crash`; here only the wakeup faults apply.
    plan.crash_at_byte = None;
    plan.fail_sync_at = None;

    let threads = 3usize;
    let txns = 6 * scale as usize;
    let keys = 8i64;

    let db = logged_db();
    db.create_table(TableDef::new("acct", &["k", "v"], vec![0]))
        .unwrap();
    let hist = Arc::new(History::new());
    seed_rows(&db, &hist, "acct", keys);

    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for t in 0..threads {
        let db = db.clone();
        let hist = Arc::clone(&hist);
        roots.push((
            format!("mix-{t}"),
            Box::new(move || {
                let mut rng = splitmix64(seed ^ ((t as u64 + 1) << 32));
                let mut attempts = 0u64;
                for j in 0..txns {
                    match next_step(&mut rng, keys) {
                        Step::Txn(plan) => {
                            run_recorded(&db, &hist, &plan, format!("t{t}/{j}"), t, &mut attempts)
                        }
                        Step::Vacuum => {
                            db.vacuum();
                        }
                    }
                }
            }),
        ));
    }
    // A DEFERRABLE reader beside the workers: each begin waits out whatever
    // read/write transactions are in flight (see `run_deferrable`).
    let lost_wakeups = Arc::new(AtomicUsize::new(0));
    {
        let db = db.clone();
        let hist = Arc::clone(&hist);
        let lost = Arc::clone(&lost_wakeups);
        roots.push((
            "mix-defer".to_string(),
            Box::new(move || {
                let mut rng = splitmix64(seed ^ 0xdefe_22ab1e);
                for j in 0..txns / 2 {
                    let ks: Vec<i64> = (0..3)
                        .map(|_| (next(&mut rng) % keys as u64) as i64)
                        .collect();
                    if !run_deferrable(&db, &hist, &ks, format!("defer/{j}")) {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }),
        ));
    }
    let run = Scheduler::run(sim_config(seed, &plan), roots);
    let mut violations = Vec::new();
    common_checks(&hist, &run, &mut violations);
    // With wake-ups dropped on purpose the deadline is the designed way out.
    let lost = lost_wakeups.load(Ordering::Relaxed);
    if lost > 0 && plan.drop_wakeup_permille == 0 {
        violations.push(format!(
            "{lost} DEFERRABLE begin(s) slept to the safe-snapshot deadline: lost wake-up"
        ));
    }
    Outcome {
        run,
        violations,
        plan,
    }
}

// ---------------------------------------------------------------------------
// crash
// ---------------------------------------------------------------------------

/// Durable engine over a [`SimWalStore`] with a guaranteed storage fault;
/// after the simulated crash the engine is "rebooted" from the surviving
/// bytes and compared against an independent prefix-replay oracle.
pub fn crash(seed: u64, scale: u32) -> Outcome {
    let mut plan = FaultPlan::from_seed(seed);
    if plan.crash_at_byte.is_none() && plan.fail_sync_at.is_none() {
        // This scenario exists to crash; give fault-free seeds one anyway.
        plan.crash_at_byte = Some(1024 + splitmix64(seed ^ 0xc4a5) % 6_000);
    }
    let store = SimWalStore::new(&plan, seed);
    let cfg = EngineConfig::default();

    // Setup must always survive: the crash floor keeps byte faults clear of
    // it, and disarming keeps a small `fail_sync_at` from hitting a setup
    // sync (which would panic the harness thread, not a simulated one).
    store.disarm();
    let db = Database::open_with_store(cfg.clone(), Box::new(store.clone()))
        .expect("fresh store opens clean");
    db.create_table(TableDef::new("acct", &["k", "v"], vec![0]))
        .unwrap();
    {
        // Initial rows (inside the crash floor, so they always survive).
        let mut txn = db
            .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
            .unwrap();
        for k in 0..8i64 {
            txn.insert("acct", row![k, 1_000 + k]).unwrap();
        }
        txn.commit().unwrap();
    }

    // Writes acknowledged to the "client": txid plus the rows it wrote.
    let acked: Acked = Arc::new(Mutex::new(Vec::new()));
    let threads = 3usize;
    let txns = 16 * scale as usize;

    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for t in 0..threads {
        let db = db.clone();
        let acked = Arc::clone(&acked);
        roots.push((
            format!("crash-{t}"),
            Box::new(move || {
                let mut rng = splitmix64(seed ^ ((t as u64 + 17) << 24));
                for j in 0..txns {
                    // Mix updates of hot rows with inserts of fresh keys so the
                    // log carries both shapes. A WAL fault panics out of
                    // commit; the scheduler catches it (that IS the crash).
                    let mut txn =
                        match db.begin_with(BeginOptions::new(IsolationLevel::ReadCommitted)) {
                            Ok(t) => t,
                            Err(_) => return,
                        };
                    let writes: Vec<(i64, i64)> = if next(&mut rng).is_multiple_of(3) {
                        let k = 100 + (t as i64) * 1_000 + j as i64;
                        vec![(k, k * 7)]
                    } else {
                        let k = (next(&mut rng) % 8) as i64;
                        vec![(k, uniq_val(t, j as u64 + 1, k))]
                    };
                    let mut ok = true;
                    for &(k, v) in &writes {
                        let done = if k < 100 {
                            txn.update("acct", &row![k], row![k, v]).map(|_| ())
                        } else {
                            txn.insert("acct", row![k, v])
                        };
                        if done.is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        continue; // conflict: dropped txn rolls back
                    }
                    let txid = txn.txid().0;
                    if txn.commit().is_ok() {
                        acked.lock().push((txid, writes));
                    }
                }
            }),
        ));
    }
    store.arm();
    let run = Scheduler::run(sim_config(seed, &plan), roots);
    let mut violations = Vec::new();
    if let Some(f) = &run.failed {
        violations.push(format!("scheduler: {f}"));
    }
    if !run.panics.is_empty() && !store.crashed() {
        for p in &run.panics {
            violations.push(format!("panic without injected crash: {p}"));
        }
    }

    // --- Reboot and compare against the independent oracle. ---
    let bytes = store.surviving_bytes();
    let (frames, _) = SimWalStore::scan(&bytes);

    // Oracle: decode every surviving frame ourselves and replay into a flat
    // model (all scenario tables are (int pk, int value) rows).
    let mut model: std::collections::BTreeMap<String, std::collections::BTreeMap<i64, i64>> =
        std::collections::BTreeMap::new();
    let mut recovered_txids = std::collections::HashSet::new();
    for (lsn, payload) in &frames {
        let Some((txid, ops)) = decode_commit(payload) else {
            violations.push(format!("recovered frame at lsn {lsn} does not decode"));
            continue;
        };
        recovered_txids.insert(txid.0);
        for op in ops {
            match op {
                RedoOp::CreateTable(def) => {
                    model.entry(def.name.clone()).or_default();
                }
                RedoOp::Upsert { table, row } => {
                    model
                        .entry(table)
                        .or_default()
                        .insert(int(&row[0]), int(&row[1]));
                }
                RedoOp::Delete { table, key } => {
                    model.entry(table).or_default().remove(&int(&key[0]));
                }
            }
        }
    }

    // Fault soundness: every acknowledged commit survived the crash.
    for (txid, writes) in acked.lock().iter() {
        if !recovered_txids.contains(txid) {
            violations.push(format!(
                "durability violated: acked txid {txid} (writes {writes:?}) lost in crash"
            ));
        }
    }

    // Recovery ≡ oracle: the rebooted engine's tables must equal the model.
    match Database::open_with_store(cfg, Box::new(SimWalStore::from_bytes(&bytes).clone())) {
        Err(e) => violations.push(format!("recovery failed on surviving bytes: {e}")),
        Ok(db2) => {
            for (table, rows) in &model {
                let mut txn = db2
                    .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
                    .unwrap();
                let mut got: Vec<(i64, i64)> = match txn.scan(table) {
                    Ok(rs) => rs.iter().map(|r| (int(&r[0]), int(&r[1]))).collect(),
                    Err(e) => {
                        violations.push(format!("recovered table {table} unreadable: {e}"));
                        continue;
                    }
                };
                got.sort_unstable();
                let want: Vec<(i64, i64)> = rows.iter().map(|(&k, &v)| (k, v)).collect();
                if got != want {
                    violations.push(format!(
                        "recovery mismatch in {table}: engine {got:?} != oracle {want:?}"
                    ));
                }
            }
        }
    }

    Outcome {
        run,
        violations,
        plan,
    }
}

// ---------------------------------------------------------------------------
// repl
// ---------------------------------------------------------------------------

/// §8.4 replication under sim: read-committed committers ship commit records,
/// serializable racers try to slip between a record's digest and its
/// snapshot, a replica applies/reconnects concurrently. The invariant is the
/// atomic capture of {digest, snapshot, stream position}, checked
/// positionally: every WAL append runs inside the commit-order section, so
/// stream positions totally order those sections. A committed racer whose
/// begin completed at stream length `b` and whose own record sits at `c` was
/// an in-flight serializable read/write transaction when the record at any
/// position `p` with `b <= p < c` was captured — that record must name it in
/// `concurrent_rw` and its snapshot must see it as in progress, or a
/// follower would promote the candidate without waiting for the racer.
pub fn repl(seed: u64, scale: u32) -> Outcome {
    let plan = FaultPlan::none();
    let db = logged_db();
    db.create_table(TableDef::new("acct", &["k", "v"], vec![0]))
        .unwrap();
    {
        let mut txn = db
            .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
            .unwrap();
        for k in 0..8i64 {
            txn.insert("acct", row![k, 1_000 + k]).unwrap();
        }
        txn.commit().unwrap();
    }
    let replica = Replica::connect(&db); // attach first: shipping starts here

    // Committed racers: (txid, wal length right after their begin).
    let racers: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let rounds = 8 * scale as usize;

    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for t in 0..2usize {
        let db = db.clone();
        roots.push((
            format!("committer-{t}"),
            Box::new(move || {
                // Read-committed single-row bumps: every commit ships a
                // record whose digest must name the racers in flight.
                for j in 0..rounds {
                    let Ok(mut txn) =
                        db.begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
                    else {
                        return;
                    };
                    let k = t as i64; // disjoint keys: no write conflicts
                    if txn
                        .update("acct", &row![k], row![k, (j as i64 + 2) * 10])
                        .is_ok()
                    {
                        let _ = txn.commit();
                    }
                }
            }),
        ));
    }
    for t in 0..2usize {
        let db = db.clone();
        let racers = Arc::clone(&racers);
        roots.push((
            format!("racer-{t}"),
            Box::new(move || {
                for j in 0..rounds {
                    let Ok(mut txn) =
                        db.begin_with(BeginOptions::new(IsolationLevel::Serializable))
                    else {
                        return;
                    };
                    let begin_len = db.wal().len();
                    let k = 4 + t as i64;
                    let txid = txn.txid().0;
                    let readable = txn.get("acct", &row![k]).is_ok();
                    if readable
                        && txn
                            .update("acct", &row![k], row![k, uniq_val(t, j as u64 + 1, k)])
                            .is_ok()
                        && txn.commit().is_ok()
                    {
                        racers.lock().push((txid, begin_len));
                    }
                }
            }),
        ));
    }
    {
        let db = db.clone();
        roots.push((
            "replica".to_string(),
            Box::new(move || {
                let mut replica = Replica::connect(&db);
                for round in 0..rounds * 2 {
                    sim::yield_point(Site::DriverStep);
                    replica.catch_up();
                    // Safe queries only ever run on derived snapshots; a
                    // scan through one must not error.
                    if let Some(mut q) = replica.begin_safe_query() {
                        let _ = q.scan("acct");
                    }
                    // Periodic disconnect/reconnect: a fresh replica must
                    // re-derive safety from the stream alone.
                    if round % 5 == 4 {
                        replica = Replica::connect(&db);
                    }
                }
            }),
        ));
    }

    let run = Scheduler::run(sim_config(seed, &plan), roots);
    let mut violations = Vec::new();
    if let Some(f) = &run.failed {
        violations.push(format!("scheduler: {f}"));
    }
    for p in &run.panics {
        violations.push(format!("unexpected panic: {p}"));
    }

    // Positional atomic-capture invariant over the shipped stream.
    let records = db.wal().read_from(0);
    for &(txid, begin_len) in racers.lock().iter() {
        let Some(cpos) = records
            .iter()
            .position(|r| matches!(r, WalRecord::Commit { txid: t, .. } if t.0 == txid))
        else {
            violations.push(format!(
                "committed racer txid {txid} has no commit record in the stream"
            ));
            continue;
        };
        for (pos, r) in records.iter().enumerate().take(cpos).skip(begin_len) {
            let WalRecord::Commit {
                meta: (snapshot, digest),
                ..
            } = r
            else {
                continue;
            };
            if !digest.concurrent_rw.contains(&TxnId(txid)) {
                violations.push(format!(
                    "capture race: commit record at stream position {pos} does not name \
                     racer txid {txid} (in flight over [{begin_len}, {cpos})) as concurrent"
                ));
            }
            let sees_racer = matches!(
                db.txn_manager().status(TxnId(txid)),
                TxnStatus::Committed(c) if snapshot.committed_before(c)
            );
            if sees_racer {
                violations.push(format!(
                    "capture race: the snapshot shipped at stream position {pos} already \
                     sees racer txid {txid}, in flight over [{begin_len}, {cpos})"
                ));
            }
        }
    }
    // The standing replica must be able to drain the final stream.
    replica.catch_up();

    Outcome {
        run,
        violations,
        plan,
    }
}

// ---------------------------------------------------------------------------
// pivot
// ---------------------------------------------------------------------------

/// Write-skew battering plus a choreographed three-transaction rw-cycle.
///
/// The write-skew pairs exercise the ordinary pivot machinery (one of each
/// colliding pair must abort). The trio reproduces the PR 4 precommit race:
/// A reads the key B writes, B reads the key C writes, C reads the key A
/// writes — a pure 3-cycle of rw-antidependencies where C commits first, so
/// B is the pivot the commit-ordering rule must abort. The choreography
/// arranges B's in-edge (A rw→ B) to be flagged only after C's precommit
/// checks have run, and B's own precommit to land inside C's commit-order
/// section between C's CSN assignment and the fold of that CSN into B's
/// out-conflict bound (`Site::CsnFold`). There every check legitimately sees
/// no danger except the order-mutex-authoritative re-check at B's commit —
/// with `emulate` that re-check is skipped (the historical bug) and all three
/// commit, which the history checker reports as a serialization-graph cycle.
pub fn pivot(seed: u64, scale: u32, emulate: bool) -> Outcome {
    let plan = FaultPlan::none();
    let db = logged_db();
    db.create_table(TableDef::new("acct", &["k", "v"], vec![0]))
        .unwrap();
    let hist = Arc::new(History::new());
    let pairs = 2i64;
    seed_rows(&db, &hist, "acct", pairs * 2);
    seed_trio_rows(&db, &hist);
    if emulate {
        db.ssi().set_emulate_pivot_race(true);
    }
    let rounds = 6 * scale as usize;

    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for p in 0..pairs {
        for side in 0..2i64 {
            let db = db.clone();
            let hist = Arc::clone(&hist);
            let t = (p * 2 + side) as usize;
            roots.push((
                format!("skew-{p}-{side}"),
                Box::new(move || {
                    let (x, y) = (p * 2, p * 2 + 1);
                    let write = if side == 0 { x } else { y };
                    for j in 0..rounds {
                        // Single attempt, no retries: we want the raw
                        // collision, and aborts are expected.
                        let Ok(mut txn) =
                            db.begin_with(BeginOptions::new(IsolationLevel::Serializable))
                        else {
                            return;
                        };
                        let scsn = txn.snapshot().csn.0;
                        let txid = txn.txid().0;
                        let mut reads = Vec::new();
                        let mut ok = true;
                        for k in [x, y] {
                            match txn.get("acct", &row![k]) {
                                Ok(Some(r)) => reads.push((k, int(&r[1]))),
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        let v = uniq_val(t, j as u64 + 1, write);
                        if txn.update("acct", &row![write], row![write, v]).is_err() {
                            continue;
                        }
                        if txn.commit().is_ok() {
                            hist.push(CommittedTxn {
                                label: format!("skew{p}.{side}/{j}"),
                                txid,
                                snapshot_csn: scsn,
                                commit_csn: commit_csn(&db, txid),
                                reads,
                                writes: vec![(write, v)],
                            });
                        }
                    }
                }),
            ));
        }
    }
    for root in trio_roots(&db, &hist, 3 * scale as usize) {
        roots.push(root);
    }
    let run = Scheduler::run(sim_config(seed, &plan), roots);
    let mut violations = Vec::new();
    common_checks(&hist, &run, &mut violations);
    Outcome {
        run,
        violations,
        plan,
    }
}

/// Trio keys: A writes [`KW`], B (the pivot) writes [`KR`], C writes [`KB`].
const KW: i64 = 100;
const KR: i64 = 101;
const KB: i64 = 102;

/// Seed the trio's rows, recorded so initial-value reads resolve.
fn seed_trio_rows(db: &Database, hist: &History) {
    let mut txn = db
        .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
        .unwrap();
    let scsn = txn.snapshot().csn.0;
    let txid = txn.txid().0;
    let mut writes = Vec::new();
    for k in [KW, KR, KB] {
        txn.insert("acct", row![k, 1_000 + k]).unwrap();
        writes.push((k, 1_000 + k));
    }
    txn.commit().unwrap();
    hist.push(CommittedTxn {
        label: "genesis-trio".to_string(),
        txid,
        snapshot_csn: scsn,
        commit_csn: commit_csn(db, txid),
        reads: Vec::new(),
        writes,
    });
}

/// Cooperative spin on scenario-level staging: sim threads must never
/// OS-block on one another outside the engine's sim-aware parking sites.
fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        sim::yield_point(Site::DriverStep);
    }
}

/// Per-round stage counters for the 3-cycle choreography. Each stage is the
/// number of the last round that completed it, so one set of counters serves
/// every round without resets.
#[derive(Default)]
struct TrioStages {
    begun: [AtomicUsize; 3],
    b_read: AtomicUsize,       // B read KB
    c_wrote: AtomicUsize,      // C read KW + wrote KB
    a_done: AtomicUsize,       // A wrote KW + read KR
    c_committing: AtomicUsize, // C is entering commit()
    b_finished: AtomicUsize,   // B's commit attempt resolved
    done: [AtomicUsize; 3],
}

/// The three choreographed roots. Round r (1-based in the counters):
/// all begin (concurrent snapshots) → B reads KB → C reads KW, writes KB →
/// A writes KW, reads KR → C announces and commits (first) → B writes KR and
/// commits → A commits. Every mis-timed round resolves as a clean abort of
/// one participant; the dangerous window only opens when B's write + precommit
/// land inside C's CsnFold window.
fn trio_roots(
    db: &Database,
    hist: &Arc<History>,
    rounds: usize,
) -> Vec<(String, Box<dyn FnOnce() + Send>)> {
    let stages = Arc::new(TrioStages::default());
    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for role in 0..3usize {
        let db = db.clone();
        let hist = Arc::clone(hist);
        let st = Arc::clone(&stages);
        let name = ["cycle3-a", "cycle3-b", "cycle3-c"][role];
        roots.push((
            name.to_string(),
            Box::new(move || {
                for r in 1..=rounds {
                    let Ok(mut txn) =
                        db.begin_with(BeginOptions::new(IsolationLevel::Serializable))
                    else {
                        return;
                    };
                    let scsn = txn.snapshot().csn.0;
                    let txid = txn.txid().0;
                    st.begun[role].store(r, Ordering::Release);
                    spin_until(|| st.begun.iter().all(|b| b.load(Ordering::Acquire) >= r));
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    let mut ok = true;
                    match role {
                        // B, the pivot: reads KB early, writes KR only once C
                        // is already committing.
                        1 => {
                            match txn.get("acct", &row![KB]) {
                                Ok(Some(row)) => reads.push((KB, int(&row[1]))),
                                _ => ok = false,
                            }
                            st.b_read.store(r, Ordering::Release);
                            spin_until(|| st.c_committing.load(Ordering::Acquire) >= r);
                            if ok {
                                let v = uniq_val(5, r as u64, KR);
                                if txn.update("acct", &row![KR], row![KR, v]).is_ok() {
                                    writes.push((KR, v));
                                } else {
                                    ok = false;
                                }
                            }
                            if ok && txn.commit().is_ok() {
                                hist.push(CommittedTxn {
                                    label: format!("cycle3-b/{r}"),
                                    txid,
                                    snapshot_csn: scsn,
                                    commit_csn: commit_csn(&db, txid),
                                    reads: reads.clone(),
                                    writes: writes.clone(),
                                });
                            }
                            st.b_finished.store(r, Ordering::Release);
                        }
                        // C: commits first; its CsnFold window is the race.
                        2 => {
                            spin_until(|| st.b_read.load(Ordering::Acquire) >= r);
                            match txn.get("acct", &row![KW]) {
                                Ok(Some(row)) => reads.push((KW, int(&row[1]))),
                                _ => ok = false,
                            }
                            let v = uniq_val(6, r as u64, KB);
                            if ok && txn.update("acct", &row![KB], row![KB, v]).is_ok() {
                                writes.push((KB, v));
                            } else {
                                ok = false;
                            }
                            st.c_wrote.store(r, Ordering::Release);
                            spin_until(|| st.a_done.load(Ordering::Acquire) >= r);
                            st.c_committing.store(r, Ordering::Release);
                            if ok && txn.commit().is_ok() {
                                hist.push(CommittedTxn {
                                    label: format!("cycle3-c/{r}"),
                                    txid,
                                    snapshot_csn: scsn,
                                    commit_csn: commit_csn(&db, txid),
                                    reads: reads.clone(),
                                    writes: writes.clone(),
                                });
                            }
                        }
                        // A: writes KW (completing C's in-edge), reads KR
                        // (the future A rw→ B edge), commits last.
                        _ => {
                            spin_until(|| st.c_wrote.load(Ordering::Acquire) >= r);
                            let v = uniq_val(4, r as u64, KW);
                            if txn.update("acct", &row![KW], row![KW, v]).is_ok() {
                                writes.push((KW, v));
                            } else {
                                ok = false;
                            }
                            match txn.get("acct", &row![KR]) {
                                Ok(Some(row)) => reads.push((KR, int(&row[1]))),
                                _ => ok = false,
                            }
                            st.a_done.store(r, Ordering::Release);
                            spin_until(|| st.b_finished.load(Ordering::Acquire) >= r);
                            if ok && txn.commit().is_ok() {
                                hist.push(CommittedTxn {
                                    label: format!("cycle3-a/{r}"),
                                    txid,
                                    snapshot_csn: scsn,
                                    commit_csn: commit_csn(&db, txid),
                                    reads: reads.clone(),
                                    writes: writes.clone(),
                                });
                            }
                        }
                    }
                    st.done[role].store(r, Ordering::Release);
                    spin_until(|| st.done.iter().all(|d| d.load(Ordering::Acquire) >= r));
                }
            }),
        ));
    }
    roots
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

/// Hash-partitioned cluster under sim: serializable workers over a two-shard
/// [`ShardedDatabase`], the seed deciding interleavings around the 2PC yield
/// points (`Site::TwoPhasePrepare` inside branch PREPARE,
/// `Site::TwoPhaseResolve` inside COMMIT/ROLLBACK PREPARED).
///
/// Checks, in order of strength:
/// 1. each shard's *projected* history passes the full single-domain
///    invariants (snapshot reads, first-committer-wins, SG acyclicity) with
///    that shard's own CSNs;
/// 2. the **merged** cross-shard serialization graph is acyclic — per-shard
///    projections can each look serializable while their union is the
///    distributed write skew the coordinator's conservative rule must break;
/// 3. 2PC hygiene: no in-doubt gids survive the run;
/// 4. the fast-path invariant: coordinator enlistments == cross-shard
///    completions (single-shard transactions never touch the coordinator).
pub fn cluster(seed: u64, scale: u32) -> Outcome {
    let mut plan = FaultPlan::from_seed(seed);
    // Storage faults belong to `crash`; here only the wakeup faults apply.
    plan.crash_at_byte = None;
    plan.fail_sync_at = None;

    let shards = 2usize;
    let threads = 3usize;
    let txns = 6 * scale as usize;
    let keys = 8i64;

    let c = ShardedDatabase::from_shards((0..shards).map(|_| logged_db()).collect());
    c.create_table(TableDef::new("acct", &["k", "v"], vec![0]))
        .unwrap();
    let hists: Arc<Vec<History>> = Arc::new((0..shards).map(|_| History::new()).collect());

    // Seed the rows through the cluster API (a cross-shard transaction
    // itself), recording each shard's projection as that shard's genesis.
    {
        let mut txn = c.begin(IsolationLevel::Serializable);
        let mut writes: Vec<Vec<(i64, i64)>> = vec![Vec::new(); shards];
        for k in 0..keys {
            txn.insert("acct", row![k, 1_000 + k]).unwrap();
            writes[c.router().route("acct", &row![k])].push((k, 1_000 + k));
        }
        let metas: Vec<(usize, u64, u64)> = txn
            .enlisted()
            .iter()
            .map(|&(s, txid)| (s, txid.0, txn.branch_ref(s).unwrap().snapshot().csn.0))
            .collect();
        txn.commit().unwrap();
        for (s, txid, scsn) in metas {
            hists[s].push(CommittedTxn {
                label: "genesis".to_string(),
                txid,
                snapshot_csn: scsn,
                commit_csn: commit_csn(c.shard(s), txid),
                reads: Vec::new(),
                writes: std::mem::take(&mut writes[s]),
            });
        }
    }

    let mut roots: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for t in 0..threads {
        let c = c.clone();
        let hists = Arc::clone(&hists);
        roots.push((
            format!("cluster-{t}"),
            Box::new(move || {
                let mut rng = splitmix64(seed ^ ((t as u64 + 3) << 40));
                let mut attempts = 0u64;
                for j in 0..txns {
                    match next_step(&mut rng, keys) {
                        Step::Txn(plan) => run_recorded_sharded(
                            &c,
                            &hists,
                            &plan,
                            format!("c{t}/{j}"),
                            t,
                            &mut attempts,
                        ),
                        Step::Vacuum => {
                            for s in 0..c.shards() {
                                c.shard(s).vacuum();
                            }
                        }
                    }
                }
            }),
        ));
    }
    let run = Scheduler::run(sim_config(seed, &plan), roots);

    let mut violations = Vec::new();
    if let Some(f) = &run.failed {
        violations.push(format!("scheduler: {f}"));
    }
    for p in &run.panics {
        violations.push(format!("unexpected panic: {p}"));
    }
    let per_shard: Vec<Vec<CommittedTxn>> = hists.iter().map(|h| h.take()).collect();
    for (s, h) in per_shard.iter().enumerate() {
        for v in history::check(h) {
            violations.push(format!("shard {s}: {v}"));
        }
    }
    violations.extend(history::check_merged_acyclic(&per_shard));
    let in_doubt = c.prepared_gids();
    if !in_doubt.is_empty() {
        violations.push(format!("2PC left in-doubt transactions: {in_doubt:?}"));
    }
    let stats = c.cluster_stats();
    let cross = stats.cross_shard_commits.get() + stats.cross_shard_aborts.get();
    if stats.coordinator_enlistments.get() != cross {
        violations.push(format!(
            "fast-path invariant: {} coordinator enlistments vs {} cross-shard completions",
            stats.coordinator_enlistments.get(),
            cross
        ));
    }
    Outcome {
        run,
        violations,
        plan,
    }
}

/// Run one recorded serializable transaction against the cluster (manual
/// retry loop — [`with_retries`] is single-database) and push each shard's
/// projection, with that shard's CSNs, on commit. Gives up silently after the
/// retry budget.
fn run_recorded_sharded(
    c: &ShardedDatabase,
    hists: &[History],
    plan: &OpPlan,
    label: String,
    thread: usize,
    attempt_ctr: &mut u64,
) {
    'retry: for _ in 0..8 {
        *attempt_ctr += 1;
        let attempt = *attempt_ctr;
        let Ok(mut txn) = c.begin_with(BeginOptions::new(IsolationLevel::Serializable)) else {
            return;
        };
        let mut reads = Vec::new();
        for &k in &plan.reads {
            match txn.get("acct", &row![k]) {
                Ok(Some(r)) => reads.push((k, int(&r[1]))),
                Ok(None) => panic!("keys are pre-seeded"),
                Err(e) if e.is_retryable() => continue 'retry,
                Err(e) => panic!("unexpected workload error: {e}"),
            }
        }
        let mut writes = Vec::new();
        if let Some(k) = plan.write {
            let v = uniq_val(thread, attempt, k);
            match txn.update("acct", &row![k], row![k, v]) {
                Ok(_) => writes.push((k, v)),
                Err(e) if e.is_retryable() => continue 'retry,
                Err(e) => panic!("unexpected workload error: {e}"),
            }
        }
        // Capture per-branch identities before commit consumes the handle.
        let metas: Vec<(usize, u64, u64)> = txn
            .enlisted()
            .iter()
            .map(|&(s, txid)| (s, txid.0, txn.branch_ref(s).unwrap().snapshot().csn.0))
            .collect();
        match txn.commit() {
            Ok(()) => {
                for (s, txid, scsn) in metas {
                    let project = |ops: &[(i64, i64)]| -> Vec<(i64, i64)> {
                        ops.iter()
                            .filter(|&&(k, _)| c.router().route("acct", &row![k]) == s)
                            .copied()
                            .collect()
                    };
                    hists[s].push(CommittedTxn {
                        label: label.clone(),
                        txid,
                        snapshot_csn: scsn,
                        commit_csn: commit_csn(c.shard(s), txid),
                        reads: project(&reads),
                        writes: project(&writes),
                    });
                }
                return;
            }
            Err(e) if e.is_retryable() => continue 'retry,
            Err(e) => panic!("unexpected commit error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// pool
// ---------------------------------------------------------------------------

/// The full server stack under sim: a [`Server`] whose pool workers are sim
/// threads, driven by in-process wire-protocol clients (also sim threads)
/// polling `try_recv` cooperatively. Checks protocol responses, final row
/// state, and that shutdown joins cleanly inside the simulation.
pub fn pool(seed: u64, scale: u32) -> Outcome {
    let plan = FaultPlan::from_seed(seed);
    let db = logged_db();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let clients = 4usize;
    let txns = 4 * scale as usize;
    let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let driver_db = db.clone();
    let driver_errors = Arc::clone(&errors);
    let roots: Vec<(String, Box<dyn FnOnce() + Send>)> = vec![(
        "driver".to_string(),
        Box::new(move || {
            // Created inside the sim: the pool's workers become sim threads.
            let server = Server::new(
                driver_db,
                ServerConfig {
                    workers: 2,
                    max_sessions: 16,
                    ..ServerConfig::default()
                },
            );
            let mut handles = Vec::new();
            for c in 0..clients {
                let session = server.connect().expect("under max_sessions");
                let errors = Arc::clone(&driver_errors);
                handles.push(sim::spawn_thread(format!("client-{c}"), move || {
                    let roundtrip = |line: &str| -> String {
                        session.send(line).expect("in-process send");
                        // Cooperative poll: a blocking recv would hold the
                        // run token while the pool needs it to respond.
                        let deadline = sim::now() + std::time::Duration::from_secs(30);
                        loop {
                            match session.try_recv().expect("session alive") {
                                Some(resp) => return resp,
                                None if sim::now() > deadline => {
                                    panic!("client {line:?} timed out")
                                }
                                None => sim::yield_point(Site::DriverStep),
                            }
                        }
                    };
                    for j in 0..txns {
                        let k = c; // disjoint keys: conflicts are not the point
                        let v = (c + 1) * 1_000 + j;
                        let bad = |what: &str, got: String| {
                            errors
                                .lock()
                                .push(format!("client {c} txn {j}: {what} -> {got}"))
                        };
                        let r = roundtrip("BEGIN");
                        if r != "OK" {
                            bad("BEGIN", r);
                            continue;
                        }
                        let r = roundtrip(&format!("PUT kv {k} {v}"));
                        if r != "OK" {
                            bad("PUT", r);
                        }
                        let r = roundtrip(&format!("GET kv {k}"));
                        if r != format!("ROW {k} {v}") {
                            bad("GET", r);
                        }
                        let r = roundtrip("COMMIT");
                        // Disjoint keys: serialization failures impossible.
                        if r != "OK" {
                            bad("COMMIT", r);
                        }
                    }
                }));
            }
            for h in handles {
                sim::join_thread(&h);
                let _ = h.join();
            }
            // Exercises the sim-aware worker join path.
            server.shutdown();
        }),
    )];

    let run = Scheduler::run(sim_config(seed, &plan), roots);
    let mut violations = std::mem::take(&mut *errors.lock());
    if let Some(f) = &run.failed {
        violations.push(format!("scheduler: {f}"));
    }
    for p in &run.panics {
        violations.push(format!("unexpected panic: {p}"));
    }
    // Final state: each client's key holds its last committed value.
    let mut txn = db
        .begin_with(BeginOptions::new(IsolationLevel::ReadCommitted))
        .unwrap();
    for c in 0..clients {
        let want = (c as i64 + 1) * 1_000 + (txns as i64 - 1);
        match txn.get("kv", &row![c as i64]) {
            Ok(Some(r)) if int(&r[1]) == want => {}
            other => violations.push(format!("client {c}: final value {other:?}, wanted {want}")),
        }
    }

    Outcome {
        run,
        violations,
        plan,
    }
}
