//! Feature interactions from §7: two-phase commit (with crash recovery and the
//! degraded safe-retry case), streaming replication (§8.4 metadata shipping —
//! the concurrent suite and the race regression tests cover it in depth), the
//! §6 serial-table bound, and deferrable transactions.

use pgssi_common::{row, EngineConfig, SsiConfig, TxnId, Value};
use pgssi_engine::{BeginOptions, Database, IsolationLevel, Replica, TableDef, Transaction};
use pgssi_storage::clog::TxnStatus;

fn kv_db() -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    db
}

// ---------------------------------------------------------------------------
// Two-phase commit (§7.1)
// ---------------------------------------------------------------------------

#[test]
fn prepare_then_commit_prepared_publishes_effects() {
    let db = kv_db();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.insert("kv", row![1, 10]).unwrap();
    t.prepare("gid-1").unwrap();
    assert_eq!(db.prepared_gids(), vec!["gid-1".to_string()]);

    // Invisible while prepared.
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &row![1]).unwrap(), None);
    r.commit().unwrap();

    db.commit_prepared("gid-1").unwrap();
    let mut r2 = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r2.get("kv", &row![1]).unwrap(), Some(row![1, 10]));
    r2.commit().unwrap();
    assert!(db.prepared_gids().is_empty());
}

#[test]
fn rollback_prepared_discards_effects() {
    let db = kv_db();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.insert("kv", row![1, 10]).unwrap();
    t.prepare("gid-1").unwrap();
    db.rollback_prepared("gid-1").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &row![1]).unwrap(), None);
    r.commit().unwrap();
    assert!(db.commit_prepared("gid-1").is_err(), "gone");
}

#[test]
fn prepared_transaction_survives_crash_and_commits() {
    let db = kv_db();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.insert("kv", row![1, 10]).unwrap();
    let _ = t.get("kv", &row![2]).unwrap(); // take some SIREAD state
    t.prepare("gid-1").unwrap();

    // In-flight (non-prepared) transaction at crash time: must be aborted.
    let mut inflight = db.begin(IsolationLevel::Serializable);
    inflight.insert("kv", row![9, 9]).unwrap();
    std::mem::forget(inflight); // simulate a connection that simply vanished

    db.simulate_crash_recovery();

    assert_eq!(db.prepared_gids(), vec!["gid-1".to_string()]);
    db.commit_prepared("gid-1").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &row![1]).unwrap(), Some(row![1, 10]));
    assert_eq!(r.get("kv", &row![9]).unwrap(), None, "in-flight txn died");
    r.commit().unwrap();
}

/// A serializable transaction's snapshot lives only in the SSI active set,
/// so crash recovery must find it there: an unprepared serializable writer
/// in flight at the crash reads as aborted afterwards, its write is
/// invisible, and it pins nothing — vacuum prunes its dead version, and then
/// the version a later commit superseded.
#[test]
fn crash_recovery_aborts_an_in_flight_serializable_writer() {
    let db = kv_db();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    setup.insert("kv", row![1, 1]).unwrap();
    setup.commit().unwrap();

    let mut inflight = db.begin(IsolationLevel::Serializable);
    inflight.update("kv", &row![1], row![1, 2]).unwrap();
    let txid = inflight.txid();
    std::mem::forget(inflight); // a connection that simply vanished

    db.simulate_crash_recovery();

    assert_eq!(
        db.txn_manager().status(txid),
        TxnStatus::Aborted,
        "the in-flight serializable writer must read as aborted"
    );
    let mut r = db.begin(IsolationLevel::Serializable);
    assert_eq!(r.get("kv", &row![1]).unwrap(), Some(row![1, 1]));
    r.commit().unwrap();
    let (pruned, _) = db.vacuum();
    assert_eq!(pruned, 1, "its aborted version is dead");
    // Its row lock died with it: a later writer does not wait.
    let mut w = db.begin(IsolationLevel::ReadCommitted);
    w.update("kv", &row![1], row![1, 3]).unwrap();
    w.commit().unwrap();
    let (pruned, _) = db.vacuum();
    assert_eq!(pruned, 1, "no snapshot pins the superseded version");
}

#[test]
fn recovered_prepared_transaction_still_conflicts() {
    // After recovery the prepared transaction is assumed to have conflicts both
    // ways (§7.1); a new transaction forming a dangerous structure with it must
    // be the victim (prepared transactions cannot abort).
    let db = kv_db();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    setup.insert("kv", row![1, 1]).unwrap();
    setup.insert("kv", row![2, 2]).unwrap();
    setup.commit().unwrap();

    let mut t = db.begin(IsolationLevel::Serializable);
    let _ = t.get("kv", &row![1]).unwrap();
    t.update("kv", &row![2], row![2, 20]).unwrap();
    t.prepare("gid-1").unwrap();

    db.simulate_crash_recovery();

    // A new serializable transaction reads what the prepared one wrote (the
    // old version) and writes what it read: both edges point at the prepared
    // transaction, which cannot be the victim. With the conservative recovery
    // flags (conflicts assumed both ways), the abort may come as early as the
    // first read of the prepared transaction's data.
    let mut n = db.begin(IsolationLevel::Serializable);
    let result = n
        .get("kv", &row![2])
        .and_then(|_| n.update("kv", &row![1], row![1, 10]))
        .and_then(|_| n.commit());
    assert!(
        result.is_err(),
        "the active transaction must yield to the prepared one"
    );
    db.commit_prepared("gid-1").unwrap();
}

/// PREPARE marks the live transaction exactly as recovery rebuilds it:
/// conflicts assumed both ways. Its recorded facts are the ones read before
/// that marking (no edge yet), and one new rw edge from a neighbour, in
/// either direction, aborts the neighbour — before the crash and after it.
#[test]
fn prepared_transaction_is_conservative_live_and_recovered() {
    let db = kv_db();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    setup.insert("kv", row![1, 1]).unwrap();
    setup.insert("kv", row![2, 2]).unwrap();
    setup.commit().unwrap();

    let mut p = db.begin(IsolationLevel::Serializable);
    let _ = p.get("kv", &row![1]).unwrap();
    p.update("kv", &row![2], row![2, 20]).unwrap();
    p.prepare("gid-1").unwrap();
    let facts = db.prepared_ssi("gid-1").expect("serializable branch");
    assert!(!facts.had_in_conflict && !facts.had_out_conflict);

    let neighbours_abort = |when: &str| {
        // n –rw→ p: n reads the version p is replacing.
        let mut n = db.begin(IsolationLevel::Serializable);
        let err = n.get("kv", &row![2]).unwrap_err();
        assert!(err.is_retryable(), "{when}: {err}");
        // p –rw→ n: n overwrites what p read.
        let mut n = db.begin(IsolationLevel::Serializable);
        let err = n
            .update("kv", &row![1], row![1, 10])
            .and_then(|_| n.commit())
            .unwrap_err();
        assert!(err.is_retryable(), "{when}: {err}");
    };
    neighbours_abort("live");
    db.simulate_crash_recovery();
    assert_eq!(db.prepared_ssi("gid-1"), Some(facts));
    neighbours_abort("recovered");
    db.commit_prepared("gid-1").unwrap();
}

#[test]
fn prepare_runs_precommit_check() {
    // A doomed pivot cannot PREPARE: the §5.4 check runs at prepare time.
    let db = kv_db();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    setup.insert("kv", row![1, 1]).unwrap();
    setup.insert("kv", row![2, 2]).unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin(IsolationLevel::Serializable);
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let _ = t1.get("kv", &row![1]).unwrap();
    let _ = t1.get("kv", &row![2]).unwrap();
    let _ = t2.get("kv", &row![1]).unwrap();
    let _ = t2.get("kv", &row![2]).unwrap();
    t1.update("kv", &row![1], row![1, 10]).unwrap();
    t2.update("kv", &row![2], row![2, 20]).unwrap();
    t1.commit().unwrap(); // dooms t2 (pivot)
    let err = t2.prepare("gid-x").unwrap_err();
    assert!(err.is_retryable());
    assert!(db.prepared_gids().is_empty());
}

// ---------------------------------------------------------------------------
// Replication (§8.4; §7.2 is its empty-pending-set case)
// ---------------------------------------------------------------------------

#[test]
fn replica_receives_commits_and_safe_snapshots() {
    let db = kv_db();
    let replica = Replica::connect(&db);
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("kv", row![1, 10]).unwrap();
    t.commit().unwrap();
    assert!(replica.catch_up() >= 1);
    let mut q = replica
        .begin_safe_query()
        .expect("idle master → candidate safe on arrival");
    assert_eq!(q.get("kv", &row![1]).unwrap(), Some(row![1, 10]));
    q.commit().unwrap();
}

/// A branch that only read ships no data commit: neither a writeless
/// REPEATABLE READ commit nor COMMIT PREPARED of a writeless REPEATABLE READ
/// branch moves the replication stream.
#[test]
fn writeless_prepared_branch_ships_no_commit_record() {
    let db = kv_db();
    let _replica = Replica::connect(&db);
    let shipped = db.wal().len();
    let mut plain = db.begin(IsolationLevel::RepeatableRead);
    assert_eq!(plain.get("kv", &row![1]).unwrap(), None);
    plain.commit().unwrap();
    assert_eq!(db.wal().len(), shipped, "writeless commit");
    let mut branch = db.begin(IsolationLevel::RepeatableRead);
    assert_eq!(branch.get("kv", &row![1]).unwrap(), None);
    branch.prepare("gid-ro").unwrap();
    db.commit_prepared("gid-ro").unwrap();
    assert_eq!(db.wal().len(), shipped, "writeless COMMIT PREPARED");
}

#[test]
fn replica_safe_snapshot_lags_behind_active_serializable_txns() {
    let db = kv_db();
    let replica = Replica::connect(&db);

    // Commit something with no serializable activity: safe on arrival.
    let mut a = db.begin(IsolationLevel::ReadCommitted);
    a.insert("kv", row![1, 1]).unwrap();
    a.commit().unwrap();
    replica.catch_up();

    // Now hold a serializable RW transaction open while another commit happens:
    // that commit's candidate stays pending on it.
    let mut hold = db.begin(IsolationLevel::Serializable);
    let _ = hold.get("kv", &row![1]).unwrap();
    let mut b = db.begin(IsolationLevel::ReadCommitted);
    b.insert("kv", row![2, 2]).unwrap();
    b.commit().unwrap();
    replica.catch_up();
    assert_eq!(replica.pending_candidates(), 1);

    let mut q = replica.begin_safe_query().unwrap();
    assert_eq!(q.get("kv", &row![1]).unwrap(), Some(row![1, 1]));
    assert_eq!(
        q.get("kv", &row![2]).unwrap(),
        None,
        "safe snapshot predates the commit made while a serializable txn ran"
    );
    q.commit().unwrap();

    // Once the serializable transaction finishes and another commit happens, a
    // new safe snapshot catches the replica up.
    hold.commit().unwrap();
    let mut c = db.begin(IsolationLevel::ReadCommitted);
    c.insert("kv", row![3, 3]).unwrap();
    c.commit().unwrap();
    replica.catch_up();
    let mut q2 = replica.begin_safe_query().unwrap();
    assert_eq!(q2.get("kv", &row![2]).unwrap(), Some(row![2, 2]));
    assert_eq!(q2.get("kv", &row![3]).unwrap(), Some(row![3, 3]));
    q2.commit().unwrap();
}

/// The Figure 2 anomaly through a replica: a stale (unsafe) replica snapshot
/// can observe the non-serializable state, while the metadata follower's safe
/// queries cannot — this is exactly why PostgreSQL restricts replicas to safe
/// snapshots (§7.2), and what the follower's pending rule (§8.4) preserves.
#[test]
fn replica_stale_query_exposes_anomaly_safe_query_does_not() {
    let db = Database::open();
    db.create_table(TableDef::new("control", &["id", "batch"], vec![0]))
        .unwrap();
    db.create_table(TableDef::new("receipts", &["rid", "batch"], vec![0]))
        .unwrap();
    let replica = Replica::connect(&db); // attach first: shipping starts here
    let mut s = db.begin(IsolationLevel::ReadCommitted);
    s.insert("control", row![0, 1]).unwrap();
    s.commit().unwrap();
    replica.catch_up();

    // T2 (NEW-RECEIPT) in flight, serializable.
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let x = t2.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    // T3 (CLOSE-BATCH) commits while T2 is active → its candidate stays
    // pending on T2.
    let mut t3 = db.begin(IsolationLevel::Serializable);
    let b = t3.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();
    replica.catch_up();
    assert_eq!(replica.pending_candidates(), 1);

    // A stale replica REPORT sees batch closed with an empty total…
    let mut stale = replica.begin_stale_query();
    let cur = stale.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(cur, x + 1);
    let total: Vec<_> = stale
        .scan_where("receipts", |r| r[1] == Value::Int(cur - 1))
        .unwrap();
    assert!(total.is_empty());
    stale.commit().unwrap();
    // …and T2 then commits a receipt into that batch on the master, with no
    // SSI edge ever seeing the replica read: the anomaly happened.
    t2.insert("receipts", row![1, x]).unwrap();
    t2.commit()
        .expect("master-side SSI cannot see the replica's read");

    // The safe-snapshot path never observed the intermediate state: its latest
    // safe snapshot predates CLOSE-BATCH entirely.
    let mut safe = replica.begin_safe_query().unwrap();
    let safe_cur = safe.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(safe_cur, x, "safe snapshot is from before CLOSE-BATCH");
    safe.commit().unwrap();

    // T2's record then proves T3's candidate unsafe (T2 committed with a
    // conflict out to T3); the follower drops it and adopts T2's own
    // snapshot — the consistent final state, receipt included.
    replica.catch_up();
    assert_eq!(replica.pending_candidates(), 0);
    assert!(db.stats_report().repl_unsafe_candidates >= 1);
    let mut after = replica.begin_safe_query().unwrap();
    let closed = after.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    let receipts = after
        .scan_where("receipts", |r| r[1] == Value::Int(x))
        .unwrap();
    assert_eq!((closed, receipts.len()), (x + 1, 1));
    after.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Memory bounds (§6)
// ---------------------------------------------------------------------------

/// §6's serial-table bound holds and releases: while a reader pins the
/// cleanup horizon, each summarized writer leaves at most one entry; once the
/// reader is gone the next horizon sweep empties the table, and probing it
/// for transactions it never recorded adds nothing.
#[test]
fn serial_table_is_bounded_by_the_horizon_and_released() {
    let db = Database::new(EngineConfig {
        ssi: SsiConfig::tiny(),
        ..EngineConfig::default()
    });
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let write = |k: i64| {
        let mut w = db.begin(IsolationLevel::Serializable);
        w.insert("kv", row![k, k]).unwrap();
        w.commit().unwrap();
    };
    write(0);
    let mut reader = db.begin(IsolationLevel::Serializable);
    assert_eq!(reader.get("kv", &row![0]).unwrap(), Some(row![0, 0]));
    for k in 1..=12 {
        write(k);
    }
    let ssi = db.ssi();
    let (len, summarized) = (ssi.serial().len() as u64, ssi.stats.summarized.get());
    assert!(
        0 < len && len <= summarized,
        "{len} entries, {summarized} summarized"
    );

    reader.commit().unwrap();
    write(13);
    assert_eq!(ssi.serial().len(), 0, "released once the horizon passes");
    for x in 1_000_000..1_000_064 {
        assert_eq!(ssi.serial().lookup(TxnId(x)), None);
    }
    assert_eq!(ssi.serial().len(), 0, "a lookup miss inserts nothing");
}

// ---------------------------------------------------------------------------
// Deferrable transactions (§4.3)
// ---------------------------------------------------------------------------

#[test]
fn deferrable_on_idle_database_starts_immediately() {
    let db = kv_db();
    let mut t = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
        .unwrap();
    assert_eq!(t.get("kv", &row![1]).unwrap(), None);
    t.commit().unwrap();
    // No SSI overhead: the transaction ran on a safe snapshot.
    assert!(db.ssi().stats.safe_immediate.get() >= 1);
}

#[test]
fn deferrable_waits_for_concurrent_rw_to_finish() {
    use std::sync::Arc;
    let db = Arc::new(kv_db());
    let mut rw = db.begin(IsolationLevel::Serializable);
    rw.insert("kv", row![1, 1]).unwrap();

    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut t: Transaction = db2
            .begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
            .unwrap();
        let rows = t.scan("kv").unwrap();
        t.commit().unwrap();
        rows.len()
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!h.is_finished(), "deferrable must block while RW runs");
    rw.commit().unwrap();
    let n = h.join().unwrap();
    // The writer committed *cleanly*, which proves the deferrable transaction's
    // original snapshot safe — so it proceeds on that snapshot, a consistent
    // prefix of the serial order that does not include the writer (§4.2).
    assert_eq!(n, 0, "safe snapshot predates the writer's commit");
}

#[test]
fn deferrable_transaction_cannot_write() {
    let db = kv_db();
    let mut t = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
        .unwrap();
    assert!(t.insert("kv", row![1, 1]).is_err());
    t.rollback();
}

#[test]
fn deferrable_requires_serializable_read_only() {
    let db = kv_db();
    let bad = BeginOptions {
        isolation: IsolationLevel::RepeatableRead,
        read_only: true,
        deferrable: true,
    };
    assert!(db.begin_with(bad).is_err());
}
