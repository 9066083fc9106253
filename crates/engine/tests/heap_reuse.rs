//! The heap re-uses the slots vacuum frees. These tests pin what that must not
//! change: what concurrent scans read, and which serialization failures SSI
//! reports when a SIREAD lock outlives the version it was taken on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pgssi_common::{row, Error, Key, Value};
use pgssi_engine::{BeginOptions, Database, IsolationLevel, TableDef, Transaction};

fn db_with_kv(rows: i64, v: i64) -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for k in 0..rows {
        t.insert("kv", row![k, v]).unwrap();
    }
    t.commit().unwrap();
    db
}

fn key(k: i64) -> Key {
    row![k]
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("int column")
}

/// One committed READ COMMITTED update of `k` to `v`.
fn set(db: &Database, k: i64, v: i64) {
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    assert!(t.update("kv", &key(k), row![k, v]).unwrap());
    t.commit().unwrap();
}

/// Scanners, single-key updaters and a vacuum loop share one small table: the
/// updaters move value between rows (two single-key updates per transaction),
/// so every snapshot holds exactly `ROWS` rows whose values sum to the initial
/// total, whichever slots vacuum freed and the updaters re-filled mid-scan.
#[test]
fn scans_see_every_row_once_while_vacuum_frees_and_updates_reuse() {
    const ROWS: i64 = 96;
    const START: i64 = 100;
    const TRANSFERS: usize = 1500;
    let db = db_with_kv(ROWS, START);
    let updaters_left = AtomicUsize::new(2);
    let done = || updaters_left.load(Ordering::Acquire) == 0;
    let vacuumed = AtomicBool::new(false);

    let transfer = |txn: &mut Transaction, from: i64, to: i64| -> Result<(), Error> {
        txn.update_with("kv", &key(from), |r| row![from, int(&r[1]) - 1])?;
        txn.update_with("kv", &key(to), |r| row![to, int(&r[1]) + 1])?;
        Ok(())
    };
    let check_scan = |level: IsolationLevel| -> Result<(), Error> {
        let mut opts = BeginOptions::new(level);
        if level == IsolationLevel::Serializable {
            opts = opts.read_only();
        }
        let mut txn = db.begin_with(opts)?;
        let rows = txn.scan("kv")?;
        txn.commit()?;
        assert_eq!(rows.len() as i64, ROWS, "a scan lost or doubled a row");
        let sum: i64 = rows.iter().map(|r| int(&r[1])).sum();
        assert_eq!(sum, ROWS * START, "a scan mixed two snapshots");
        let mut keys: Vec<i64> = rows.iter().map(|r| int(&r[0])).collect();
        keys.sort_unstable();
        assert!(keys.iter().copied().eq(0..ROWS));
        Ok(())
    };

    std::thread::scope(|s| {
        for u in 0..2i64 {
            let (db, updaters_left, transfer) = (&db, &updaters_left, &transfer);
            s.spawn(move || {
                let mut k = u * 17;
                let mut committed = 0;
                while committed < TRANSFERS {
                    k = (k + 7) % ROWS;
                    let (from, to) = (k, (k * 5 + 1 + u) % ROWS);
                    if from == to {
                        continue;
                    }
                    let mut txn = db.begin(IsolationLevel::RepeatableRead);
                    match transfer(&mut txn, from, to).and_then(|()| txn.commit()) {
                        Ok(()) => committed += 1,
                        Err(e) => assert!(e.is_retryable(), "unexpected error: {e}"),
                    }
                }
                updaters_left.fetch_sub(1, Ordering::Release);
            });
        }
        for level in [IsolationLevel::RepeatableRead, IsolationLevel::Serializable] {
            let (check_scan, done) = (&check_scan, &done);
            s.spawn(move || {
                let mut scans = 0;
                while !done() || scans < 50 {
                    match check_scan(level) {
                        Ok(()) => scans += 1,
                        Err(e) => assert!(e.is_retryable(), "unexpected error: {e}"),
                    }
                }
            });
        }
        s.spawn(|| {
            while !done() {
                if db.vacuum().0 > 0 {
                    vacuumed.store(true, Ordering::Relaxed);
                }
            }
        });
    });
    assert!(
        vacuumed.load(Ordering::Relaxed),
        "vacuum never freed a slot"
    );
    check_scan(IsolationLevel::RepeatableRead).unwrap();
}

/// A SIREAD tuple lock names a `(page, slot)`, and can outlive the version it
/// was taken on: the reader committed, a concurrent transaction keeps its locks
/// alive, vacuum frees the version and an unrelated row's update re-uses the
/// slot. A write to the new occupant then meets the stale lock. That may flag a
/// conflict that is not there — one extra flag, no failure on its own — and it
/// must never cost a real one: a write-skew pair run over re-used slots
/// afterwards still loses exactly one transaction.
#[test]
fn stale_siread_lock_on_a_reused_slot_only_adds_a_conflict() {
    // Keys 0 and 1 are the write-skew pair, 2 is read by `reader`, 3 moves in.
    let db = db_with_kv(4, 0);
    set(&db, 2, 1); // key 2: root -> v1, in the slot this test is about

    let mut reader = db.begin(IsolationLevel::Serializable);
    assert_eq!(reader.get("kv", &key(2)).unwrap(), Some(row![2, 1])); // SIREAD on v1
    set(&db, 2, 2); // v1 superseded (by a non-serializable writer: no rw flag)

    // Began after the update, before the reader's commit: concurrent with the
    // reader (so the reader's locks stay), yet its snapshot lets v1 go.
    let mut mover = db.begin(IsolationLevel::Serializable);
    assert_eq!(mover.get("kv", &key(3)).unwrap(), Some(row![3, 0]));
    reader.commit().unwrap();
    assert_eq!(db.vacuum().0, 2, "key 2's root payload and v1");

    // The first free slot on the page is v1's: key 3's new version takes it.
    assert!(mover.update("kv", &key(3), row![3, 1]).unwrap());
    let before = db.stats_report().ssi_conflicts_flagged;
    // Writing that version checks the SIREAD locks on its slot, and finds the
    // reader's. (Exactly one: if this reads 0 the heap placed the version
    // elsewhere and the scenario must be rebuilt.)
    assert!(mover.update("kv", &key(3), row![3, 2]).unwrap());
    assert_eq!(db.stats_report().ssi_conflicts_flagged - before, 1);
    mover.commit().expect("an in-conflict alone dooms nobody");

    // Churn the pair's rows through freed slots, then run the write skew.
    for round in 1..=3 {
        set(&db, 0, round);
        set(&db, 1, round);
        db.vacuum();
    }
    let mut t1 = db.begin(IsolationLevel::Serializable);
    let mut t2 = db.begin(IsolationLevel::Serializable);
    for t in [&mut t1, &mut t2] {
        assert_eq!(t.get("kv", &key(0)).unwrap(), Some(row![0, 3]));
        assert_eq!(t.get("kv", &key(1)).unwrap(), Some(row![1, 3]));
    }
    let outcomes = [
        t1.update("kv", &key(0), row![0, -1])
            .and_then(|_| t1.commit()),
        t2.update("kv", &key(1), row![1, -1])
            .and_then(|_| t2.commit()),
    ];
    let failed: Vec<&Error> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert_eq!(
        failed.len(),
        1,
        "write skew must abort exactly one: {outcomes:?}"
    );
    assert!(matches!(failed[0], Error::SerializationFailure { .. }));
}
