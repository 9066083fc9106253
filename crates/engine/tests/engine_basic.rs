//! Engine fundamentals: CRUD, MVCC visibility across isolation levels,
//! uniqueness, savepoints, vacuum, and DDL interactions.

use std::ops::Bound;

use pgssi_common::{row, Error, Key, Value};
use pgssi_engine::{
    BeginOptions, Database, IndexDef, IndexKind, IsolationLevel, TableDef, Transaction,
};

fn db_with_kv() -> Database {
    let db = Database::open();
    db.create_table(
        TableDef::new("kv", &["k", "v"], vec![0]).with_index(IndexDef {
            name: "kv_v".into(),
            cols: vec![1],
            unique: false,
            kind: IndexKind::BTree,
        }),
    )
    .unwrap();
    db
}

fn put(txn: &mut Transaction, k: i64, v: i64) {
    txn.insert("kv", row![k, v]).unwrap();
}

fn key(k: i64) -> Key {
    row![k]
}

#[test]
fn insert_get_update_delete_roundtrip() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 10);
    put(&mut t, 2, 20);
    assert_eq!(t.get("kv", &key(1)).unwrap(), Some(row![1, 10]));
    assert!(t.update("kv", &key(1), row![1, 11]).unwrap());
    assert_eq!(t.get("kv", &key(1)).unwrap(), Some(row![1, 11]));
    assert!(t.delete("kv", &key(2)).unwrap());
    assert_eq!(t.get("kv", &key(2)).unwrap(), None);
    assert!(
        !t.delete("kv", &key(2)).unwrap(),
        "double delete is a no-op"
    );
    t.commit().unwrap();

    let mut t2 = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(t2.get("kv", &key(1)).unwrap(), Some(row![1, 11]));
    assert_eq!(t2.get("kv", &key(2)).unwrap(), None);
    t2.rollback();
}

#[test]
fn snapshot_isolation_repeatable_reads() {
    let db = db_with_kv();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    put(&mut setup, 1, 10);
    setup.commit().unwrap();

    let mut reader = db.begin(IsolationLevel::RepeatableRead);
    assert_eq!(reader.get("kv", &key(1)).unwrap(), Some(row![1, 10]));

    let mut writer = db.begin(IsolationLevel::ReadCommitted);
    writer.update("kv", &key(1), row![1, 99]).unwrap();
    writer.commit().unwrap();

    // RR keeps seeing the old version; RC sees the new one.
    assert_eq!(reader.get("kv", &key(1)).unwrap(), Some(row![1, 10]));
    let mut rc = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(rc.get("kv", &key(1)).unwrap(), Some(row![1, 99]));
    reader.commit().unwrap();
    rc.commit().unwrap();
}

#[test]
fn read_committed_sees_commits_between_statements() {
    let db = db_with_kv();
    let mut rc = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(rc.get("kv", &key(1)).unwrap(), None);
    let mut w = db.begin(IsolationLevel::ReadCommitted);
    put(&mut w, 1, 5);
    w.commit().unwrap();
    assert_eq!(rc.get("kv", &key(1)).unwrap(), Some(row![1, 5]));
    rc.commit().unwrap();
}

#[test]
fn own_writes_visible_before_commit_invisible_to_others() {
    let db = db_with_kv();
    let mut a = db.begin(IsolationLevel::Serializable);
    put(&mut a, 7, 70);
    assert_eq!(a.get("kv", &key(7)).unwrap(), Some(row![7, 70]));
    let mut b = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(b.get("kv", &key(7)).unwrap(), None, "uncommitted invisible");
    a.commit().unwrap();
    assert_eq!(b.get("kv", &key(7)).unwrap(), Some(row![7, 70]));
    b.commit().unwrap();
}

#[test]
fn rollback_discards_everything() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 1);
    t.rollback();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &key(1)).unwrap(), None);
    r.commit().unwrap();
}

#[test]
fn drop_rolls_back() {
    let db = db_with_kv();
    {
        let mut t = db.begin(IsolationLevel::Serializable);
        put(&mut t, 1, 1);
        // dropped without commit
    }
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &key(1)).unwrap(), None);
    r.commit().unwrap();
}

#[test]
fn duplicate_pk_rejected_same_and_cross_txn() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 1);
    let err = t.insert("kv", row![1, 2]).unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }));
    t.commit().unwrap();
    let mut u = db.begin(IsolationLevel::Serializable);
    let err = u.insert("kv", row![1, 3]).unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }));
    u.rollback();
}

#[test]
fn delete_then_reinsert_same_key_in_one_txn() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 1);
    t.commit().unwrap();
    let mut u = db.begin(IsolationLevel::Serializable);
    assert!(u.delete("kv", &key(1)).unwrap());
    u.insert("kv", row![1, 2]).expect("key freed by own delete");
    u.commit().unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &key(1)).unwrap(), Some(row![1, 2]));
    r.commit().unwrap();
}

#[test]
fn unique_insert_waits_for_inflight_rival() {
    use std::sync::Arc;
    let db = Arc::new(db_with_kv());
    let mut a = db.begin(IsolationLevel::Serializable);
    put(&mut a, 1, 1);
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut b = db2.begin(IsolationLevel::Serializable);
        let r = b.insert("kv", row![1, 2]);
        if r.is_ok() {
            b.commit().unwrap();
        }
        r
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    a.rollback(); // rival aborts → b's insert should succeed
    assert!(h.join().unwrap().is_ok());
}

#[test]
fn unique_insert_fails_when_rival_commits() {
    use std::sync::Arc;
    let db = Arc::new(db_with_kv());
    let mut a = db.begin(IsolationLevel::Serializable);
    put(&mut a, 1, 1);
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut b = db2.begin(IsolationLevel::Serializable);
        b.insert("kv", row![1, 2])
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    a.commit().unwrap();
    let err = h.join().unwrap().unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }));
}

#[test]
fn range_scans_via_pk_and_secondary() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    for i in 0..20 {
        put(&mut t, i, 100 - i);
    }
    t.commit().unwrap();
    let mut r = db.begin(IsolationLevel::Serializable);
    let pk_rows = r
        .range_pk("kv", Bound::Included(key(5)), Bound::Excluded(key(10)))
        .unwrap();
    assert_eq!(pk_rows.len(), 5);
    assert_eq!(pk_rows[0].1, row![5, 95]);
    let by_v = r
        .range(
            "kv",
            "kv_v",
            Bound::Included(row![95]),
            Bound::Included(row![97]),
        )
        .unwrap();
    assert_eq!(by_v.len(), 3);
    assert_eq!(by_v[0].1[1], Value::Int(95));
    r.commit().unwrap();
}

#[test]
fn secondary_index_follows_updates_without_duplicates() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 10);
    t.commit().unwrap();
    let mut u = db.begin(IsolationLevel::Serializable);
    u.update("kv", &key(1), row![1, 50]).unwrap();
    u.commit().unwrap();
    let mut r = db.begin(IsolationLevel::Serializable);
    assert!(r.index_get("kv", "kv_v", &row![10]).unwrap().is_empty());
    assert_eq!(
        r.index_get("kv", "kv_v", &row![50]).unwrap(),
        vec![row![1, 50]]
    );
    // Range covering both old and new keys must not return the row twice.
    let both = r
        .range(
            "kv",
            "kv_v",
            Bound::Included(row![0]),
            Bound::Included(row![100]),
        )
        .unwrap();
    assert_eq!(both.len(), 1);
    r.commit().unwrap();
}

#[test]
fn scan_where_filters() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    for i in 0..10 {
        put(&mut t, i, i * 2);
    }
    t.commit().unwrap();
    let mut r = db.begin(IsolationLevel::Serializable);
    let evens_above_10 = r
        .scan_where("kv", |row| row[1].as_int().unwrap() > 10)
        .unwrap();
    assert_eq!(evens_above_10.len(), 4); // v = 12, 14, 16, 18
    r.commit().unwrap();
}

#[test]
fn read_only_transaction_rejects_writes() {
    let db = db_with_kv();
    let mut t = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).read_only())
        .unwrap();
    let err = t.insert("kv", row![1, 1]).unwrap_err();
    assert!(matches!(err, Error::ReadOnlyTransaction));
    // The transaction stays usable for reads.
    assert_eq!(t.get("kv", &key(1)).unwrap(), None);
    t.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Savepoints (§7.3)
// ---------------------------------------------------------------------------

#[test]
fn savepoint_rollback_discards_subtransaction_writes_only() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    put(&mut t, 1, 1);
    t.savepoint("sp").unwrap();
    put(&mut t, 2, 2);
    t.update("kv", &key(1), row![1, 99]).unwrap();
    t.rollback_to_savepoint("sp").unwrap();
    assert_eq!(
        t.get("kv", &key(1)).unwrap(),
        Some(row![1, 1]),
        "update undone"
    );
    assert_eq!(t.get("kv", &key(2)).unwrap(), None, "insert undone");
    // Work after the rollback continues under the savepoint.
    put(&mut t, 3, 3);
    t.commit().unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &key(1)).unwrap(), Some(row![1, 1]));
    assert_eq!(r.get("kv", &key(2)).unwrap(), None);
    assert_eq!(r.get("kv", &key(3)).unwrap(), Some(row![3, 3]));
    r.commit().unwrap();
}

#[test]
fn nested_savepoints_roll_back_in_order() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.savepoint("a").unwrap();
    put(&mut t, 1, 1);
    t.savepoint("b").unwrap();
    put(&mut t, 2, 2);
    t.rollback_to_savepoint("b").unwrap();
    assert_eq!(t.get("kv", &key(1)).unwrap(), Some(row![1, 1]));
    assert_eq!(t.get("kv", &key(2)).unwrap(), None);
    t.rollback_to_savepoint("a").unwrap();
    assert_eq!(t.get("kv", &key(1)).unwrap(), None);
    t.commit().unwrap();
}

#[test]
fn savepoint_rollback_can_repeat() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.savepoint("sp").unwrap();
    for round in 0..3 {
        put(&mut t, 10 + round, round);
        t.rollback_to_savepoint("sp").unwrap();
    }
    put(&mut t, 42, 42);
    t.commit().unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.scan("kv").unwrap().len(), 1);
    r.commit().unwrap();
}

#[test]
fn release_savepoint_keeps_writes() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::Serializable);
    t.savepoint("sp").unwrap();
    put(&mut t, 1, 1);
    t.release_savepoint("sp").unwrap();
    assert!(t.rollback_to_savepoint("sp").is_err(), "released is gone");
    t.commit().unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(r.get("kv", &key(1)).unwrap(), Some(row![1, 1]));
    r.commit().unwrap();
}

#[test]
fn siread_locks_survive_subtransaction_rollback() {
    // §7.3: data read in a subtransaction may have been externalized, so the
    // SIREAD locks persist and conflicts are still detected.
    let db = db_with_kv();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    put(&mut setup, 1, 1);
    put(&mut setup, 2, 2);
    setup.commit().unwrap();

    let mut t1 = db.begin(IsolationLevel::Serializable);
    let mut t2 = db.begin(IsolationLevel::Serializable);
    t1.savepoint("sp").unwrap();
    let _ = t1.get("kv", &key(1)).unwrap(); // read inside subtransaction
    t1.rollback_to_savepoint("sp").unwrap();
    let _ = t1.get("kv", &key(2)).unwrap();
    t1.update("kv", &key(2), row![2, 20]).unwrap();

    // t2 writes what t1 read inside the rolled-back subtransaction, and reads
    // what t1 wrote: classic skew. The SIREAD lock from the subtransaction must
    // still trigger detection.
    let _ = t2.get("kv", &key(2)).unwrap();
    t2.update("kv", &key(1), row![1, 10]).unwrap();
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(
        err.is_retryable(),
        "skew through subtransaction reads: {err}"
    );
}

// ---------------------------------------------------------------------------
// Vacuum and DDL
// ---------------------------------------------------------------------------

#[test]
fn vacuum_prunes_versions_and_dead_rows() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..10 {
        put(&mut t, i, 0);
    }
    t.commit().unwrap();
    for round in 1..4 {
        let mut u = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..10 {
            u.update("kv", &key(i), row![i, round]).unwrap();
        }
        u.commit().unwrap();
    }
    let mut d = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..5 {
        d.delete("kv", &key(i)).unwrap();
    }
    d.commit().unwrap();
    let (pruned, entries) = db.vacuum();
    assert!(pruned >= 30, "3 superseded versions x10 rows, got {pruned}");
    assert!(entries >= 5, "deleted rows' pk entries, got {entries}");
    // Data still correct.
    let mut r = db.begin(IsolationLevel::Serializable);
    let rows = r.scan("kv").unwrap();
    assert_eq!(rows.len(), 5);
    for row in rows {
        assert_eq!(row[1], Value::Int(3));
    }
    r.commit().unwrap();
}

/// Supersede key 1's current version with `v`, then check that vacuum keeps
/// the old version while `holder` (a snapshot taken before the update) is
/// unfinished, and prunes it once `finish` has ended the holder.
fn assert_vacuum_waits_for(db: &Database, holder: &str, v: i64, finish: impl FnOnce()) {
    let mut u = db.begin(IsolationLevel::ReadCommitted);
    u.update("kv", &key(1), row![1, v]).unwrap();
    u.commit().unwrap();
    let (pruned, _) = db.vacuum();
    assert_eq!(pruned, 0, "{holder} still needs version {}", v - 1);
    finish();
    let (pruned, _) = db.vacuum();
    assert_eq!(pruned, 1, "{holder} finished: version {} is dead", v - 1);
}

#[test]
fn vacuum_respects_active_snapshots() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    put(&mut t, 1, 1);
    t.commit().unwrap();

    let mut old_reader = db.begin(IsolationLevel::RepeatableRead);
    assert_eq!(old_reader.get("kv", &key(1)).unwrap(), Some(row![1, 1]));
    assert_vacuum_waits_for(&db, "a repeatable-read reader", 2, || {
        assert_eq!(old_reader.get("kv", &key(1)).unwrap(), Some(row![1, 1]));
        old_reader.commit().unwrap();
    });

    // A serializable snapshot is registered only in the SSI active set.
    let mut old_reader = db.begin(IsolationLevel::Serializable);
    assert_eq!(old_reader.get("kv", &key(1)).unwrap(), Some(row![1, 2]));
    assert_vacuum_waits_for(&db, "a serializable reader", 3, || {
        assert_eq!(old_reader.get("kv", &key(1)).unwrap(), Some(row![1, 2]));
        old_reader.commit().unwrap();
    });

    // ... and stays there through PREPARE, until COMMIT PREPARED.
    let mut prepared = db.begin(IsolationLevel::Serializable);
    put(&mut prepared, 9, 9);
    prepared.prepare("gid-pin").unwrap();
    assert_vacuum_waits_for(&db, "a prepared serializable transaction", 4, || {
        db.commit_prepared("gid-pin").unwrap();
    });
}

#[test]
fn recluster_preserves_data_and_serializability_conservatively() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..100 {
        put(&mut t, i, i);
    }
    t.commit().unwrap();

    // A serializable reader scans a range, then the table is rewritten.
    let mut reader = db.begin(IsolationLevel::Serializable);
    let rows = reader
        .range_pk("kv", Bound::Included(key(10)), Bound::Included(key(20)))
        .unwrap();
    assert_eq!(rows.len(), 11);
    db.recluster("kv").unwrap();

    // Data intact after rewrite.
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(check.scan("kv").unwrap().len(), 100);
    assert_eq!(check.get("kv", &key(50)).unwrap(), Some(row![50, 50]));
    check.commit().unwrap();

    // The reader's gap locks were promoted to relation granularity: ANY
    // conflicting write in the table now conflicts (conservative, §5.2.1).
    let mut writer = db.begin(IsolationLevel::Serializable);
    let _ = writer.get("kv", &key(5)); // writer reads what reader will write
    writer.update("kv", &key(99), row![99, 0]).unwrap(); // hits the promoted relation lock
                                                         // reader writes what the writer read, closing the 2-cycle.
    reader.update("kv", &key(5), row![5, 0]).unwrap();
    let r1 = writer.commit();
    let r2 = reader.commit();
    assert!(
        r1.is_err() || r2.is_err(),
        "promotion must keep conflicts detectable after recluster"
    );
}

#[test]
fn drop_index_promotes_to_heap_relation_lock() {
    let db = db_with_kv();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..10 {
        put(&mut t, i, i);
    }
    t.commit().unwrap();

    // Reader scans via the secondary index (gap locks on kv_v pages).
    let mut reader = db.begin(IsolationLevel::Serializable);
    let _ = reader
        .range(
            "kv",
            "kv_v",
            Bound::Included(row![0]),
            Bound::Included(row![100]),
        )
        .unwrap();
    db.drop_index("kv", "kv_v").unwrap();

    // After the drop, a phantom insert must still conflict via the promoted
    // relation lock on the heap.
    let mut writer = db.begin(IsolationLevel::Serializable);
    let _ = writer.scan("kv").unwrap(); // gives writer an in-edge possibility
    writer.insert("kv", row![100, 50]).unwrap();
    reader.update("kv", &key(0), row![0, 99]).unwrap();
    let r1 = writer.commit();
    let r2 = reader.commit();
    assert!(
        r1.is_err() || r2.is_err(),
        "dropped-index gap locks must fall back to relation locks"
    );
    // The index is really gone.
    let mut q = db.begin(IsolationLevel::ReadCommitted);
    assert!(q.index_get("kv", "kv_v", &row![5]).is_err());
    q.rollback();
}

#[test]
fn hash_index_equality_and_relation_fallback() {
    let db = Database::open();
    db.create_table(
        TableDef::new("users", &["id", "email"], vec![0]).with_index(IndexDef {
            name: "users_email".into(),
            cols: vec![1],
            unique: false,
            kind: IndexKind::Hash,
        }),
    )
    .unwrap();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("users", row![1, "a@x.com"]).unwrap();
    t.insert("users", row![2, "b@x.com"]).unwrap();
    t.commit().unwrap();

    let mut r = db.begin(IsolationLevel::Serializable);
    let hits = r
        .index_get("users", "users_email", &row!["a@x.com"])
        .unwrap();
    assert_eq!(hits, vec![row![1, "a@x.com"]]);
    // Hash indexes cannot range-scan.
    assert!(r
        .range("users", "users_email", Bound::Unbounded, Bound::Unbounded)
        .is_err());
    // The fallback relation lock makes ANY insert into the table conflict
    // (phantom protection without gap locks, §7.4).
    let mut w = db.begin(IsolationLevel::Serializable);
    let _ = w
        .index_get("users", "users_email", &row!["b@x.com"])
        .unwrap();
    w.insert("users", row![3, "c@x.com"]).unwrap();
    r.insert("users", row![4, "d@x.com"]).unwrap();
    let r1 = w.commit();
    let r2 = r.commit();
    assert!(
        r1.is_err() || r2.is_err(),
        "hash-index readers must be protected by relation locks"
    );
}

/// Writeless transactions (any isolation level) commit through the
/// non-advancing read-only path: they do not move the commit frontier, so
/// bursts of read transactions between writes all take the same snapshot.
#[test]
fn writeless_commits_do_not_advance_the_frontier() {
    let db = db_with_kv();
    let mut w = db.begin(IsolationLevel::Serializable);
    put(&mut w, 1, 10);
    w.commit().unwrap();

    let frontier = db.txn_manager().frontier();
    for iso in [
        IsolationLevel::Serializable,
        IsolationLevel::RepeatableRead,
        IsolationLevel::ReadCommitted,
    ] {
        for _ in 0..5 {
            let mut r = db.begin(iso);
            assert_eq!(r.get("kv", &key(1)).unwrap().unwrap()[1], Value::Int(10));
            r.commit().unwrap();
        }
    }
    assert_eq!(
        db.txn_manager().frontier(),
        frontier,
        "read transactions must not advance the commit frontier"
    );

    // A writing commit advances the frontier, and later snapshots observe it.
    let mut w = db.begin(IsolationLevel::Serializable);
    w.update("kv", &key(1), row![1, 11]).unwrap();
    w.commit().unwrap();
    assert!(db.txn_manager().frontier() > frontier);
    let mut r = db.begin(IsolationLevel::Serializable);
    assert_eq!(r.get("kv", &key(1)).unwrap().unwrap()[1], Value::Int(11));
    r.commit().unwrap();
}
