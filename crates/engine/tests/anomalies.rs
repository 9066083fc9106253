//! The paper's anomaly examples run end-to-end through the engine:
//!
//! * Figure 1 (simple write skew, §2.1.1): allowed under snapshot isolation
//!   (REPEATABLE READ), prevented under SERIALIZABLE (SSI) and under the S2PL
//!   baseline.
//! * Figure 2 (batch processing, §2.1.2): the three-transaction anomaly with a
//!   read-only participant; allowed under SI, prevented under SSI.
//! * First-updater-wins (§2.1): concurrent updates to the same row.
//! * The serialization-graph shapes of Figure 3 are asserted indirectly via
//!   which transaction aborts.

use pgssi_common::{row, Error, Key, Value};
use pgssi_engine::{BeginOptions, Database, IsolationLevel, TableDef, Transaction};

fn doctors_db() -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("doctors", &["name", "on_call"], vec![0]))
        .unwrap();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("doctors", row!["alice", true]).unwrap();
    t.insert("doctors", row!["bob", true]).unwrap();
    t.commit().unwrap();
    db
}

fn on_call_count(t: &mut Transaction) -> i64 {
    t.scan_where("doctors", |r| r[1] == Value::Bool(true))
        .unwrap()
        .len() as i64
}

fn take_off_call(t: &mut Transaction, name: &str) {
    let k: Key = row![name];
    t.update("doctors", &k, row![name, false]).unwrap();
}

/// Figure 1 under snapshot isolation: the anomaly happens — both doctors end up
/// off call even though each transaction checked the invariant.
#[test]
fn write_skew_allowed_under_snapshot_isolation() {
    let db = doctors_db();
    let mut t1 = db.begin(IsolationLevel::RepeatableRead);
    let mut t2 = db.begin(IsolationLevel::RepeatableRead);
    assert!(on_call_count(&mut t1) >= 2);
    assert!(on_call_count(&mut t2) >= 2);
    take_off_call(&mut t1, "alice");
    take_off_call(&mut t2, "bob");
    t1.commit().unwrap();
    t2.commit().unwrap();
    // Invariant violated: silent corruption, exactly what §2 warns about.
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(on_call_count(&mut check), 0, "SI permits write skew");
    check.commit().unwrap();
}

/// Figure 1 under SSI: one transaction aborts; the invariant holds; the
/// retried transaction sees the new state and declines to proceed.
#[test]
fn write_skew_prevented_under_ssi() {
    let db = doctors_db();
    let mut t1 = db.begin(IsolationLevel::Serializable);
    let mut t2 = db.begin(IsolationLevel::Serializable);
    assert!(on_call_count(&mut t1) >= 2);
    assert!(on_call_count(&mut t2) >= 2);
    take_off_call(&mut t1, "alice");
    take_off_call(&mut t2, "bob");
    let r1 = t1.commit();
    let r2 = t2.commit();
    assert!(
        r1.is_ok() ^ r2.is_ok(),
        "exactly one must commit: r1={r1:?} r2={r2:?}"
    );
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(on_call_count(&mut check), 1, "invariant preserved");
    check.commit().unwrap();
}

/// Figure 1 under the S2PL baseline: the read locks conflict with the writes,
/// so the interleaving deadlocks and one transaction is killed — serializable,
/// at the price of blocking.
#[test]
fn write_skew_prevented_under_s2pl() {
    use std::sync::{Arc, Barrier};
    let db = Arc::new(doctors_db());
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for (me, other) in [("alice", "bob"), ("bob", "alice")] {
        let db = Arc::clone(&db);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut t = db.begin(IsolationLevel::Serializable2pl);
            let n = on_call_count(&mut t);
            barrier.wait();
            let _ = other;
            if n >= 2 {
                let k: Key = row![me];
                match t.update("doctors", &k, row![me, false]) {
                    Ok(_) => t.commit().is_ok(),
                    Err(_) => false, // deadlock victim
                }
            } else {
                t.rollback();
                false
            }
        }));
    }
    let oks: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        oks.iter().filter(|&&b| b).count() <= 1,
        "at most one may succeed under 2PL"
    );
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert!(on_call_count(&mut check) >= 1, "invariant preserved");
    check.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Figure 2: batch processing
// ---------------------------------------------------------------------------

fn batch_db() -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("control", &["id", "batch"], vec![0]))
        .unwrap();
    db.create_table(TableDef::new(
        "receipts",
        &["rid", "batch", "amount"],
        vec![0],
    ))
    .unwrap();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("control", row![0, 1]).unwrap();
    t.commit().unwrap();
    db
}

fn current_batch(t: &mut Transaction) -> i64 {
    t.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap()
}

fn receipts_in_batch(t: &mut Transaction, batch: i64) -> Vec<i64> {
    t.scan_where("receipts", |r| r[1] == Value::Int(batch))
        .unwrap()
        .iter()
        .map(|r| r[2].as_int().unwrap())
        .collect()
}

/// Figure 2 under snapshot isolation: the REPORT shows a batch total that a
/// later-committing receipt silently changes — the anomaly the Wisconsin Court
/// System feared.
#[test]
fn batch_anomaly_happens_under_si() {
    let db = batch_db();
    // T2 (NEW-RECEIPT) reads the batch number…
    let mut t2 = db.begin(IsolationLevel::RepeatableRead);
    let x = current_batch(&mut t2);
    // T3 (CLOSE-BATCH) increments it and commits.
    let mut t3 = db.begin(IsolationLevel::RepeatableRead);
    let b = current_batch(&mut t3);
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();
    // T1 (REPORT) reads the new batch number and totals the previous batch.
    let mut t1 = db.begin(IsolationLevel::RepeatableRead);
    let cur = current_batch(&mut t1);
    assert_eq!(cur, x + 1);
    let report = receipts_in_batch(&mut t1, cur - 1);
    t1.commit().unwrap();
    assert!(report.is_empty(), "report shows no receipts for batch {x}");
    // …but T2 now inserts a receipt *into that closed batch* and commits.
    t2.insert("receipts", row![1, x, 100]).unwrap();
    t2.commit().unwrap();
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        receipts_in_batch(&mut check, x),
        vec![100],
        "the reported (empty) total changed after the fact: SI anomaly"
    );
    check.commit().unwrap();
}

/// Figure 2 under SSI: T2 (the pivot) is aborted; the report's total is final.
#[test]
fn batch_anomaly_prevented_under_ssi() {
    let db = batch_db();
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let x = current_batch(&mut t2);
    let mut t3 = db.begin(IsolationLevel::Serializable);
    let b = current_batch(&mut t3);
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();

    let mut t1 = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).read_only())
        .unwrap();
    let cur = current_batch(&mut t1);
    let report = receipts_in_batch(&mut t1, cur - 1);
    assert!(report.is_empty());
    t1.commit().unwrap();

    // T2's insert into the closed batch must fail (immediately or at commit).
    let result = t2
        .insert("receipts", row![1, x, 100])
        .and_then(|()| t2.commit());
    match result {
        Err(e) => assert!(e.is_retryable(), "{e}"),
        Ok(()) => panic!("SSI must abort the pivot NEW-RECEIPT transaction"),
    }
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert!(
        receipts_in_batch(&mut check, x).is_empty(),
        "closed batch stays closed"
    );
    check.commit().unwrap();
}

/// Figure 2 with a plain SERIALIZABLE REPORT that commits without writing.
/// Its commit makes it read-only for Theorem 3, but NEW-RECEIPT, a read/write
/// transaction with an older snapshot, is still in flight: the report's
/// SIREAD locks must outlive its commit so that NEW-RECEIPT's insert finds
/// the in-edge that makes it the pivot.
#[test]
fn batch_anomaly_prevented_under_ssi_with_an_undeclared_report() {
    let db = batch_db();
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let x = current_batch(&mut t2);
    let mut t3 = db.begin(IsolationLevel::Serializable);
    let b = current_batch(&mut t3);
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();

    let mut t1 = db.begin(IsolationLevel::Serializable);
    let cur = current_batch(&mut t1);
    let report = receipts_in_batch(&mut t1, cur - 1);
    assert!(report.is_empty());
    t1.commit().unwrap();

    let result = t2
        .insert("receipts", row![1, x, 100])
        .and_then(|()| t2.commit());
    match result {
        Err(e) => assert!(e.is_retryable(), "{e}"),
        Ok(()) => panic!("SSI must abort the pivot NEW-RECEIPT transaction"),
    }
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert!(
        receipts_in_batch(&mut check, x).is_empty(),
        "closed batch stays closed"
    );
    check.commit().unwrap();
}

/// The same history is fine when the REPORT starts before CLOSE-BATCH commits
/// (serializable as T1, T2, T3) — the read-only optimization avoids the abort.
#[test]
fn batch_serializable_variant_commits_under_ssi() {
    let db = batch_db();
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let x = current_batch(&mut t2);

    // REPORT starts first and scans receipts only.
    let mut t1 = db
        .begin_with(BeginOptions::new(IsolationLevel::Serializable).read_only())
        .unwrap();
    let _report = receipts_in_batch(&mut t1, x - 1);

    let mut t3 = db.begin(IsolationLevel::Serializable);
    let b = current_batch(&mut t3);
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();

    t2.insert("receipts", row![1, x, 100])
        .expect("T3 committed after T1's snapshot: no anomaly possible");
    t2.commit().unwrap();
    t1.commit().unwrap();
}

// ---------------------------------------------------------------------------
// First-updater-wins (§2.1)
// ---------------------------------------------------------------------------

#[test]
fn concurrent_update_aborts_second_writer_under_si() {
    use std::sync::Arc;
    let db = Arc::new(doctors_db());
    let mut a = db.begin(IsolationLevel::RepeatableRead);
    let mut b = db.begin(IsolationLevel::RepeatableRead);
    take_off_call(&mut a, "alice");
    // b targets the same row: blocks on a's row lock, then fails when a commits.
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let k: Key = row!["alice"];
        let r = b.update("doctors", &k, row!["alice", false]);
        (r, b)
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    a.commit().unwrap();
    let (r, b) = h.join().unwrap();
    let err = r.unwrap_err();
    assert!(
        matches!(
            &err,
            Error::SerializationFailure {
                kind: pgssi_common::SerializationKind::WriteConflict,
                ..
            }
        ),
        "{err}"
    );
    assert!(b.is_finished(), "auto-aborted");
    drop(db2);
}

#[test]
fn concurrent_update_retries_under_read_committed() {
    use std::sync::Arc;
    let db = Arc::new(doctors_db());
    let mut a = db.begin(IsolationLevel::ReadCommitted);
    take_off_call(&mut a, "alice");
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut b = db2.begin(IsolationLevel::ReadCommitted);
        let k: Key = row!["alice"];
        // RC follows the update chain instead of failing.
        let r = b.update("doctors", &k, row!["alice", true]);
        r.unwrap();
        b.commit().unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    a.commit().unwrap();
    h.join().unwrap();
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        check.get("doctors", &row!["alice"]).unwrap().unwrap()[1],
        Value::Bool(true),
        "RC writer's update applied on top of the committed one"
    );
    check.commit().unwrap();
}

#[test]
fn write_write_deadlock_is_broken() {
    use std::sync::{Arc, Barrier};
    let db = Arc::new(doctors_db());
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for (first, second) in [("alice", "bob"), ("bob", "alice")] {
        let db = Arc::clone(&db);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut t = db.begin(IsolationLevel::Serializable);
            let k: Key = row![first];
            t.update("doctors", &k, row![first, false]).unwrap();
            barrier.wait();
            let k2: Key = row![second];
            let r = t.update("doctors", &k2, row![second, false]);
            match r {
                Ok(_) => t.commit().is_ok(),
                Err(e) => {
                    assert!(e.is_retryable(), "{e}");
                    false
                }
            }
        }));
    }
    let oks = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&b| b)
        .count();
    assert!(oks <= 1, "deadlock must kill at least one");
}

// ---------------------------------------------------------------------------
// Phantoms (§5.2.1)
// ---------------------------------------------------------------------------

/// A serializable range scan must conflict with inserts into the scanned gap —
/// even though the inserted row did not exist at scan time.
#[test]
fn phantom_insert_detected_by_index_gap_locks() {
    let db = Database::open();
    db.create_table(TableDef::new("events", &["id", "day"], vec![0]))
        .unwrap();
    let mut setup = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..10 {
        setup.insert("events", row![i, i % 3]).unwrap();
    }
    setup.commit().unwrap();

    use std::ops::Bound;
    let mut scanner = db.begin(IsolationLevel::Serializable);
    let in_range = scanner
        .range_pk("events", Bound::Included(row![3]), Bound::Included(row![7]))
        .unwrap();
    assert_eq!(in_range.len(), 5);
    // Scanner writes something based on what it saw.
    scanner.insert("events", row![100, 99]).unwrap();

    // A concurrent transaction inserts a phantom into the scanned range and
    // reads the row the scanner created... build the cycle both ways.
    let mut phantom = db.begin(IsolationLevel::Serializable);
    let _ = phantom
        .range_pk(
            "events",
            Bound::Included(row![100]),
            Bound::Included(row![100]),
        )
        .unwrap();
    phantom.insert("events", row![5i64 * 100, 1]).unwrap(); // key 500, outside range — no conflict from this
    phantom.insert("events", row![6, 1]).err(); // duplicate, ignore result
    let r = phantom.insert("events", row![4i64 + 100_000, 0]); // unrelated key
    assert!(r.is_ok());
    // The actual phantom: a key inside [3,7] — use 5½ ≈ impossible with ints;
    // delete first to make room? Instead insert key 30 < nothing... Use a fresh
    // key inside the range: 3..7 are taken, so extend the scan semantics: scan
    // [3, 20], insert 15.
    phantom.rollback();

    let mut scanner = db.begin(IsolationLevel::Serializable);
    let _ = scanner
        .range_pk(
            "events",
            Bound::Included(row![3]),
            Bound::Included(row![20]),
        )
        .unwrap();
    scanner.insert("events", row![200, 99]).unwrap();

    let mut phantom = db.begin(IsolationLevel::Serializable);
    let _ = phantom
        .range_pk(
            "events",
            Bound::Included(row![200]),
            Bound::Included(row![200]),
        )
        .unwrap();
    phantom.insert("events", row![15, 1]).unwrap(); // inside the scanned gap

    let r1 = scanner.commit();
    let r2 = phantom.commit();
    assert!(
        r1.is_err() || r2.is_err(),
        "phantom + reverse edge must abort one transaction"
    );
}

/// Without a cycle, a phantom insert alone does NOT abort anyone under SSI —
/// single rw-antidependencies are allowed (§3.3's advantage over OCC/2PL).
#[test]
fn single_phantom_edge_is_allowed() {
    let db = Database::open();
    db.create_table(TableDef::new("events", &["id"], vec![0]))
        .unwrap();
    use std::ops::Bound;
    let mut scanner = db.begin(IsolationLevel::Serializable);
    let rows = scanner
        .range_pk("events", Bound::Unbounded, Bound::Unbounded)
        .unwrap();
    assert!(rows.is_empty());
    let mut inserter = db.begin(IsolationLevel::Serializable);
    inserter.insert("events", row![1]).unwrap();
    inserter
        .commit()
        .expect("single rw edge: no dangerous structure");
    scanner.commit().expect("scanner unaffected");
}

/// The observability surface on a write-skew abort: the abort taxonomy names
/// the dangerous-structure kind and the detecting site, and (with tracing on)
/// the event ring holds both halves of the rw-antidependency edges that made
/// the aborted transaction a pivot — `ConflictIn` and `ConflictOut` on the
/// same txid, per §3.1's T_in/T_out structure.
#[test]
fn write_skew_abort_is_classified_and_traced() {
    use pgssi_common::{EngineConfig, Error, TraceTag};

    let db = Database::new(EngineConfig {
        trace: true,
        ..EngineConfig::default()
    });
    db.create_table(TableDef::new("doctors", &["name", "on_call"], vec![0]))
        .unwrap();
    {
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        t.insert("doctors", row!["alice", true]).unwrap();
        t.insert("doctors", row!["bob", true]).unwrap();
        t.commit().unwrap();
    }
    let baseline = db.stats_report();
    assert_eq!(baseline.aborts_by.total(), 0);

    // Interleaving where the pivot's out-neighbor commits first (the §3.3.1
    // commit-ordering shape), so the pivot itself is the transaction that
    // fails — deterministically t1, with both rw edges on its own txid.
    let mut t1 = db.begin(IsolationLevel::Serializable);
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let ids = [t1.txid().0, t2.txid().0];
    assert!(on_call_count(&mut t1) >= 2);
    assert!(on_call_count(&mut t2) >= 2);
    take_off_call(&mut t2, "bob");
    t2.commit().expect("t2 commits first; no cycle yet");
    // t1 read bob (overwritten by committed t2: out-edge) and now overwrites
    // alice, which t2 read (in-edge): t1 is a pivot whose T3 committed first.
    let loser = ids[0];
    let failure = t1
        .update("doctors", &row!["alice"], row!["alice", false])
        .err()
        .unwrap_or_else(|| t1.commit().expect_err("pivot with committed T3 must abort"));
    assert!(
        matches!(failure, Error::SerializationFailure { .. }),
        "write skew must fail as a serialization failure: {failure:?}"
    );

    // Taxonomy: exactly one abort since the baseline, attributed to a
    // dangerous-structure kind and a detecting site (`kind@site`).
    let aborts = db.stats_report().aborts_by.delta(&baseline.aborts_by);
    assert_eq!(aborts.total(), 1, "one classified abort: {aborts}");
    let line = aborts.to_string();
    assert!(
        line.contains("pivot@"),
        "kind must be a dangerous-structure abort: {line}"
    );
    assert!(
        line.contains('@') && !line.contains("none"),
        "taxonomy names the detecting site: {line}"
    );

    // Tracer: the two-transaction cycle gives each side one incoming and one
    // outgoing rw-antidependency edge, so the aborted pivot must show both
    // `ConflictIn` and `ConflictOut` events, plus its terminal `Abort`.
    let dump = db.trace_dump_txn(pgssi_common::TxnId(loser));
    let has = |tag: TraceTag| dump.iter().any(|e| e.tag == tag);
    assert!(has(TraceTag::Begin), "missing Begin: {dump:?}");
    assert!(
        has(TraceTag::ConflictIn) && has(TraceTag::ConflictOut),
        "pivot must carry both halves of the rw edges: {dump:?}"
    );
    assert!(has(TraceTag::Abort), "missing Abort: {dump:?}");
    // The edge peers are the other transaction of the pair.
    for e in dump
        .iter()
        .filter(|e| matches!(e.tag, TraceTag::ConflictIn | TraceTag::ConflictOut))
    {
        assert!(ids.contains(&e.peer), "edge peer outside the pair: {e:?}");
    }
}
