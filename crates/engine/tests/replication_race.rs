//! Regression tests for the replication layer's concurrency bugs:
//!
//! 1. the check-then-snapshot capture race — the first marker emitter checked
//!    `active_count() == 0` and then took `tm.snapshot()` as two separate
//!    steps, so a serializable read/write transaction beginning in between
//!    was shipped *inside* a snapshot the replica would trust as safe. The
//!    §8.4 form of the same bug is a commit record whose digest does not
//!    name a transaction that its snapshot is concurrent with;
//! 2. replica queries pinning the vacuum/SSI horizon past their lifetime
//!    (including when the querying thread panics).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use pgssi_common::row;
use pgssi_engine::{Database, IsolationLevel, Replica, TableDef, WalRecord};

fn kv_db() -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    db
}

/// One serializable read/write racer's observation: the WAL length read
/// immediately after its begin completed, and its txid (whose commit record
/// position in the stream is recovered afterwards).
struct RacerObs {
    wal_len_after_begin: usize,
    txid: pgssi_common::TxnId,
}

/// Hammer racing serializable begins against committing writers and assert
/// the positional invariant the atomic capture guarantees: every commit
/// record that sits in the stream *between* a racer's begin and that racer's
/// own commit record names the racer in its `concurrent_rw`, and ships a
/// snapshot that does not see the racer: the racer's commit CSN is not below
/// the shipped frontier.
///
/// Why that is exactly the follower's soundness condition: every WAL append
/// runs inside the SSI commit-order critical section, so stream positions
/// totally order those sections. `wal_len_after_begin <= pos` proves the
/// record's capture section ran after the racer's begin section, and
/// `pos < commit_pos` proves it ran before the racer's commit section — i.e.
/// the racer was an in-flight serializable read/write transaction at the
/// instant the record's digest and snapshot were captured. A follower opens
/// that snapshot as a candidate whose pending set is the shipped
/// `concurrent_rw`; a racer missing from it lets the candidate be promoted
/// (with an empty set: at once, the §7.2 marker) while the racer can still
/// make it unsafe. With the digest read, the snapshot and the append in one
/// commit-order section this cannot happen; with any of the three outside
/// it, racing begins straddle them and this test fails.
#[test]
fn commit_metadata_names_every_inflight_serializable_rw() {
    let mut windows_checked = 0usize;
    for round in 0..3 {
        let db = kv_db();
        // Shipping is gated on an attached consumer; the assertions below
        // read the stream this replica enables.
        let _replica = Replica::connect(&db);
        let stop = AtomicBool::new(false);
        let observations: Mutex<Vec<RacerObs>> = Mutex::new(Vec::new());

        std::thread::scope(|s| {
            // Committers: READ COMMITTED inserts, each commit a candidate.
            for c in 0..2 {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut k = 1_000_000 * (c + 1) + round; // fresh db per round
                    while !stop.load(Ordering::Relaxed) {
                        let mut t = db.begin(IsolationLevel::ReadCommitted);
                        t.insert("kv", row![k, 0]).unwrap();
                        t.commit().unwrap();
                        k += 1;
                    }
                });
            }
            // Racers: serializable read/write transactions on disjoint keys
            // (no SSI conflicts, so every commit succeeds and ships a record).
            for r in 0..4 {
                let db = db.clone();
                let stop = &stop;
                let observations = &observations;
                s.spawn(move || {
                    let mut k = 10_000_000 * (r + 1) + round;
                    while !stop.load(Ordering::Relaxed) {
                        let mut t = db.begin(IsolationLevel::Serializable);
                        let wal_len_after_begin = db.wal().len();
                        let txid = t.txid();
                        t.insert("kv", row![k, 1]).unwrap();
                        t.commit().unwrap();
                        observations.lock().unwrap().push(RacerObs {
                            wal_len_after_begin,
                            txid,
                        });
                        k += 1;
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(150));
            stop.store(true, Ordering::Relaxed);
        });

        // Recover each commit record's stream position.
        let records = db.wal().read_from(0);
        let commit_pos: std::collections::HashMap<_, _> = records
            .iter()
            .enumerate()
            .filter_map(|(pos, rec)| match rec {
                WalRecord::Commit { txid, .. } => Some((*txid, pos)),
                WalRecord::Resolve { .. } => None,
            })
            .collect();
        let observations = observations.into_inner().unwrap();
        assert!(
            !observations.is_empty(),
            "racers must have committed serializable transactions"
        );
        for obs in &observations {
            let Some(&cpos) = commit_pos.get(&obs.txid) else {
                panic!("committed racer {:?} has no WAL commit record", obs.txid);
            };
            for (pos, rec) in records
                .iter()
                .enumerate()
                .take(cpos)
                .skip(obs.wal_len_after_begin)
            {
                let WalRecord::Commit {
                    meta: (snapshot, digest),
                    ..
                } = rec
                else {
                    continue;
                };
                windows_checked += 1;
                assert!(
                    digest.concurrent_rw.contains(&obs.txid),
                    "round {round}: the commit record at stream position {pos} was captured \
                     while serializable r/w {:?} was in flight (begin at WAL length {}, commit \
                     record at {cpos}) but does not name it as concurrent: the capture race",
                    obs.txid,
                    obs.wal_len_after_begin,
                );
                let sees_racer = matches!(
                    db.txn_manager().status(obs.txid),
                    pgssi_storage::TxnStatus::Committed(c) if snapshot.committed_before(c)
                );
                assert!(
                    !sees_racer,
                    "round {round}: the snapshot shipped at stream position {pos} already sees \
                     serializable r/w {:?}, in flight over [{}, {cpos})",
                    obs.txid, obs.wal_len_after_begin,
                );
            }
        }
    }
    assert!(
        windows_checked > 0,
        "no commit record landed inside any racer's window: nothing was checked"
    );
}

/// Replica queries allocate a real master txid and register the (old) safe
/// snapshot's CSN in `active_snapshots` — both must be released when the
/// query finishes, even if the querying thread panics, or the vacuum/SSI
/// horizon is pinned forever. The replica's standing feedback pin, in turn,
/// must hold exactly as long as the replica serves that snapshot: it
/// advances with catch-up and dies with the replica.
#[test]
fn replica_queries_do_not_permanently_pin_the_vacuum_horizon() {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let replica = Replica::connect(&db); // attach first: shipping starts here
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("kv", row![1, 0]).unwrap();
    t.commit().unwrap();
    replica.catch_up();

    // The standing feedback pin protects a derived-but-not-yet-queried safe
    // snapshot: dead versions newer than it survive vacuum even with no
    // query in flight (no window between derivation and query).
    let q = replica.begin_safe_query().expect("safe snapshot shipped");
    for v in 1..4 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    let (pruned_pinned, _) = db.vacuum();
    assert_eq!(
        pruned_pinned, 0,
        "versions the replica query may read must survive vacuum"
    );
    drop(q);
    let (pruned_still_pinned, _) = db.vacuum();
    assert_eq!(
        pruned_still_pinned, 0,
        "the feedback pin must keep protecting the snapshot the replica still serves"
    );
    // Catching up past the updates advances the pin; the old versions die.
    replica.catch_up();
    let (pruned_after, _) = db.vacuum();
    assert!(
        pruned_after > 0,
        "advancing the replica must unpin the old versions (got {pruned_after})"
    );

    // Same through a panicking query thread: Transaction's drop runs during
    // unwind and must release the txid and the snapshot registration.
    replica.catch_up();
    let txid_cell = std::sync::Arc::new(Mutex::new(None));
    let cell = std::sync::Arc::clone(&txid_cell);
    let replica_ref = &replica;
    let panicked = std::thread::scope(|s| {
        s.spawn(move || {
            let mut q = replica_ref.begin_safe_query().expect("safe snapshot");
            *cell.lock().unwrap() = Some(q.txid());
            let _ = q.get("kv", &row![1]);
            panic!("simulated client crash mid-query");
        })
        .join()
    });
    assert!(panicked.is_err(), "query thread must have panicked");
    let qtxid = txid_cell.lock().unwrap().expect("txid recorded");
    assert!(
        !matches!(
            db.txn_manager().status(qtxid),
            pgssi_storage::TxnStatus::InProgress
        ),
        "panicked replica query still holds its master txid"
    );
    for v in 4..7 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    replica.catch_up(); // advance the feedback pin past the updates
    let (pruned_post_panic, _) = db.vacuum();
    assert!(
        pruned_post_panic > 0,
        "panicked replica query must not pin the vacuum horizon"
    );

    // A departed replica releases its feedback pin without a final catch-up.
    for v in 7..10 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    drop(replica);
    let (pruned_post_drop, _) = db.vacuum();
    assert!(
        pruned_post_drop > 0,
        "dropping the replica must release its feedback pin (got {pruned_post_drop})"
    );
}
