//! §8.4 WAL-follower serializability under concurrency: writers commit on the
//! master while a replica continuously catches up and runs serializable
//! read-only queries on locally derived safe snapshots.
//!
//! * every safe snapshot the replica derives is re-validated against a
//!   from-scratch §4.2 safety check replayed over the full WAL;
//! * the Figure-2 REPORT anomaly reproduces under `begin_stale_query` but
//!   never under safe queries;
//! * an interleaved chain of serializable writers would starve the §7.2
//!   marker protocol completely (no shipped digest has an empty concurrent
//!   set) while the §8.4 follower keeps deriving safe snapshots — the "marker
//!   waits avoided" win, deterministically.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use pgssi_common::{row, CommitSeqNo, TxnId};
use pgssi_engine::{CommitDigest, Database, IsolationLevel, Replica, TableDef, WalRecord};

fn kv_db() -> Database {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    db
}

/// From-scratch §4.2 safety check over the complete WAL: a candidate snapshot
/// (shipped with a commit record) is safe iff every transaction its digest
/// names as concurrent resolved without proving it unsafe — an abort or a
/// writeless commit is harmless; a writing commit whose earliest committed
/// out-conflict predates the candidate makes it unsafe.
fn oracle_verdicts(records: &[WalRecord]) -> (HashSet<CommitSeqNo>, HashSet<CommitSeqNo>) {
    let mut resolutions: HashMap<TxnId, Option<CommitDigest>> = HashMap::new();
    for rec in records {
        match rec {
            WalRecord::Commit {
                txid,
                meta: (_, digest),
                ..
            } if digest.serializable => {
                resolutions.insert(*txid, Some(digest.clone()));
            }
            WalRecord::Resolve { txid, digest } => {
                resolutions.insert(*txid, digest.clone());
            }
            _ => {}
        }
    }
    // Digest self-consistency: a committed out-conflict bound implies the
    // out-conflict flag, and conflict flags only appear on serializable
    // digests (the flags are diagnostic payload; the safety rule itself
    // needs only `wrote` + the bound).
    for d in resolutions.values().flatten() {
        if d.earliest_out_conflict_commit != pgssi_common::CommitSeqNo::MAX {
            assert!(
                d.had_out_conflict,
                "digest bound set without the out-conflict flag"
            );
        }
        if d.had_in_conflict || d.had_out_conflict {
            assert!(d.serializable, "conflict facts on a non-SSI digest");
        }
    }
    let mut safe = HashSet::new();
    let mut unsafe_or_undecided = HashSet::new();
    for rec in records {
        let WalRecord::Commit {
            meta: (snapshot, digest),
            ..
        } = rec
        else {
            continue;
        };
        let mut verdict_safe = true;
        for x in &digest.concurrent_rw {
            match resolutions.get(x) {
                Some(Some(d)) if d.makes_unsafe(snapshot.csn) => {
                    verdict_safe = false;
                    break;
                }
                Some(_) => {} // resolved harmlessly
                None => {
                    verdict_safe = false; // never resolved: undecidable
                    break;
                }
            }
        }
        if verdict_safe {
            safe.insert(snapshot.csn);
        } else {
            unsafe_or_undecided.insert(snapshot.csn);
        }
    }
    (safe, unsafe_or_undecided)
}

#[test]
fn locally_derived_safe_snapshots_match_from_scratch_safety_check() {
    let db = kv_db();
    for k in 0..32i64 {
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        t.insert("kv", row![k, 0]).unwrap();
        t.commit().unwrap();
    }
    let replica = Replica::connect(&db);
    let stop = AtomicBool::new(false);
    let derived: Mutex<Vec<CommitSeqNo>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        // Serializable writers on overlapping keys: reads of key `a`, writes
        // of key `b` generate real rw-antidependencies, so some commits carry
        // dangerous residue (unsafe candidates) and some transactions abort
        // (harmless resolutions).
        for w in 0..3u64 {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut x = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = ((x >> 33) % 32) as i64;
                    let b = ((x >> 13) % 32) as i64;
                    let mut t = db.begin(IsolationLevel::Serializable);
                    let r = (|| {
                        let cur = t.get("kv", &row![a])?.map(|r| r[1].clone());
                        let bump = cur.and_then(|v| v.as_int()).unwrap_or(0) + 1;
                        t.update("kv", &row![b], row![b, bump])?;
                        Ok::<_, pgssi_common::Error>(())
                    })();
                    match r {
                        Ok(()) => {
                            let _ = t.commit(); // may still fail the pivot check
                        }
                        Err(_) => {
                            if !t.is_finished() {
                                t.rollback();
                            }
                        }
                    }
                }
            });
        }
        // The replica: continuous catch-up + serializable safe queries.
        {
            let stop = &stop;
            let replica = &replica;
            let derived = &derived;
            s.spawn(move || {
                let mut last: Option<CommitSeqNo> = None;
                while !stop.load(Ordering::Relaxed) {
                    replica.catch_up();
                    if let Some(csn) = replica.latest_safe_csn() {
                        if last != Some(csn) {
                            derived.lock().unwrap().push(csn);
                            last = Some(csn);
                        }
                    }
                    if let Some(mut q) = replica.begin_safe_query() {
                        let rows = q.scan("kv").expect("safe query reads");
                        assert_eq!(rows.len(), 32, "safe snapshot sees a full table");
                        q.commit().unwrap();
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
        stop.store(true, Ordering::Relaxed);
    });
    // Drain the tail so the final pending check is meaningful.
    replica.catch_up();

    let records = db.wal().read_from(0);
    let (oracle_safe, oracle_not_safe) = oracle_verdicts(&records);
    let derived = derived.into_inner().unwrap();
    assert!(
        !derived.is_empty(),
        "replica derived no safe snapshots at all"
    );
    for csn in &derived {
        assert!(
            oracle_safe.contains(csn),
            "replica adopted snapshot csn {csn:?} that the from-scratch check does not \
             consider safe (oracle safe: {}, not safe: {})",
            oracle_safe.len(),
            oracle_not_safe.len()
        );
    }
    // With every writer finished and the stream fully applied, nothing can
    // still be pending.
    assert_eq!(
        replica.pending_candidates(),
        0,
        "all candidates must resolve once the stream is complete"
    );
    let report = db.stats_report();
    assert!(report.repl_safe_local > 0, "local derivations counted");
}

/// The Figure 2 REPORT anomaly through a replica: a stale replica snapshot observes the non-serializable intermediate state;
/// the locally-deciding follower discards that snapshot's candidate as unsafe
/// and never serves it.
#[test]
fn report_anomaly_reproduces_under_stale_queries_never_under_safe() {
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
    let baseline = replica
        .latest_safe_csn()
        .expect("idle commit derives a safe snapshot");

    // T2 (NEW-RECEIPT) in flight, serializable.
    let mut t2 = db.begin(IsolationLevel::Serializable);
    let x = t2.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();

    // T3 (CLOSE-BATCH) increments the batch and commits while T2 runs.
    let mut t3 = db.begin(IsolationLevel::Serializable);
    let b = t3.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    t3.update("control", &row![0], row![0, b + 1]).unwrap();
    t3.commit().unwrap();
    replica.catch_up();

    // T3's candidate is still pending on T2: the follower must not have
    // advanced past the pre-CLOSE-BATCH snapshot.
    assert_eq!(replica.latest_safe_csn(), Some(baseline));
    assert_eq!(replica.pending_candidates(), 1);

    // A stale replica REPORT sees batch closed with an empty total — the
    // anomaly the safe-snapshot protocol exists to prevent.
    let mut stale = replica.begin_stale_query();
    let cur = stale.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(cur, x + 1);
    let total = stale
        .scan_where("receipts", |r| r[1].as_int() == Some(x))
        .unwrap();
    assert!(total.is_empty());
    stale.commit().unwrap();

    // …and T2 then commits a receipt into that batch on the master, with no
    // SSI edge ever seeing the replica read: the anomaly happened (stale).
    t2.insert("receipts", row![1, x]).unwrap();
    t2.commit()
        .expect("master-side SSI cannot see the replica's read");
    replica.catch_up();

    // T2 committed with a conflict out to T3 (earlier than T3's candidate):
    // the follower proves that candidate unsafe and discards it, then derives
    // a *new* safe snapshot from T2's own commit — the consistent final state.
    assert!(db.stats_report().repl_unsafe_candidates >= 1);
    let mut safe = replica.begin_safe_query().unwrap();
    let safe_cur = safe.get("control", &row![0]).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    let safe_receipts = safe
        .scan_where("receipts", |r| r[1].as_int() == Some(x))
        .unwrap();
    // Serializable observations only: either entirely before CLOSE-BATCH, or
    // the final state with the receipt present — never "closed and empty".
    assert!(
        safe_cur == x || (safe_cur == x + 1 && safe_receipts.len() == 1),
        "safe query observed the REPORT anomaly: batch {safe_cur}, receipts {}",
        safe_receipts.len()
    );
    safe.commit().unwrap();
}

/// §7.2 as a quantity computed from the shipped stream: the marker protocol
/// marks a commit's snapshot safe exactly when no serializable read/write
/// transaction is in flight at it — when the record's digest names nobody.
fn commits_the_marker_protocol_would_mark(db: &Database) -> usize {
    db.wal()
        .read_from(0)
        .iter()
        .filter(
            |r| matches!(r, WalRecord::Commit { meta: (_, d), .. } if d.concurrent_rw.is_empty()),
        )
        .count()
}

/// An interleaved chain of serializable writers keeps at least one r/w
/// transaction in flight at every commit: the §7.2 marker protocol would mark
/// no snapshot at all, while the §8.4 follower derives a safe snapshot from
/// almost every commit.
#[test]
fn follower_derives_safe_snapshots_where_markers_would_starve() {
    let db = kv_db();
    let replica = Replica::connect(&db); // attach before seeding
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for k in 0..8i64 {
        t.insert("kv", row![k, 0]).unwrap();
    }
    t.commit().unwrap();
    replica.catch_up();
    let marked_before = commits_the_marker_protocol_would_mark(&db);
    assert_eq!(marked_before, 1, "the idle seeding commit is a §7.2 marker");
    // What a §7.2 replica would be stuck on for the whole chain.
    let marker_baseline = replica
        .latest_safe_csn()
        .expect("idle commit is safe on arrival");

    // Chain: t_{i+1} begins before t_i commits, so every commit observes a
    // concurrent serializable read/write transaction. The chain's *last* link
    // stays open until after the assertions — committing it with nothing else
    // in flight is (correctly) a commit §7.2 would mark.
    let mut prev = db.begin(IsolationLevel::Serializable);
    prev.update("kv", &row![0], row![0, 0]).unwrap();
    for i in 1..20i64 {
        let mut next = db.begin(IsolationLevel::Serializable);
        let k = i % 8;
        next.update("kv", &row![k], row![k, i]).unwrap();
        prev.commit().unwrap();
        prev = next;
    }
    replica.catch_up();

    let report = db.stats_report();
    assert_eq!(
        commits_the_marker_protocol_would_mark(&db),
        marked_before,
        "the chain must starve the marker protocol completely"
    );
    assert!(
        report.repl_safe_local >= 15,
        "the follower keeps deriving safe snapshots mid-chain (got {})",
        report.repl_safe_local
    );
    assert!(
        report.repl_marker_waits_avoided >= 15,
        "each mid-chain derivation is a marker wait avoided (got {})",
        report.repl_marker_waits_avoided
    );
    let safe = replica.latest_safe_csn().expect("derived");
    assert!(
        safe > marker_baseline,
        "the follower advanced past where a marker replica would be stuck"
    );
    // And the derived snapshot serves fresh data: the chain's updates are
    // visible well past the pre-chain snapshot.
    let mut q = replica.begin_safe_query().unwrap();
    let sum: i64 = q
        .scan("kv")
        .unwrap()
        .iter()
        .filter_map(|r| r[1].as_int())
        .sum();
    assert!(
        sum > 0,
        "safe query on the derived snapshot sees chain writes"
    );
    q.commit().unwrap();

    // Closing the chain with nothing else in flight is the one commit §7.2
    // would finally have marked. It resolves the last mid-chain candidate
    // (one more wait avoided) and its own candidate is safe on arrival —
    // derived, but not a wait avoided: there the two rules converge.
    prev.commit().unwrap();
    replica.catch_up();
    assert_eq!(
        commits_the_marker_protocol_would_mark(&db),
        marked_before + 1,
        "the quiescent final commit is exactly one §7.2 marker"
    );
    let closed = db.stats_report();
    assert_eq!(closed.repl_safe_local, report.repl_safe_local + 2);
    assert_eq!(
        closed.repl_marker_waits_avoided,
        report.repl_marker_waits_avoided + 1
    );
    assert!(replica.latest_safe_csn().expect("derived") > safe);
}
