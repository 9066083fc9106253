//! Scenario tests driving the SSI manager exactly as the engine does, using the
//! paper's own examples: simple write skew (Figure 1 / §2.1.1), the
//! batch-processing anomaly (Figure 2 / §2.1.2), the read-only optimizations
//! (§4), safe retry (§5.4), memory-bounding behaviours (§6), and two-phase
//! commit (§7.1).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use pgssi_common::{
    CommitSeqNo, Error, LockTarget, RelId, Result, SerializationKind, SsiConfig, TxnId,
};
use pgssi_core::{SafetyState, SsiManager, SxactHandle};
use pgssi_storage::visibility::VisEvent;
use pgssi_storage::TxnManager;

/// A minimal stand-in for the engine: pairs a transaction manager with the SSI
/// manager and drives both the way the real engine does.
struct Harness {
    tm: TxnManager,
    ssi: SsiManager,
    /// The handle `begin` returned for each transaction, kept for its whole
    /// life as the engine's `Transaction` keeps it ([`Harness::hd`]).
    handles: Mutex<HashMap<TxnId, SxactHandle>>,
}

/// One running serializable transaction in the harness.
#[derive(Clone, Copy)]
struct T {
    txid: TxnId,
}

const REL: RelId = RelId(1);

fn tuple(n: u16) -> LockTarget {
    LockTarget::Tuple(REL, 0, n)
}

impl Harness {
    fn new(config: SsiConfig) -> Harness {
        Harness {
            tm: TxnManager::new(),
            ssi: SsiManager::new(config),
            handles: Mutex::new(HashMap::new()),
        }
    }

    /// The transaction's own handle.
    fn hd(&self, t: T) -> SxactHandle {
        self.handles.lock().unwrap()[&t.txid].clone()
    }

    fn begin(&self) -> T {
        self.begin_opts(false, false)
    }

    fn begin_ro(&self) -> T {
        self.begin_opts(true, false)
    }

    fn begin_opts(&self, ro: bool, deferrable: bool) -> T {
        let txid = self.tm.begin();
        let snap = self.tm.snapshot();
        let handle = self.ssi.begin(txid, || snap.csn, ro, deferrable);
        self.handles.lock().unwrap().insert(txid, handle);
        T { txid }
    }

    /// Read an object: take the SIREAD lock. If `written_by_concurrent` is set,
    /// the storage layer would additionally have reported an MVCC conflict-out
    /// event against that writer (we fabricate it, as the heap would).
    fn read(&self, t: T, obj: u16) -> Result<()> {
        self.ssi.check_doomed(&self.hd(t))?;
        self.ssi.on_read(&self.hd(t), &[tuple(obj)]);
        Ok(())
    }

    /// Read that observed a newer, invisible version created by `writer`.
    fn read_seeing_concurrent_write(&self, t: T, obj: u16, writer: TxnId) -> Result<()> {
        self.ssi.check_doomed(&self.hd(t))?;
        self.ssi.on_read(&self.hd(t), &[tuple(obj)]);
        self.ssi.on_mvcc_events(
            &self.hd(t),
            &[VisEvent::ConflictOutDeleter(writer)],
            self.tm.clog(),
        )
    }

    /// Write an object: check SIREAD holders.
    fn write(&self, t: T, obj: u16) -> Result<()> {
        self.ssi.check_doomed(&self.hd(t))?;
        self.ssi.on_write(
            &self.hd(t),
            &tuple(obj).check_chain(),
            Some(tuple(obj)),
            false,
        )
    }

    fn commit(&self, t: T) -> Result<CommitSeqNo> {
        self.ssi.precommit(&self.hd(t), self.tm.snapshot().csn)?;
        // Engine-faithful: the order-mutex-authoritative pivot re-check runs
        // at commit, exactly as `Transaction::commit` does.
        self.ssi
            .commit(&self.hd(t), || self.tm.commit(&[t.txid]), |_| {})
    }

    fn abort(&self, t: T) {
        self.tm.abort(&[t.txid]);
        self.ssi.abort(&self.hd(t), |_| {});
    }
}

fn assert_serialization_failure(r: Result<CommitSeqNo>) -> SerializationKind {
    match r {
        Err(Error::SerializationFailure { kind, .. }) => kind,
        other => panic!("expected serialization failure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Figure 1: simple write skew
// ---------------------------------------------------------------------------

/// Both doctors-on-call transactions read both rows and each updates one; under
/// SSI exactly one must abort, and the *second committer* is the victim (the
/// first committer's pre-commit check dooms the remaining pivot).
#[test]
fn write_skew_aborts_exactly_one() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin();
    let t2 = h.begin();
    // Both read Alice (0) and Bob (1).
    h.read(t1, 0).unwrap();
    h.read(t1, 1).unwrap();
    h.read(t2, 0).unwrap();
    h.read(t2, 1).unwrap();
    // T1 takes Alice off call; T2 takes Bob off call.
    h.write(t1, 0).unwrap();
    h.write(t2, 1).unwrap();
    // First committer wins.
    h.commit(t1).unwrap();
    let kind = assert_serialization_failure(h.commit(t2));
    assert_eq!(kind, SerializationKind::Doomed);
    h.abort(t2);
}

/// The same interleaving where T2 notices its doom at the next operation rather
/// than commit.
#[test]
fn write_skew_doomed_noticed_at_next_read() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin();
    let t2 = h.begin();
    h.read(t1, 0).unwrap();
    h.read(t1, 1).unwrap();
    h.read(t2, 0).unwrap();
    h.read(t2, 1).unwrap();
    h.write(t1, 0).unwrap();
    h.write(t2, 1).unwrap();
    h.commit(t1).unwrap();
    let err = h.read(t2, 2).unwrap_err();
    assert!(matches!(
        err,
        Error::SerializationFailure {
            kind: SerializationKind::Doomed,
            ..
        }
    ));
    h.abort(t2);
}

/// Safe retry (§5.4): after the failure, retrying the aborted transaction runs
/// against the committed winner without conflict.
#[test]
fn write_skew_retry_succeeds() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin();
    let t2 = h.begin();
    for t in [t1, t2] {
        h.read(t, 0).unwrap();
        h.read(t, 1).unwrap();
    }
    h.write(t1, 0).unwrap();
    h.write(t2, 1).unwrap();
    h.commit(t1).unwrap();
    assert_serialization_failure(h.commit(t2));
    h.abort(t2);
    // Immediate retry of T2's work.
    let t2r = h.begin();
    h.read(t2r, 0).unwrap();
    h.read(t2r, 1).unwrap();
    h.write(t2r, 1).unwrap();
    h.commit(t2r).expect("retried transaction must succeed");
}

/// Without any committed T3 the structure is not yet dangerous: two rw-conflicts
/// alone don't abort anyone while all transactions are in flight.
#[test]
fn no_abort_before_any_commit() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin();
    let t2 = h.begin();
    for t in [t1, t2] {
        h.read(t, 0).unwrap();
        h.read(t, 1).unwrap();
    }
    h.write(t1, 0).unwrap();
    h.write(t2, 1).unwrap();
    assert!(!h.hd(t1).is_doomed());
    assert!(!h.hd(t2).is_doomed());
    h.abort(t1);
    h.commit(t2).expect("T2 is fine once T1 aborted");
}

// ---------------------------------------------------------------------------
// Figure 2: batch processing (three transactions, one read-only)
// ---------------------------------------------------------------------------

/// The full Figure 2 anomaly. Objects: control row (0) and the receipts
/// predicate (1). Order of events follows the figure:
/// T2 (NEW-RECEIPT) reads control, inserts a receipt; T3 (CLOSE-BATCH)
/// increments control and commits; T1 (REPORT) starts afterwards, reads control
/// and scans receipts. T1's snapshot sees T3 but not T2 — non-serializable.
#[test]
fn batch_processing_anomaly_detected() {
    let h = Harness::new(SsiConfig::default());
    let t2 = h.begin(); // NEW-RECEIPT
    let t3 = h.begin(); // CLOSE-BATCH

    // T2 reads the control row (current batch number).
    h.read(t2, 0).unwrap();
    // T3 increments the control row: rw edge T2 → T3.
    h.write(t3, 0).unwrap();
    let t3_csn = h.commit(t3).unwrap();

    // T1 (REPORT) starts after T3's commit: snapshot sees T3.
    let t1 = h.begin_ro();
    assert!(h.tm.snapshot().committed_before(t3_csn));
    // T1 reads control and scans receipts.
    h.read(t1, 0).unwrap();
    h.read(t1, 1).unwrap();
    // T2 now inserts its receipt into the scanned range: rw edge T1 → T2,
    // completing T1 → T2 → T3 with T3 committed before T1's snapshot.
    // T2 is the pivot and still active: it gets doomed (or fails directly).
    let write_result = h.write(t2, 1);
    let commit_result = write_result.and_then(|_| h.commit(t2));
    let kind = assert_serialization_failure(commit_result);
    assert!(
        kind == SerializationKind::PivotAbort || kind == SerializationKind::Doomed,
        "pivot T2 must be the victim, got {kind:?}"
    );
    h.abort(t2);
    // The read-only report itself never fails.
    h.commit(t1).unwrap();
}

/// Read-only snapshot ordering rule (§4.1): if T1 takes its snapshot *before*
/// T3 commits, the execution is serializable (T1, T2, T3) and the read-only
/// optimization avoids any abort. Without the optimization, the same history
/// aborts someone (false positive) — this is the ablation pair.
#[test]
fn read_only_opt_avoids_false_positive() {
    for (ro_opt, expect_abort) in [(true, false), (false, true)] {
        let config = SsiConfig {
            enable_read_only_opt: ro_opt,
            ..SsiConfig::default()
        };
        let h = Harness::new(config);

        let t2 = h.begin(); // NEW-RECEIPT
        h.read(t2, 0).unwrap();

        let t1 = h.begin_ro(); // REPORT starts BEFORE t3 commits
        let t3 = h.begin(); // CLOSE-BATCH
        h.read(t1, 1).unwrap(); // T1 scans receipts only (no control read)

        h.write(t3, 0).unwrap(); // rw edge T2 → T3
        h.commit(t3).unwrap();

        // T2 inserts a receipt T1's scan missed: rw edge T1 → T2. Dangerous
        // structure T1 → T2 → T3 exists, but T3 committed *after* T1's snapshot,
        // so with the read-only rule there is no anomaly.
        let result = h.write(t2, 1).and_then(|_| h.commit(t2));
        if expect_abort {
            assert_serialization_failure(result);
            h.abort(t2);
        } else {
            result.expect("read-only rule must disregard this structure");
            h.commit(t1).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Commit-ordering optimization (§3.3.1)
// ---------------------------------------------------------------------------

/// T1 → T2 → T3 where T1 commits before T3: no abort required (T3 is not the
/// first committer).
#[test]
fn commit_ordering_opt_avoids_false_positive() {
    let h = Harness::new(SsiConfig {
        enable_read_only_opt: false, // isolate the commit-ordering rule
        ..SsiConfig::default()
    });

    let t1 = h.begin();
    let t2 = h.begin();
    let t3 = h.begin();
    // T1 reads A; T2 writes A (edge T1 → T2).
    h.read(t1, 0).unwrap();
    // T2 reads B; T3 writes B (edge T2 → T3).
    h.read(t2, 1).unwrap();
    h.write(t2, 0).unwrap();
    h.write(t3, 1).unwrap();
    // T1 commits first, then T3, then T2: the cycle condition (T3 first)
    // never holds.
    h.commit(t1).unwrap();
    h.commit(t3).unwrap();
    h.commit(t2).unwrap();
}

// ---------------------------------------------------------------------------
// Safe snapshots and deferrable transactions (§4.2–4.3)
// ---------------------------------------------------------------------------

#[test]
fn read_only_with_no_concurrent_rw_is_immediately_safe() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin_ro();
    assert_eq!(h.ssi.snapshot_safety(&h.hd(t1)), SafetyState::Safe);
    // Safe transactions take no SIREAD locks.
    h.read(t1, 0).unwrap();
    assert_eq!(h.ssi.siread().owner_lock_count(t1.txid.0), 0);
    h.commit(t1).unwrap();
}

#[test]
fn safety_established_when_concurrent_rw_commits_cleanly() {
    let h = Harness::new(SsiConfig::default());
    let w = h.begin(); // concurrent RW
    let r = h.begin_ro();
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Pending);
    // While pending, the reader maintains SIREAD locks.
    h.read(r, 0).unwrap();
    assert_eq!(h.ssi.siread().owner_lock_count(r.txid.0), 1);
    // The writer commits without any conflict out to a pre-snapshot commit.
    h.write(w, 1).unwrap();
    h.commit(w).unwrap();
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Safe);
    // Locks were dropped on the spot.
    assert_eq!(h.ssi.siread().owner_lock_count(r.txid.0), 0);
    h.commit(r).unwrap();
}

#[test]
fn safety_denied_when_concurrent_rw_conflicts_out_to_presnapshot_commit() {
    let h = Harness::new(SsiConfig::default());
    // T3 will commit before the reader's snapshot.
    let t3 = h.begin();
    h.write(t3, 0).unwrap();
    // T2 is concurrent with both and reads the version T3 replaces.
    let t2 = h.begin();
    h.read(t2, 0).unwrap(); // SIREAD on object 0
    h.write(t3, 0).unwrap(); // edge T2 → T3 via SIREAD
    h.commit(t3).unwrap();

    let r = h.begin_ro(); // snapshot taken after T3's commit
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Pending);
    // T2 commits having a conflict out to T3, which committed before r's
    // snapshot → r's snapshot is unsafe.
    h.write(t2, 2).unwrap();
    h.commit(t2).unwrap();
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Unsafe);
    h.commit(r).unwrap();
}

#[test]
fn aborted_writer_cannot_make_snapshot_unsafe() {
    let h = Harness::new(SsiConfig::default());
    let w = h.begin();
    let r = h.begin_ro();
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Pending);
    h.abort(w);
    assert_eq!(h.ssi.snapshot_safety(&h.hd(r)), SafetyState::Safe);
}

#[test]
fn wait_for_safety_blocks_until_decision() {
    use std::sync::Arc;
    let h = Arc::new(Harness::new(SsiConfig::default()));
    let w = h.begin();
    let r = h.begin_ro();
    let h2 = Arc::clone(&h);
    let waiter =
        std::thread::spawn(move || h2.ssi.wait_for_safety(&h2.hd(r), Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(30));
    h.write(w, 0).unwrap();
    h.commit(w).unwrap();
    assert_eq!(waiter.join().unwrap(), SafetyState::Safe);
}

// ---------------------------------------------------------------------------
// Memory bounding (§6)
// ---------------------------------------------------------------------------

#[test]
fn committed_records_are_cleaned_at_horizon() {
    let h = Harness::new(SsiConfig::default());
    for i in 0..10 {
        let t = h.begin();
        h.read(t, i).unwrap();
        h.write(t, i).unwrap();
        h.commit(t).unwrap();
    }
    // No active transactions: everything is beyond the horizon.
    assert_eq!(h.ssi.record_count(), 0, "all records freed");
    assert_eq!(h.ssi.siread().total_lock_count(), 0, "all locks freed");
}

/// Theorem 3 at commit: a single-phase commit that wrote nothing can only be
/// the T1 of a dangerous structure, whose pivot needs a strictly older
/// snapshot. So it retires at its own commit — record, registry entry and
/// SIREAD locks — unless a read/write transaction with an older snapshot is
/// in flight, or the read-only optimization is off.
#[test]
fn writeless_commit_retires_at_once_unless_an_older_writer_is_in_flight() {
    let locks = |h: &Harness, t: T| h.ssi.siread().owner_lock_count(t.txid.0);

    // (i) Alone: nothing is retained once the commit returns.
    let h = Harness::new(SsiConfig::default());
    let r = h.begin();
    h.read(r, 0).unwrap();
    assert_eq!(locks(&h, r), 1);
    h.commit(r).unwrap();
    assert_eq!(h.ssi.committed_retained(), 0);
    assert_eq!(h.ssi.record_count(), 0);
    assert_eq!(locks(&h, r), 0);
    assert_eq!(h.ssi.siread().filter_pending_total(), 0);

    // (ii) An older-snapshot read/write transaction is in flight (a writer
    // committed between the two begins): the reader is retained.
    let h = Harness::new(SsiConfig::default());
    let old = h.begin();
    h.read(old, 9).unwrap();
    let w = h.begin();
    h.write(w, 5).unwrap();
    h.commit(w).unwrap();
    let r = h.begin();
    h.read(r, 0).unwrap();
    h.commit(r).unwrap();
    assert_eq!(h.ssi.committed_retained(), 2, "the writer and the reader");
    assert_eq!(locks(&h, r), 1);
    h.abort(old);
    assert_eq!(h.ssi.record_count(), 0);

    // (iii) The older transaction is declared READ ONLY: it can write
    // nothing, so it is no pivot, and the reader retires.
    let h = Harness::new(SsiConfig::default());
    let old = h.begin_ro();
    h.read(old, 9).unwrap();
    let w = h.begin();
    h.write(w, 5).unwrap();
    h.commit(w).unwrap();
    let r = h.begin();
    h.read(r, 0).unwrap();
    h.commit(r).unwrap();
    assert_eq!(h.ssi.committed_retained(), 1, "the writer only");
    assert_eq!(locks(&h, r), 0);

    // (iv) A read/write peer with the same snapshot is no pivot either (the
    // comparison is strict); only with the read-only optimization off does
    // the reader wait for §6.1.
    for opt in [true, false] {
        let h = Harness::new(SsiConfig {
            enable_read_only_opt: opt,
            ..SsiConfig::default()
        });
        let r = h.begin();
        let peer = h.begin();
        h.read(r, 0).unwrap();
        h.commit(r).unwrap();
        assert_eq!(h.ssi.committed_retained(), usize::from(!opt), "opt={opt}");
        assert_eq!(locks(&h, r), usize::from(!opt), "opt={opt}");
        h.abort(peer);
    }
}

#[test]
fn long_running_transaction_retains_then_releases_state() {
    let h = Harness::new(SsiConfig::default());
    let long = h.begin(); // pins the horizon
    h.read(long, 99).unwrap();
    for i in 0..10 {
        let t = h.begin();
        h.read(t, i).unwrap();
        h.write(t, i).unwrap();
        h.commit(t).unwrap();
    }
    assert!(
        h.ssi.committed_retained() >= 10,
        "locks must persist while a concurrent transaction lives"
    );
    h.commit(long).unwrap();
    assert_eq!(h.ssi.record_count(), 0);
}

#[test]
fn summarization_bounds_committed_records_under_pinned_horizon() {
    let config = SsiConfig {
        max_committed_sxacts: 4,
        ..SsiConfig::default()
    };
    let h = Harness::new(config);
    let long = h.begin(); // pins the horizon so cleanup can't run
    h.read(long, 99).unwrap();
    for i in 0..20 {
        let t = h.begin();
        h.read(t, i % 8).unwrap();
        h.write(t, i % 8).unwrap();
        h.commit(t).unwrap();
    }
    assert!(
        h.ssi.committed_retained() <= 4,
        "summarization must cap retained records, got {}",
        h.ssi.committed_retained()
    );
    assert!(h.ssi.stats.summarized.get() >= 16);
    h.commit(long).unwrap();
}

/// Conflicts against summarized transactions are still detected — with the
/// precise participants lost, the active transaction aborts (§6.2).
#[test]
fn summarized_conflicts_still_abort() {
    let config = SsiConfig {
        max_committed_sxacts: 0, // summarize immediately
        ..SsiConfig::default()
    };
    let h = Harness::new(config);

    let long = h.begin(); // keeps the horizon pinned
    h.read(long, 99).unwrap();

    // Set up write skew between `long`-concurrent transactions where the reader
    // side is summarized by the time the writer writes.
    let reader = h.begin();
    h.read(reader, 0).unwrap();
    h.write(reader, 1).unwrap();
    h.commit(reader).unwrap(); // summarized right away (cap = 0)
    assert!(h.ssi.stats.summarized.get() >= 1);

    let writer = h.begin_opts(false, false);
    // `writer` was started after reader committed — not concurrent, so no
    // conflict expected. Use `long` as the concurrent writer instead:
    let res = h.write(long, 0); // writes what `reader` read (summarized lock)
                                // `long` is concurrent with `reader` (reader committed after long began).
                                // The summarized SIREAD lock must still produce a summary conflict-in flag;
                                // whether it aborts depends on long's own out-conflicts (none) — so no
                                // abort here, but the conflict is registered.
    res.expect("no dangerous structure yet");
    // Now give `long` an out-conflict to a committed transaction: long reads
    // object 2, `w2` overwrites it and commits.
    h.read(long, 2).unwrap();
    let w2 = h.begin();
    h.write(w2, 2).unwrap();
    h.commit(w2).unwrap();
    // long now has: summarized conflict in (from reader) and out-conflict to
    // w2 (committed after reader... dangerous). Its commit must fail.
    let r = h.commit(long);
    assert!(
        r.is_err() || h.ssi.stats.dangerous_structures.get() > 0,
        "summary conflict must participate in dangerous-structure checks"
    );
    let _ = writer;
}

// ---------------------------------------------------------------------------
// Two-phase commit (§7.1)
// ---------------------------------------------------------------------------

/// A branch that wrote nothing on this shard may have written on another,
/// so its COMMIT PREPARED keeps the record: the rw edge a later writer
/// flagged against it must still be in that writer's facts at its own
/// PREPARE, where a cross-shard coordinator unions them.
#[test]
fn a_prepared_writeless_branch_keeps_its_edges_through_commit_prepared() {
    let h = Harness::new(SsiConfig::default());
    let x = h.begin();
    h.read(x, 0).unwrap();
    let y = h.begin();
    h.ssi.prepare(&h.hd(x), h.tm.snapshot().csn).unwrap();
    h.write(y, 0).unwrap(); // x –rw→ y
    h.ssi
        .commit(&h.hd(x), || h.tm.commit(&[x.txid]), |_| {})
        .unwrap();
    assert_eq!(h.ssi.committed_retained(), 1);
    let facts = h.ssi.prepare(&h.hd(y), h.tm.snapshot().csn).unwrap();
    assert!(
        facts.had_in_conflict,
        "the in-edge from x survives x's commit"
    );
}

/// The mirror: on a cluster shard a single-phase writeless commit keeps its
/// record too. The coordinator's union rule does not apply Theorem 3, so
/// the in-edge from `x` must reach `y`'s PREPARE facts even though `y`'s
/// snapshot ties `x`'s; `y` may be a pivot whose out-edge lies on another
/// shard. A standalone database retires `x` at its commit.
#[test]
fn a_single_phase_writeless_commit_on_a_cluster_shard_keeps_its_edges() {
    for shard in [true, false] {
        let h = Harness::new(SsiConfig::default());
        if shard {
            h.ssi.set_cluster_shard();
        }
        let x = h.begin();
        h.read(x, 0).unwrap();
        let y = h.begin();
        h.commit(x).unwrap();
        h.write(y, 0).unwrap();
        assert_eq!(h.ssi.committed_retained(), usize::from(shard));
        let facts = h.ssi.prepare(&h.hd(y), h.tm.snapshot().csn).unwrap();
        assert_eq!(facts.had_in_conflict, shard, "cluster shard: {shard}");
    }
}

#[test]
fn prepared_transaction_survives_recovery_and_commits() {
    let h = Harness::new(SsiConfig::default());
    let t = h.begin();
    h.read(t, 0).unwrap();
    h.write(t, 1).unwrap();
    let rec = h.ssi.prepare(&h.hd(t), h.tm.snapshot().csn).unwrap();
    assert!(rec.wrote);
    assert!(!rec.siread_locks.is_empty());

    // Simulate crash: rebuild SSI state from the record.
    let h2 = Harness::new(SsiConfig::default());
    let sx2 = h2.ssi.recover_prepared(&rec);
    assert_eq!(h2.ssi.active_count(), 1);
    // Recovered prepared transactions cannot be doomed (prepared phase).
    // COMMIT PREPARED succeeds.
    let txid2 = h2.tm.begin(); // stand-in for the recovered xid slot
    let _ = txid2;
    h2.ssi
        .commit(&sx2, || h2.tm.commit(&[rec.txid]), |_| {})
        .expect("a recovered prepared branch skips the pivot re-check");
}

#[test]
fn prepared_transaction_cannot_be_victim_active_one_dies_instead() {
    let h = Harness::new(SsiConfig::default());
    // Build T_active → T_prepared → T_committed (§7.1's example).
    let t_committed = h.begin();
    let t_prepared = h.begin();
    let t_active = h.begin();

    // T_prepared reads X; T_committed writes X (edge prepared → committed).
    h.read(t_prepared, 0).unwrap();
    h.write(t_committed, 0).unwrap();
    h.commit(t_committed).unwrap();

    // T_active reads Y.
    h.read(t_active, 1).unwrap();
    // T_prepared writes Y — but don't check yet; prepare first.
    h.ssi
        .prepare(&h.hd(t_prepared), h.tm.snapshot().csn)
        .expect("prepare must pass: structure incomplete so far");

    // Now the edge T_active → T_prepared forms (write after prepare).
    let res = h.write(t_prepared, 1);
    // The pivot (t_prepared) is prepared and unabortable; the victim must be
    // t_active — but t_prepared is the acting transaction here, so the failure
    // surfaces as dooming t_active.
    res.expect("acting prepared transaction must not fail");
    let err = h.read(t_active, 2).unwrap_err();
    assert!(matches!(err, Error::SerializationFailure { .. }));
    h.abort(t_active);
    h.ssi
        .commit(
            &h.hd(t_prepared),
            || h.tm.commit(&[t_prepared.txid]),
            |_| {},
        )
        .expect("COMMIT PREPARED skips the pivot re-check");
}

// ---------------------------------------------------------------------------
// MVCC-event-driven conflicts (write happened first, §5.2)
// ---------------------------------------------------------------------------

#[test]
fn mvcc_event_creates_edge_and_detects_committed_pivot() {
    let h = Harness::new(SsiConfig::default());
    // W is a pivot: in-edge from R2 (via SIREAD), out-edge to T3 (committed
    // first) — wait, build it so W commits and a late reader closes the cycle.
    let t3 = h.begin();
    h.write(t3, 5).unwrap();
    let w = h.begin();
    h.read(w, 5).unwrap(); // W reads old version of 5 → edge W → T3 when T3 commits? No: via SIREAD when T3 writes — already written. Use MVCC event instead.
    h.read_seeing_concurrent_write(w, 5, t3.txid).unwrap();
    h.commit(t3).unwrap();
    h.write(w, 6).unwrap();
    h.commit(w).unwrap(); // W committed with conflict out to T3 (T3 first)

    // A reader whose snapshot predates W's commit reads object 6 and sees W's
    // newer version → edge R → W. W is a committed pivot whose T3 committed
    // first → R must abort (rule 3: both others committed; retry is safe).
    let r = h.begin();
    // R's snapshot is after both commits... to make the edge, R must be
    // concurrent with W. Rebuild with correct interleaving:
    h.abort(r);

    let h = Harness::new(SsiConfig::default());
    let t3 = h.begin();
    let w = h.begin();
    let r = h.begin(); // concurrent with w
    h.read_seeing_concurrent_write(w, 5, t3.txid).unwrap(); // edge W → T3
    h.commit(t3).unwrap();
    h.write(w, 6).unwrap();
    h.commit(w).unwrap();
    // R reads 6, sees W's committed-after-snapshot version: edge R → W.
    let res = h.read_seeing_concurrent_write(r, 6, w.txid);
    let kind = assert_serialization_failure(res.map(|_| CommitSeqNo::INVALID));
    assert_eq!(kind, SerializationKind::NonPivotAbort);
    h.abort(r);
}

#[test]
fn mvcc_event_from_non_serializable_writer_is_ignored() {
    let h = Harness::new(SsiConfig::default());
    let r = h.begin();
    // A plain (non-serializable) transaction writes concurrently.
    let plain = h.tm.begin();
    h.tm.commit(&[plain]);
    h.read_seeing_concurrent_write(r, 0, plain)
        .expect("non-serializable writers never create SSI conflicts");
    h.commit(r).unwrap();
}

// ---------------------------------------------------------------------------
// Misc: doomed bookkeeping, stats
// ---------------------------------------------------------------------------

#[test]
fn stats_count_conflicts_and_structures() {
    let h = Harness::new(SsiConfig::default());
    let t1 = h.begin();
    let t2 = h.begin();
    h.read(t1, 0).unwrap();
    h.read(t2, 1).unwrap();
    h.write(t1, 1).unwrap();
    h.write(t2, 0).unwrap();
    h.commit(t1).unwrap();
    let _ = h.commit(t2);
    assert!(h.ssi.stats.conflicts_flagged.get() >= 2);
    assert!(h.ssi.stats.dangerous_structures.get() >= 1);
    h.abort(t2);
}

#[test]
fn write_lock_drop_optimization_removes_own_siread_lock() {
    let h = Harness::new(SsiConfig::default());
    let t = h.begin();
    h.read(t, 0).unwrap();
    assert_eq!(h.ssi.siread().owner_lock_count(t.txid.0), 1);
    h.write(t, 0).unwrap();
    assert_eq!(
        h.ssi.siread().owner_lock_count(t.txid.0),
        0,
        "write lock subsumes the SIREAD lock (§7.3)"
    );
}

#[test]
fn write_lock_drop_suppressed_in_subtransaction() {
    let h = Harness::new(SsiConfig::default());
    let t = h.begin();
    h.read(t, 0).unwrap();
    h.ssi
        .on_write(&h.hd(t), &tuple(0).check_chain(), Some(tuple(0)), true)
        .unwrap();
    assert_eq!(
        h.ssi.siread().owner_lock_count(t.txid.0),
        1,
        "SIREAD lock must survive a subtransaction write (§7.3)"
    );
}
