//! Model-based and concurrency tests for the sharded transaction manager.
//!
//! Sharded txid allocation may change which ids get handed out and how fast,
//! never what any snapshot *means*. Two checks enforce that:
//!
//! 1. a proptest model test drives randomized begin / commit / abort /
//!    snapshot sequences (begins spread over explicit shards) against
//!    `RefTm`, a reimplementation of the seed's lock-everything manager,
//!    asserting that every observable agrees under an id bijection — commit
//!    CSNs, clog statuses, the snapshot frontier, and, for every snapshot
//!    ever taken and every transaction ever begun, whether the snapshot sees
//!    it as committed before it;
//! 2. a racing begin/commit/snapshot stress test asserts the invariant that
//!    makes a snapshot one number (paper §4.1): every commit that returned
//!    before the snapshot call is below its frontier, and no xid that did not
//!    read `Committed(c < S.csn)` right after S was taken ever reads so later.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pgssi_common::{CommitSeqNo, Snapshot, TxnConfig, TxnId};
use pgssi_storage::{CommitLog, TxnManager, TxnStatus};
use proptest::prelude::*;

/// Whether `snap` sees the transaction whose clog status is `status` as
/// committed before it: the visibility rule, spelled out once.
fn sees(snap: &Snapshot, status: TxnStatus) -> bool {
    matches!(status, TxnStatus::Committed(c) if snap.committed_before(c))
}

// ---------------------------------------------------------------------------
// Reference model: the seed-era single-mutex manager.
// ---------------------------------------------------------------------------

struct RefState {
    next_txid: u64,
    next_csn: u64,
}

/// Lock-everything reimplementation of the pre-sharding `TxnManager`: one
/// mutex orders begins, snapshots, and finishes, and ids are issued in order.
struct RefTm {
    clog: CommitLog,
    state: Mutex<RefState>,
}

impl RefTm {
    fn new() -> RefTm {
        RefTm {
            clog: CommitLog::new(),
            state: Mutex::new(RefState {
                next_txid: TxnId::FIRST_NORMAL.0,
                next_csn: CommitSeqNo::FIRST.0,
            }),
        }
    }

    fn begin(&self) -> TxnId {
        let mut st = self.state.lock().unwrap();
        let txid = TxnId(st.next_txid);
        st.next_txid += 1;
        drop(st);
        self.clog.register(txid);
        txid
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::at(CommitSeqNo(self.state.lock().unwrap().next_csn))
    }

    fn commit(&self, xid: TxnId) -> CommitSeqNo {
        let mut st = self.state.lock().unwrap();
        let csn = CommitSeqNo(st.next_csn);
        st.next_csn += 1;
        self.clog.set_committed(xid, csn);
        csn
    }

    fn abort(&self, xid: TxnId) {
        let _st = self.state.lock().unwrap();
        self.clog.set_aborted(xid);
    }
}

// ---------------------------------------------------------------------------
// Proptest: randomized op sequences, observables must agree.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Begin on the given (real-manager) shard.
    Begin(usize),
    /// Commit the i-th oldest open transaction, if any.
    Commit(usize),
    /// Abort the i-th oldest open transaction, if any.
    Abort(usize),
    /// Take snapshots from both managers and keep them.
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4).prop_map(Op::Begin),
        2 => (0usize..8).prop_map(Op::Commit),
        1 => (0usize..8).prop_map(Op::Abort),
        3 => Just(Op::Snapshot),
    ]
}

/// Every kept snapshot pair must judge every id pair alike, now — not just
/// when it was taken. (The proptest shim's `prop_assert!` is a plain
/// assertion, so this helper asserts directly; the `proptest!` wrapper prints
/// the generated inputs on panic.)
fn assert_visibility_agrees(
    pairs: &[(TxnId, TxnId)],
    snaps: &[(Snapshot, Snapshot)],
    model: &RefTm,
    real: &TxnManager,
) {
    for (ms, rs) in snaps {
        assert_eq!(ms.csn, rs.csn, "frontier must match");
        for &(m, r) in pairs {
            assert_eq!(
                sees(ms, model.clog.status(m)),
                sees(rs, real.status(r)),
                "visibility diverged for model {m:?} / real {r:?} under {rs:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_manager_matches_lock_everything_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        shards in 1usize..5,
        block in 1u64..9,
    ) {
        let model = RefTm::new();
        let real = TxnManager::with_config(&TxnConfig { id_shards: shards, txid_block: block });
        // (model id, real id) for every transaction ever begun; open ones too.
        let mut pairs: Vec<(TxnId, TxnId)> = Vec::new();
        let mut open: Vec<(TxnId, TxnId)> = Vec::new();
        let mut snaps: Vec<(Snapshot, Snapshot)> = Vec::new();

        for op in ops {
            match op {
                Op::Begin(shard) => {
                    let pair = (model.begin(), real.begin_on_shard(shard));
                    pairs.push(pair);
                    open.push(pair);
                }
                Op::Commit(i) => {
                    if open.is_empty() { continue; }
                    let (m, r) = open.remove(i % open.len());
                    let mc = model.commit(m);
                    let rc = real.commit(&[r]);
                    prop_assert_eq!(mc, rc, "commit CSNs must match");
                }
                Op::Abort(i) => {
                    if open.is_empty() { continue; }
                    let (m, r) = open.remove(i % open.len());
                    model.abort(m);
                    real.abort(&[r]);
                }
                Op::Snapshot => snaps.push((model.snapshot(), real.snapshot())),
            }
            // Clog statuses must agree continuously, not just at snapshot
            // points.
            for &(m, r) in &pairs {
                prop_assert_eq!(model.clog.status(m), real.status(r), "clog status diverged");
            }
            prop_assert_eq!(model.snapshot().csn, real.frontier(), "frontier diverged");
            assert_visibility_agrees(&pairs, &snaps, &model, &real);
        }
    }
}

// ---------------------------------------------------------------------------
// Racing begin/commit/snapshot stress: the clog/frontier invariant.
// ---------------------------------------------------------------------------

/// Snapshots whose unseen ids are re-read after the run (bounded memory).
const RECHECKED_SNAPSHOTS: usize = 50_000;

const WORKERS: usize = 4;

/// Worker threads begin and finish transactions (each with a subtransaction,
/// so a commit stamps two clog entries) while snapshot threads take
/// snapshots and check both halves of the invariant the SSI core's
/// "committed before snapshot" tests (paper §4.1) and MVCC visibility stand
/// on:
///
/// * every commit that fully completed before the snapshot call is below the
///   snapshot's frontier (checked on each worker's latest such commit: a
///   worker's earlier commits have smaller CSNs);
/// * every id that is in flight and not seen right after the snapshot was
///   taken is still not seen once the run is over and every status is final
///   — no xid turns "committed before S" after S was taken.
#[test]
fn racing_begin_commit_snapshot_preserves_mutual_consistency() {
    let tm = TxnManager::with_config(&TxnConfig {
        id_shards: 4,
        txid_block: 8,
    });
    // Per worker: its latest completed commit, and the ids it has begun and
    // not yet finished.
    let committed: Vec<Mutex<Option<(TxnId, CommitSeqNo)>>> =
        (0..WORKERS).map(|_| Mutex::new(None)).collect();
    let in_flight: Vec<Mutex<Vec<TxnId>>> = (0..WORKERS).map(|_| Mutex::new(Vec::new())).collect();
    let stop = AtomicBool::new(false);
    // (snapshot, ids in flight and unseen right after it), re-read at the end.
    let unseen: Mutex<Vec<(Snapshot, Vec<TxnId>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for shard in 0..WORKERS {
            let (tm, stop) = (&tm, &stop);
            let (committed, in_flight) = (&committed[shard], &in_flight[shard]);
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let xids = [tm.begin_on_shard(shard), tm.begin_on_shard(shard)];
                    in_flight.lock().unwrap().extend(xids);
                    if n % 5 == 4 {
                        tm.abort(&xids);
                    } else {
                        let csn = tm.commit(&xids);
                        // Publish *after* the commit returns: any snapshot
                        // call that starts after this store must see it.
                        *committed.lock().unwrap() = Some((xids[0], csn));
                    }
                    in_flight.lock().unwrap().clear();
                    n += 1;
                }
            });
        }
        for _ in 0..2 {
            let (tm, stop, committed, in_flight, unseen) =
                (&tm, &stop, &committed, &in_flight, &unseen);
            scope.spawn(move || {
                let mut last_csn = CommitSeqNo(0);
                while !stop.load(Ordering::Relaxed) {
                    let done: Vec<(TxnId, CommitSeqNo)> = committed
                        .iter()
                        .filter_map(|c| *c.lock().unwrap())
                        .collect();
                    let snap = tm.snapshot();
                    let mut not_seen: Vec<TxnId> = Vec::new();
                    for f in in_flight {
                        let f = f.lock().unwrap();
                        not_seen.extend(f.iter().filter(|&&x| !sees(&snap, tm.status(x))));
                    }
                    // Frontier monotonicity per observer.
                    assert!(snap.csn >= last_csn, "snapshot frontier went backwards");
                    last_csn = snap.csn;
                    for (t, csn) in done {
                        assert!(
                            snap.committed_before(csn),
                            "{t:?} committed (csn {csn:?}) before snapshot (frontier \
                             {:?}) but is not below the frontier",
                            snap.csn
                        );
                        assert!(sees(&snap, tm.status(t)), "{t:?} committed before {snap:?}");
                    }
                    let mut u = unseen.lock().unwrap();
                    if u.len() < RECHECKED_SNAPSHOTS && !not_seen.is_empty() {
                        u.push((snap, not_seen));
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    let unseen = unseen.into_inner().unwrap();
    assert!(
        !unseen.is_empty(),
        "no snapshot raced an in-flight transaction"
    );
    for (snap, ids) in unseen {
        for x in ids {
            let status = tm.status(x);
            assert!(
                !sees(&snap, status),
                "{x:?} did not read as committed before {snap:?} right after it was \
                 taken, but now reads {status:?}"
            );
        }
    }
}
