//! The per-owner counter tallies are exact at every exit.
//!
//! `acquisitions`, `local_accumulated` and `batches_published` used to be
//! bumped on the shared counters once per read; they now accumulate in the
//! owner's record and are added once per transaction. Nothing may be lost or
//! double-counted on the way, whichever way the owner leaves the manager:
//!
//! 1. **commit, retained, cleaned later** — `flush_tallies` at commit, the
//!    owner lingers (its locks outlive it), `release_owner` at cleanup;
//! 2. **abort** — `release_owner` alone;
//! 3. **safe-snapshot release** — a *peer* releases the owner mid-flight; its
//!    later reads are dropped (and were never counted before either), and its
//!    own commit-time flush finds nothing;
//! 4. **§6.2 consolidation** — `consolidate_owner` folds the locks onto the
//!    dummy owner, with or without a commit-time flush before it.
//!
//! The expected values are what the per-read bumps produced: one acquisition
//! per read not already covered, one local accumulation per acquisition in
//! batched mode, one batch per boundary spill or non-empty explicit publish.

use pgssi_common::{CommitSeqNo, LockTarget, RelId, SsiConfig};
use pgssi_lockmgr::siread::{OwnerHandle, SireadLockManager};
use pgssi_lockmgr::OwnerId;

const R: RelId = RelId(1);
const BATCH: usize = 4;
/// Distinct tuple reads per transaction, one per page (no promotion).
const READS: u32 = 10;

fn manager(read_batch: usize) -> SireadLockManager {
    SireadLockManager::new(SsiConfig {
        read_batch,
        ..SsiConfig::default()
    })
}

/// How one transaction leaves the manager.
#[derive(Clone, Copy, Debug)]
enum Exit {
    CommitThenCleanup,
    Abort,
    PeerSafeRelease,
    ConsolidateAfterFlush,
    ConsolidateUnflushed,
}

const EXITS: [Exit; 5] = [
    Exit::CommitThenCleanup,
    Exit::Abort,
    Exit::PeerSafeRelease,
    Exit::ConsolidateAfterFlush,
    Exit::ConsolidateUnflushed,
];

/// `(acquisitions, local_accumulated, batches_published)` right now.
fn counters(m: &SireadLockManager) -> (u64, u64, u64) {
    (
        m.acquisitions.get(),
        m.local_accumulated.get(),
        m.batches_published.get(),
    )
}

/// What one transaction's reads must add, given the batch size.
fn expected(read_batch: usize, reads: u64, explicit_publish: bool) -> (u64, u64, u64) {
    if read_batch <= 1 {
        return (reads, 0, 0);
    }
    let spills = reads / read_batch as u64;
    let leftover = reads % read_batch as u64;
    let explicit = u64::from(explicit_publish && leftover > 0);
    (reads, reads, spills + explicit)
}

/// `READS` distinct reads, each followed by a duplicate, which does not count.
fn read_all(m: &SireadLockManager, h: &OwnerHandle, base: u32) {
    for i in 0..READS {
        let t = LockTarget::Tuple(R, base + i, 0);
        m.acquire_for(h, t);
        m.acquire_for(h, t); // duplicate
    }
}

/// Run one transaction of owner `id` through `exit`; returns what it must
/// have added to the shared counters once it is gone.
fn run_txn(m: &SireadLockManager, read_batch: usize, id: OwnerId, exit: Exit) -> (u64, u64, u64) {
    let h = m.register_owner(id);
    let base = id as u32 * 1000;
    match exit {
        Exit::CommitThenCleanup => {
            read_all(m, &h, base);
            // First own write / PREPARE publishes the tail of the read set.
            m.publish_pending_for(&h);
            m.flush_tallies(&h); // commit
            m.release_owner(id); // cleanup, much later: must add nothing more
            expected(read_batch, READS as u64, true)
        }
        Exit::Abort => {
            read_all(m, &h, base);
            m.release_owner(id);
            expected(read_batch, READS as u64, false)
        }
        Exit::PeerSafeRelease => {
            // Half the reads, then a committing peer proves the snapshot safe
            // and releases the owner; the rest are dropped uncounted.
            for i in 0..READS / 2 {
                m.acquire_for(&h, LockTarget::Tuple(R, base + i, 0));
            }
            m.release_owner(id);
            for i in READS / 2..READS {
                m.acquire_for(&h, LockTarget::Tuple(R, base + i, 0));
            }
            m.flush_tallies(&h); // the owner's own commit: nothing left
            expected(read_batch, (READS / 2) as u64, false)
        }
        Exit::ConsolidateAfterFlush => {
            read_all(m, &h, base);
            m.flush_tallies(&h);
            m.consolidate_owner(id, CommitSeqNo(id));
            expected(read_batch, READS as u64, false)
        }
        Exit::ConsolidateUnflushed => {
            read_all(m, &h, base);
            m.consolidate_owner(id, CommitSeqNo(id));
            expected(read_batch, READS as u64, false)
        }
    }
}

fn add(a: (u64, u64, u64), b: (u64, u64, u64)) -> (u64, u64, u64) {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

#[test]
fn every_exit_leaves_the_counters_exact() {
    for read_batch in [BATCH, 1] {
        let m = manager(read_batch);
        let mut want = (0, 0, 0);
        let mut id: OwnerId = 1;
        for round in 0..6 {
            for exit in EXITS {
                want = add(want, run_txn(&m, read_batch, id, exit));
                assert_eq!(
                    counters(&m),
                    want,
                    "read_batch {read_batch}, round {round}, after {exit:?}"
                );
                id += 1;
            }
        }
        m.drop_old_committed_before(CommitSeqNo(u64::MAX));
        assert_eq!(m.total_lock_count(), 0);
        assert_eq!(m.filter_pending_total(), 0);
    }
}

#[test]
fn handle_and_id_paths_count_alike() {
    let by_handle = manager(BATCH);
    let by_id = manager(BATCH);
    let h = by_handle.register_owner(1);
    by_id.register_owner(1);
    for i in 0..READS {
        let t = LockTarget::Tuple(R, i, 0);
        by_handle.acquire_for(&h, t);
        by_id.acquire(1, t);
    }
    by_handle.release_owner(1);
    by_id.release_owner(1);
    assert_eq!(counters(&by_handle), counters(&by_id));
    assert_eq!(
        counters(&by_id),
        expected(BATCH, READS as u64, false),
        "id-taking acquire reaches the same routine"
    );
}

#[test]
fn concurrent_transactions_sum_exactly() {
    const THREADS: u64 = 4;
    const TXNS: u64 = 50;
    let m = manager(BATCH);
    let want = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = &m;
                s.spawn(move || {
                    (0..TXNS).fold((0, 0, 0), |sum, j| {
                        let exit = EXITS[j as usize % EXITS.len()];
                        add(sum, run_txn(m, BATCH, 1 + t * TXNS + j, exit))
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((0, 0, 0), |sum, w| add(sum, w.join().unwrap()))
    });
    assert_eq!(counters(&m), want);
}
