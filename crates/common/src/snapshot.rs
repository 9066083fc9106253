//! MVCC snapshots.
//!
//! A snapshot captures "the set of transactions whose effects are visible"
//! (paper §5.1) as one number: the commit-sequence frontier `csn` when it was
//! taken. A transaction that committed with sequence number `c` is visible
//! iff `c < csn`. PostgreSQL describes that instant twice — the xid list
//! (`xmin`, `xmax`, `xip`) for MVCC, and `SerCommitSeqNo` for SSI's
//! "committed before this snapshot?" (§4.1); the clog here stores every
//! commit's CSN, so the frontier alone answers both. `pgssi_storage::txn`
//! argues why reading the frontier is a consistent cut.

use crate::ids::{CommitSeqNo, TxnId};

/// An MVCC snapshot: the commit frontier at snapshot time.
///
/// Whether a transaction committed, and with which CSN, is *not* recorded
/// here; callers consult the commit log, as PostgreSQL's visibility checks
/// consult clog separately from the snapshot.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Commit-sequence frontier: every transaction with `commit_csn < csn`
    /// committed before this snapshot was taken, and no others did.
    pub csn: CommitSeqNo,
    /// Always empty: the xid list is gone. Kept only because the observatory
    /// benchmark's storage probe reads `xip.len()`; zero bytes, so the
    /// snapshot stays one number.
    pub xip: [TxnId; 0],
}

impl Snapshot {
    /// The snapshot whose frontier is `csn`.
    #[inline]
    pub const fn at(csn: CommitSeqNo) -> Snapshot {
        Snapshot { csn, xip: [] }
    }

    /// True if a transaction that committed with sequence number `csn` committed
    /// before this snapshot was taken.
    #[inline]
    pub fn committed_before(&self, csn: CommitSeqNo) -> bool {
        csn.is_valid() && csn < self.csn
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot[{:?}]", self.csn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_before_respects_frontier() {
        let s = Snapshot::at(CommitSeqNo(5));
        assert!(s.committed_before(CommitSeqNo(4)));
        assert!(!s.committed_before(CommitSeqNo(5)));
        assert!(!s.committed_before(CommitSeqNo(6)));
        assert!(!s.committed_before(CommitSeqNo::INVALID));
    }
}
