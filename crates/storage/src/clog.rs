//! The commit log ("clog"): transaction status lookups.
//!
//! Every visibility check consults the clog, so a lookup takes no lock and
//! writes nothing shared: statuses live in fixed-size segments of atomics,
//! created on first use in an [`OnceTable`] and read with plain loads.

use std::sync::atomic::{AtomicU64, Ordering};

use pgssi_common::{CommitSeqNo, TxnId};

use crate::once_table::OnceTable;

/// Transaction status as recorded in the commit log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    /// Still running (or never started; ids are marked in-progress when assigned).
    InProgress,
    /// Committed, with its commit sequence number.
    Committed(CommitSeqNo),
    /// Rolled back.
    Aborted,
}

impl TxnStatus {
    /// Commit sequence number if committed.
    #[inline]
    pub fn commit_csn(self) -> Option<CommitSeqNo> {
        match self {
            TxnStatus::Committed(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the transaction committed.
    #[inline]
    pub fn is_committed(self) -> bool {
        matches!(self, TxnStatus::Committed(_))
    }
}

const SEGMENT_BITS: usize = 14;
/// Entries per clog segment (16384).
const SEGMENT_SIZE: usize = 1 << SEGMENT_BITS;

// Encoding within an entry: 0 = in progress, 1 = aborted, n >= 2 = committed with
// csn = n - 2 + 1 (so CommitSeqNo::FIRST == 1 encodes as 2).
const ENC_IN_PROGRESS: u64 = 0;
const ENC_ABORTED: u64 = 1;
const ENC_COMMIT_BASE: u64 = 2;

struct Segment {
    entries: Box<[AtomicU64]>,
}

impl Segment {
    fn new() -> Segment {
        let mut v = Vec::with_capacity(SEGMENT_SIZE);
        v.resize_with(SEGMENT_SIZE, || AtomicU64::new(ENC_IN_PROGRESS));
        Segment {
            entries: v.into_boxed_slice(),
        }
    }
}

/// Append-only transaction status log.
///
/// The frozen bootstrap transaction ([`TxnId::FROZEN`]) is always reported as
/// committed with [`CommitSeqNo::FIRST`].
pub struct CommitLog {
    segments: OnceTable<Segment>,
}

impl Default for CommitLog {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitLog {
    /// Empty commit log.
    pub fn new() -> CommitLog {
        CommitLog {
            segments: OnceTable::new(),
        }
    }

    /// `(segment, entry)` indexes of `txid`'s status word.
    fn locate(txid: TxnId) -> (usize, usize) {
        debug_assert!(txid >= TxnId::FIRST_NORMAL, "no clog slot for {txid:?}");
        let idx = (txid.0 - TxnId::FIRST_NORMAL.0) as usize;
        (idx >> SEGMENT_BITS, idx & (SEGMENT_SIZE - 1))
    }

    /// The status word of `txid`, creating its segment if need be.
    fn entry(&self, txid: TxnId) -> &AtomicU64 {
        let (seg, off) = Self::locate(txid);
        &self.segments.get_or_init(seg, Segment::new).entries[off]
    }

    /// Ensure a slot exists for `txid` (called at transaction start).
    pub fn register(&self, txid: TxnId) {
        self.entry(txid).store(ENC_IN_PROGRESS, Ordering::Release);
    }

    /// Record a commit. Idempotent for the same CSN.
    pub fn set_committed(&self, txid: TxnId, csn: CommitSeqNo) {
        debug_assert!(csn.is_valid());
        self.entry(txid).store(
            csn.0 - CommitSeqNo::FIRST.0 + ENC_COMMIT_BASE,
            Ordering::Release,
        );
    }

    /// Record an abort.
    pub fn set_aborted(&self, txid: TxnId) {
        self.entry(txid).store(ENC_ABORTED, Ordering::Release);
    }

    /// Current status of `txid`.
    pub fn status(&self, txid: TxnId) -> TxnStatus {
        if txid.is_frozen() {
            return TxnStatus::Committed(CommitSeqNo::FIRST);
        }
        if !txid.is_valid() {
            return TxnStatus::Aborted;
        }
        let (seg, off) = Self::locate(txid);
        // An id whose segment was never created was never registered.
        let word = self
            .segments
            .get(seg)
            .map_or(ENC_IN_PROGRESS, |s| s.entries[off].load(Ordering::Acquire));
        match word {
            ENC_IN_PROGRESS => TxnStatus::InProgress,
            ENC_ABORTED => TxnStatus::Aborted,
            n => TxnStatus::Committed(CommitSeqNo(n - ENC_COMMIT_BASE + CommitSeqNo::FIRST.0)),
        }
    }

    /// Commit sequence number of `txid` if committed.
    #[inline]
    pub fn commit_csn(&self, txid: TxnId) -> Option<CommitSeqNo> {
        self.status(txid).commit_csn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn statuses_round_trip() {
        let clog = CommitLog::new();
        let a = TxnId(2);
        let b = TxnId(3);
        let c = TxnId(4);
        for t in [a, b, c] {
            clog.register(t);
            assert_eq!(clog.status(t), TxnStatus::InProgress);
        }
        clog.set_committed(a, CommitSeqNo(1));
        clog.set_aborted(b);
        assert_eq!(clog.status(a), TxnStatus::Committed(CommitSeqNo(1)));
        assert_eq!(clog.status(b), TxnStatus::Aborted);
        assert_eq!(clog.status(c), TxnStatus::InProgress);
        assert_eq!(clog.commit_csn(a), Some(CommitSeqNo(1)));
        assert_eq!(clog.commit_csn(b), None);
    }

    #[test]
    fn frozen_is_always_committed_first() {
        let clog = CommitLog::new();
        assert_eq!(
            clog.status(TxnId::FROZEN),
            TxnStatus::Committed(CommitSeqNo::FIRST)
        );
    }

    #[test]
    fn invalid_is_aborted() {
        let clog = CommitLog::new();
        assert_eq!(clog.status(TxnId::INVALID), TxnStatus::Aborted);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let clog = CommitLog::new();
        let big = TxnId(2 + (SEGMENT_SIZE as u64) * 3 + 17);
        clog.register(big);
        clog.set_committed(big, CommitSeqNo(42));
        assert_eq!(clog.status(big), TxnStatus::Committed(CommitSeqNo(42)));
        // Earlier segments still work.
        let small = TxnId(5);
        clog.register(small);
        clog.set_aborted(small);
        assert_eq!(clog.status(small), TxnStatus::Aborted);
    }

    #[test]
    fn large_csn_encoding() {
        let clog = CommitLog::new();
        let t = TxnId(9);
        clog.register(t);
        let csn = CommitSeqNo(1 << 40);
        clog.set_committed(t, csn);
        assert_eq!(clog.commit_csn(t), Some(csn));
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let clog = Arc::new(CommitLog::new());
        std::thread::scope(|s| {
            for th in 0..4u64 {
                let clog = Arc::clone(&clog);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let t = TxnId(2 + th * 2000 + i);
                        clog.register(t);
                        clog.set_committed(t, CommitSeqNo(1 + th * 2000 + i));
                        assert!(clog.status(t).is_committed());
                    }
                });
            }
        });
    }
}
