//! The serial table (paper §6.2; PostgreSQL's `pg_serial`).
//!
//! When a committed transaction is summarized, its record leaves the dependency
//! graph; the only thing later conflict checks need is "did it have a conflict
//! out, and what is the earliest commit sequence number among those targets?"
//! That is one `u64` per transaction, stored here keyed by xid beside the
//! transaction's own commit CSN.
//!
//! The table is one in-memory map, bounded by the §6.1 cleanup horizon rather
//! than by paging: an entry is consulted only for a writer that committed at
//! or after the reader's snapshot, every active snapshot is at or above the
//! horizon, and a later `begin` takes a later snapshot — so an entry that
//! committed before the horizon can never be consulted again and is dropped
//! by the sweep every commit and abort runs (`truncate_before`). PostgreSQL's
//! `pg_serial` is an SLRU that pages to disk; nothing here pages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pgssi_common::{CommitSeqNo, TxnId};

/// Map from summarized transaction id to `(commit CSN, earliest out-conflict
/// commit CSN)`.
pub struct SerialTable {
    entries: Mutex<HashMap<TxnId, (CommitSeqNo, CommitSeqNo)>>,
    /// Smallest commit CSN in `entries` (`MAX` when empty). Maintained under
    /// the mutex; lets the per-commit horizon sweep skip the mutex while no
    /// entry is old enough to drop (the common case: nothing is summarized).
    oldest: AtomicU64,
}

impl SerialTable {
    /// Empty table.
    pub(crate) fn new() -> SerialTable {
        SerialTable {
            entries: Mutex::new(HashMap::new()),
            oldest: AtomicU64::new(CommitSeqNo::MAX.0),
        }
    }

    /// Record a summarized transaction that committed at `commit_csn`, with its
    /// earliest out-conflict commit CSN (`CommitSeqNo::MAX` means "had no
    /// committed out-conflict"). PostgreSQL's `SerialAdd`.
    pub(crate) fn record(&self, txid: TxnId, commit_csn: CommitSeqNo, earliest_out: CommitSeqNo) {
        let mut entries = self.entries.lock();
        entries.insert(txid, (commit_csn, earliest_out));
        self.oldest.fetch_min(commit_csn.0, Ordering::Relaxed);
    }

    /// Earliest out-conflict commit CSN of a summarized transaction, if the
    /// transaction is recorded here. PostgreSQL's `SerialGetMinConflictCommitSeqNo`.
    /// `Some(CommitSeqNo::MAX)` means "summarized, but no committed out-conflict".
    pub fn lookup(&self, txid: TxnId) -> Option<CommitSeqNo> {
        self.entries.lock().get(&txid).map(|&(_, e)| e)
    }

    /// Drop every entry that committed before `horizon` — no active or future
    /// transaction can be concurrent with it (§6.1). A relaxed read racing a
    /// concurrent `record` may skip one round; the next commit's sweep picks
    /// the entry up.
    pub(crate) fn truncate_before(&self, horizon: CommitSeqNo) {
        if self.oldest.load(Ordering::Relaxed) >= horizon.0 {
            return;
        }
        let mut entries = self.entries.lock();
        entries.retain(|_, &mut (c, _)| c >= horizon);
        let oldest = entries.values().map(|&(c, _)| c.0).min();
        self.oldest
            .store(oldest.unwrap_or(CommitSeqNo::MAX.0), Ordering::Relaxed);
    }

    /// Number of entries (bounded-memory assertions).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let t = SerialTable::new();
        t.record(TxnId(5), CommitSeqNo(7), CommitSeqNo(42));
        assert_eq!(t.lookup(TxnId(5)), Some(CommitSeqNo(42)));
        assert_eq!(t.lookup(TxnId(6)), None);
        assert_eq!(t.len(), 1, "a lookup miss inserts nothing");
    }

    #[test]
    fn max_csn_round_trips() {
        let t = SerialTable::new();
        t.record(TxnId(5), CommitSeqNo(7), CommitSeqNo::MAX);
        assert_eq!(t.lookup(TxnId(5)), Some(CommitSeqNo::MAX));
    }

    #[test]
    fn truncation_drops_entries_committed_before_the_horizon() {
        let t = SerialTable::new();
        for c in 1..=4u64 {
            t.record(TxnId(100 + c), CommitSeqNo(c), CommitSeqNo::MAX);
        }
        t.truncate_before(CommitSeqNo(3));
        assert_eq!(t.lookup(TxnId(102)), None, "committed before the horizon");
        assert_eq!(t.lookup(TxnId(103)), Some(CommitSeqNo::MAX));
        assert_eq!(t.len(), 2);
        t.truncate_before(CommitSeqNo::MAX);
        assert!(t.is_empty());
        // An empty table's sweep is a no-op, and recording re-arms it.
        t.truncate_before(CommitSeqNo(9));
        t.record(TxnId(200), CommitSeqNo(8), CommitSeqNo::MAX);
        t.truncate_before(CommitSeqNo(9));
        assert!(t.is_empty());
    }
}
