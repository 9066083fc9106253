//! Engine-level prepared-transaction records (two-phase commit, §7.1).

use pgssi_common::TxnId;
use pgssi_core::{PreparedSsi, SxactHandle};
use pgssi_storage::Lsn;

/// A prepared transaction awaiting COMMIT PREPARED / ROLLBACK PREPARED.
///
/// The `ssi` record is the crash-safe part (it would live on disk); `sx` is the
/// volatile handle, rebuilt by [`crate::Database::simulate_crash_recovery`].
pub struct PreparedTxn {
    /// Top-level transaction id.
    pub txid: TxnId,
    /// All xids (top-level + live subtransactions) to commit or abort together.
    pub xids: Vec<TxnId>,
    /// Volatile SSI handle (None for non-serializable transactions).
    pub sx: Option<SxactHandle>,
    /// Crash-safe SSI state (None for non-serializable transactions).
    pub ssi: Option<PreparedSsi>,
    /// 2PL owner whose locks must be released at resolution.
    pub s2pl_owner: Option<u64>,
    /// Performed at least one write: a writeless branch resolves like a
    /// writeless commit or rollback, and ships no data commit to replicas.
    pub wrote: bool,
    /// Log position of the durable Prepare record (None when capture is off).
    /// The record carries the redo ops, so resolution only logs a small
    /// Resolve marker; the checkpoint trimmer must keep the log tail from the
    /// earliest unresolved prepare onward.
    pub prepare_lsn: Option<Lsn>,
}
