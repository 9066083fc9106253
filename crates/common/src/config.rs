//! Runtime configuration.
//!
//! [`EngineConfig`] has eleven leaf fields. A field stays only while a second
//! value is needed by more than a test of that value alone — a figure, a
//! measurement, a reference arm other tests compare against, or a deployment
//! choice; everything else is a constant where it is used (the SIREAD
//! partition and SSI registry shard counts, the trace ring's size) or is
//! always on (the §3.3.1 commit-ordering rule). Why each survivor stays:
//!
//! - `ssi.enable_read_only_opt`: the "SSI (no r/o opt.)" series of Figures 4
//!   and 5a.
//! - `ssi.read_batch`: `1` is the eager reference of `readset_model.rs` and the
//!   arm that costs 39 % of `tps` on `readmostly-ssi`.
//! - `txn.id_shards`, `txn.txid_block`: `1`/`1` measurably loses on
//!   `scan-update-ssi` latency and `cluster-cross` throughput.
//! - `ssi.max_predicate_locks_per_txn`, `ssi.promote_tuple_threshold`,
//!   `ssi.promote_page_threshold`, `ssi.max_committed_sxacts`:
//!   [`SsiConfig::tiny`] drives the §6 memory-pressure tests through them.
//! - `ssi.lock_wait_timeout`, `wal.mode`, `trace`: deployment and diagnostic
//!   settings that callers choose.

use std::time::Duration;

/// Tuning knobs for the SSI core and the SIREAD lock manager.
#[derive(Clone, Debug)]
pub struct SsiConfig {
    /// Soft cap on SIREAD locks a single transaction may hold before the lock
    /// manager starts promoting its fine-grained locks to coarser granularity
    /// (PostgreSQL: `max_pred_locks_per_transaction`).
    pub max_predicate_locks_per_txn: usize,
    /// If a transaction holds more than this many tuple locks on one heap page, they
    /// are promoted to a single page lock.
    pub promote_tuple_threshold: usize,
    /// If a transaction holds more than this many page locks on one relation, they
    /// are promoted to a single relation lock.
    pub promote_page_threshold: usize,
    /// Read-set batching (perf): a serializable transaction's SIREAD targets
    /// are accumulated in a transaction-local pending set (guarded only by the
    /// owner's own mutex, with a shared no-false-negative presence filter for
    /// writers) and published to the partitioned lock table in batches instead
    /// of eagerly per read. This is the publication batch bound: once the
    /// pending set reaches it, the batch is spilled to the partition table.
    /// `1` (or `0`) is the eager per-read acquisition path. Batching stays:
    /// `read_batch = 1` costs 39 % of `tps` on the observatory's
    /// `readmostly-ssi` (100.0k vs 162.9k txn/s, p95 57 vs 32 µs, 3 of 3
    /// rounds, 2 vCPU).
    pub read_batch: usize,
    /// Capacity of the committed-transaction table. When exceeded, the oldest
    /// committed transaction is *summarized*: its SIREAD locks are consolidated onto
    /// the dummy "old committed" owner and its conflict-out information moves to the
    /// serial table (paper §6.2).
    pub max_committed_sxacts: usize,
    /// Apply the read-only snapshot ordering rule (paper §4.1, Theorem 3) and safe
    /// snapshots (§4.2). The Figure 4/5 "SSI (no r/o opt.)" series disables this.
    pub enable_read_only_opt: bool,
    /// Maximum time to wait on another transaction's row lock or S2PL lock before
    /// giving up with [`crate::Error::LockTimeout`]. Deadlock detection usually
    /// fires far earlier; the timeout is a backstop.
    pub lock_wait_timeout: Duration,
}

impl Default for SsiConfig {
    fn default() -> Self {
        SsiConfig {
            max_predicate_locks_per_txn: 4096,
            promote_tuple_threshold: 16,
            promote_page_threshold: 64,
            // Comfortably above the read footprint of a point-read
            // transaction, so common transactions never spill mid-flight,
            // while still bounding the pending set a writer-side filter hit
            // has to walk.
            read_batch: 32,
            max_committed_sxacts: 1024,
            enable_read_only_opt: true,
            lock_wait_timeout: Duration::from_secs(10),
        }
    }
}

impl SsiConfig {
    /// Configuration with the read-only optimizations disabled, used by the
    /// "SSI (no r/o opt.)" benchmark series.
    pub fn without_read_only_opt() -> Self {
        SsiConfig {
            enable_read_only_opt: false,
            ..SsiConfig::default()
        }
    }

    /// A deliberately tiny configuration that forces promotion and summarization on
    /// small workloads; used by memory-pressure tests.
    pub fn tiny() -> Self {
        SsiConfig {
            max_predicate_locks_per_txn: 8,
            promote_tuple_threshold: 2,
            promote_page_threshold: 2,
            max_committed_sxacts: 4,
            ..SsiConfig::default()
        }
    }
}

/// Transaction-manager sharding knobs (txid allocation).
///
/// The seed `TxnManager` funneled every `begin`/`snapshot`/`commit` through one
/// mutex; these knobs size its replacement: txids are handed out in per-shard
/// blocks carved off a single atomic. (`snapshot()` is one load of the commit
/// frontier and needs no knob.)
#[derive(Clone, Debug)]
pub struct TxnConfig {
    /// Number of txid-allocation shards. `begin` takes only its (thread-affine)
    /// shard's mutex, so begins on different shards never contend; `1` is a
    /// single allocation point.
    /// Txid blocks stay: `id_shards = 1, txid_block = 1` is +26 %
    /// `lat_p50_us` on the observatory's `scan-update-ssi` (17.8 vs 14.1 µs,
    /// 4 of 4 rounds) and −6.5 % `tps` on `cluster-cross` (4 of 4), though
    /// +7 % on `durable-write` (2 vCPU).
    pub id_shards: usize,
    /// Size of the txid block a shard reserves from the global atomic frontier
    /// when its current block runs out. Larger blocks mean fewer touches of
    /// the shared cache line. Kept by the same measurement as
    /// [`TxnConfig::id_shards`].
    pub txid_block: u64,
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            // Follow the machine: sharding only pays where threads actually
            // run in parallel, so a single-core box gets one shard and a big
            // box gets up to 8.
            id_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 8),
            txid_block: 16,
        }
    }
}

/// Session-layer configuration for `pgssi-server`. A TCP connection runs its
/// session on its own thread; the sessions that have no thread of their own
/// (in-process handles, DBT-2 terminals — paper §8 runs hundreds of
/// mostly-idle ones) are multiplexed onto the [`SessionPool`]'s small, fixed
/// set of worker threads. A thread per such session was measured and lost
/// (the pool's module docs give the numbers).
///
/// [`SessionPool`]: https://docs.rs/pgssi-server
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing the activations of threadless sessions; TCP
    /// sessions never use them. Defaults to the machine's available
    /// parallelism, capped at 16.
    pub workers: usize,
    /// Maximum number of concurrently open logical sessions.
    pub max_sessions: usize,
    /// Longest request line (bytes, terminator excluded) the TCP front-end
    /// accepts. A client streaming an endless line would otherwise grow the
    /// reader's buffer without bound; past the cap the connection is closed
    /// (its open transaction rolls back, like any disconnect).
    pub max_request_line: usize,
    /// Idle timeout on a TCP connection's reader: a connection that sends no
    /// bytes for this long is closed. `None` = wait forever (in-process
    /// sessions are never subject to it).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            max_sessions: 1024,
            max_request_line: 1 << 20,
            idle_timeout: Some(std::time::Duration::from_secs(300)),
        }
    }
}

impl ServerConfig {
    /// Explicit worker count, default session cap.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig {
            workers: workers.max(1),
            ..ServerConfig::default()
        }
    }
}

/// Where the durable write-ahead log lives (DESIGN.md §5).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum WalMode {
    /// No log (the default): an in-memory database captures no redo records,
    /// appends nothing and survives nothing — there is no store behind it.
    #[default]
    Memory,
    /// File-backed log under the given directory (`wal.log` + `checkpoint.bin`).
    /// Commits park until their record's sync epoch is fsynced; reopening the
    /// same directory recovers by checkpoint load + WAL replay.
    File {
        /// Directory holding the log and checkpoint files; created on open.
        dir: std::path::PathBuf,
    },
}

/// Durability configuration. Fsyncs are always batched across concurrent
/// committers (group commit): a leader with nobody behind it *is* the
/// one-fsync-per-commit arm, so that arm could never win and has no knob.
#[derive(Clone, Debug, Default)]
pub struct WalConfig {
    /// Log placement (none vs file-backed).
    pub mode: WalMode,
}

impl WalConfig {
    /// File-backed durable log under `dir`.
    pub fn file(dir: impl Into<std::path::PathBuf>) -> Self {
        WalConfig {
            mode: WalMode::File { dir: dir.into() },
        }
    }
}

/// Top-level engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// SSI / lock-manager tuning.
    pub ssi: SsiConfig,
    /// Transaction-manager sharding (txid blocks).
    pub txn: TxnConfig,
    /// Durable-WAL placement.
    pub wal: WalConfig,
    /// Retain per-transaction lifecycle events (begin, conflict edges, doom,
    /// commit/abort …) in a fixed 4 096-event ring. Off by default: the
    /// disabled tracer allocates nothing and its record path is a single
    /// branch. (The latency histograms are always on — recording is one
    /// relaxed atomic add per sample.)
    pub trace: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_opt_is_on_unless_asked_off() {
        assert!(SsiConfig::default().enable_read_only_opt);
        assert!(!SsiConfig::without_read_only_opt().enable_read_only_opt);
    }

    #[test]
    fn tiny_config_is_small() {
        let c = SsiConfig::tiny();
        assert!(c.max_committed_sxacts <= 4);
        assert!(c.promote_tuple_threshold <= 2);
    }

    #[test]
    fn sharding_and_batching_defaults() {
        let c = SsiConfig::default();
        assert!(c.read_batch > 1);
        let t = TxnConfig::default();
        assert!(t.id_shards >= 1);
        assert!(t.txid_block >= 1);
    }

    #[test]
    fn server_config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1 && c.workers <= 16);
        assert!(c.max_sessions >= c.workers);
        assert_eq!(ServerConfig::with_workers(0).workers, 1);
        assert_eq!(ServerConfig::with_workers(3).workers, 3);
    }

    #[test]
    fn wal_defaults_to_memory() {
        let c = WalConfig::default();
        assert_eq!(c.mode, WalMode::Memory);
        let f = WalConfig::file("/tmp/x");
        assert!(matches!(f.mode, WalMode::File { .. }));
        assert_eq!(EngineConfig::default().wal.mode, WalMode::Memory);
    }
}
