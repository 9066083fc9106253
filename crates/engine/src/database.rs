//! The [`Database`] handle: isolation levels, transaction start (including
//! DEFERRABLE safe-snapshot waits), DDL, crash simulation, and the WAL stream
//! for replication.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use pgssi_common::config::WalMode;
use pgssi_common::stats::{Counter, HistSnapshot, TraceEvent, Tracer};
use pgssi_common::{CommitSeqNo, EngineConfig, Error, Key, Result, Row, Snapshot, TxnId};
use pgssi_core::{SafetyState, SsiManager, SxactHandle};
use pgssi_lockmgr::s2pl::S2plLockManager;
use pgssi_storage::wal::{Lsn, WalStore};
use pgssi_storage::{CommitLog, TxnManager};

use crate::catalog::{Catalog, Table, TableDef};
use crate::durability::{
    decode_checkpoint, decode_entry, encode_checkpoint, encode_commit, encode_resolve, Checkpoint,
    DurableWal, PreparedRecord, RedoOp, WalEntry, CHECKPOINT_FILE,
};
use crate::replication::{ReplicationStats, WalStream};
use crate::twophase::PreparedTxn;
use crate::txn::{SsiTxn, Transaction};

/// Events the lifecycle tracer retains when [`EngineConfig::trace`] is on.
const TRACE_EVENTS: usize = 4096;

/// Transaction isolation levels (paper §5.1, §8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationLevel {
    /// Per-statement snapshots; writes follow updated rows to their newest
    /// version (PostgreSQL's default level).
    ReadCommitted,
    /// Transaction-scoped snapshot: classic snapshot isolation, PostgreSQL's
    /// pre-9.1 "SERIALIZABLE". Allows write skew and the other SI anomalies.
    RepeatableRead,
    /// Snapshot isolation plus SSI conflict detection: true serializability
    /// (the paper's contribution).
    Serializable,
    /// Strict two-phase locking over the same multigranularity targets: the
    /// evaluation baseline of §8. Readers block writers and vice versa.
    Serializable2pl,
}

impl IsolationLevel {
    /// Does this level run on a transaction-scoped snapshot?
    pub fn txn_snapshot(self) -> bool {
        !matches!(self, IsolationLevel::ReadCommitted)
    }
}

/// Options for starting a transaction.
#[derive(Clone, Copy, Debug)]
pub struct BeginOptions {
    /// Isolation level.
    pub isolation: IsolationLevel,
    /// `BEGIN TRANSACTION READ ONLY`: writes are rejected, and serializable
    /// transactions become eligible for the read-only optimizations (§4).
    pub read_only: bool,
    /// `… READ ONLY, DEFERRABLE`: block at start until a safe snapshot is
    /// available, then run with zero SSI overhead (§4.3). Ignored unless
    /// `read_only` and `Serializable`.
    pub deferrable: bool,
}

impl BeginOptions {
    /// Read/write at the given isolation level.
    pub fn new(isolation: IsolationLevel) -> BeginOptions {
        BeginOptions {
            isolation,
            read_only: false,
            deferrable: false,
        }
    }

    /// Mark read-only.
    pub fn read_only(mut self) -> BeginOptions {
        self.read_only = true;
        self
    }

    /// Mark deferrable (implies read-only).
    pub fn deferrable(mut self) -> BeginOptions {
        self.read_only = true;
        self.deferrable = true;
        self
    }
}

/// Engine-level event counters.
#[derive(Default)]
pub struct EngineStats {
    /// Transactions committed.
    pub commits: Counter,
    /// Transactions rolled back (including serialization-failure aborts).
    pub aborts: Counter,
    /// Times a deferrable transaction had to retry with a fresh snapshot.
    pub deferrable_retries: Counter,
    /// Re-runs performed by the retry middleware: attempts beyond each
    /// workload's first (0 when nothing ever conflicts).
    pub retry_attempts: Counter,
    /// End-to-end commit latency (ns): from entering `Transaction::commit`
    /// to the commit being durable (successful commits only).
    pub commit_ns: pgssi_common::Histogram,
    /// Abort taxonomy: every serialization failure and deadlock surfaced to
    /// a transaction, classified by kind and detecting site.
    pub aborts_by: pgssi_common::AbortStats,
}

/// Session-layer event counters, bumped by `pgssi-server`'s session pool when
/// it fronts this database. They live on the [`Database`] (not the server) so
/// that [`Database::stats_report`] stays the single aggregation point every
/// `--stats` flag prints.
#[derive(Default)]
pub struct SessionStats {
    /// Logical sessions opened against the pool.
    pub sessions_opened: Counter,
    /// Requests enqueued onto session inboxes.
    pub requests_enqueued: Counter,
    /// Requests executed by pool workers.
    pub requests_executed: Counter,
    /// Times a pool worker went to sleep with no runnable session.
    pub worker_parks: Counter,
    /// Emergency reserve workers spawned because every pool worker was
    /// blocked in a row-lock wait while a session with an open transaction
    /// sat queued.
    pub reserve_workers: Counter,
    /// `read` calls that returned bytes on TCP connections (server side).
    pub socket_reads: Counter,
    /// `write` calls made on TCP connections (server side). Against
    /// `requests_enqueued`: system calls per request line.
    pub socket_writes: Counter,
}

/// Aggregated counter snapshot across every layer: engine commit/abort totals,
/// the SSI core's conflict and abort counters, the partitioned SIREAD lock
/// table's acquisition/promotion/contention counters, and the S2PL baseline's
/// grant/wait/deadlock counters. Built by [`Database::stats_report`]; printed
/// by the benchmark binaries behind `--stats`.
#[derive(Clone, Debug, Default)]
pub struct StatsReport {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back.
    pub aborts: u64,
    /// Retry-middleware re-runs (attempts beyond each workload's first).
    pub retry_attempts: u64,
    /// rw-antidependency edges flagged by the SSI core.
    pub ssi_conflicts_flagged: u64,
    /// Dangerous structures that met the abort conditions.
    pub ssi_dangerous_structures: u64,
    /// Serialization failures returned to the acting transaction.
    pub ssi_aborts_self: u64,
    /// Other transactions doomed as victims.
    pub ssi_doomed: u64,
    /// Aborts due to conflicts against summarized state (§6.2).
    pub ssi_summary_aborts: u64,
    /// Read-only transactions that ran on a safe snapshot (immediate + later).
    pub ssi_safe_snapshots: u64,
    /// Committed transactions summarized under memory pressure.
    pub ssi_summarized: u64,
    /// SIREAD lock acquisitions.
    pub siread_acquisitions: u64,
    /// SIREAD granularity promotions (tuple→page, page→relation).
    pub siread_promotions: u64,
    /// Lock targets currently resident in the SIREAD table.
    pub siread_locks: usize,
    /// Times any partition mutex was taken.
    pub siread_partition_taken: u64,
    /// Times a partition mutex was found held (the taker blocked).
    pub siread_partition_contended: u64,
    /// Reads accumulated into a transaction-local pending batch without
    /// taking a partition mutex (read-set batching).
    pub siread_local_accumulated: u64,
    /// Pending read-set batches published to the lock table.
    pub siread_batches_published: u64,
    /// Writer-side probes of the pending-read presence filter.
    pub siread_filter_probes: u64,
    /// Filter probes that hit and walked the owner directory.
    pub siread_filter_hits: u64,
    /// Pending batches force-published by a writer's filter hit.
    pub siread_forced_publishes: u64,
    /// S2PL lock grants.
    pub s2pl_grants: u64,
    /// S2PL lock waits.
    pub s2pl_waits: u64,
    /// S2PL deadlocks broken.
    pub s2pl_deadlocks: u64,
    /// Transactions (and subtransactions) begun by the txn manager.
    pub txn_begins: u64,
    /// Snapshot requests served from the maintained snapshot cache.
    pub txn_snapshot_hits: u64,
    /// Writing finishes applied to the cached snapshot copy-on-write.
    pub txn_snapshot_incremental: u64,
    /// Snapshot requests that walked every allocation shard from scratch
    /// (cold start; ≈ 0 in steady state).
    pub txn_snapshot_full_rebuilds: u64,
    /// Txid blocks carved off the global frontier.
    pub txn_id_blocks: u64,
    /// Number of txid-allocation shards.
    pub txn_id_shards: usize,
    /// Row-lock waits that reported their blocking txid to the session pool.
    pub txn_wait_reports: u64,
    /// Logical sessions opened against the session pool.
    pub sessions_opened: u64,
    /// Requests enqueued onto session inboxes.
    pub session_requests: u64,
    /// Requests executed by session-pool workers.
    pub session_executed: u64,
    /// Times a session-pool worker parked with no runnable session.
    pub session_worker_parks: u64,
    /// Always 0: nothing produces it. Kept because the observatory
    /// benchmark reads it.
    pub session_lock_wakeups: u64,
    /// Emergency reserve workers spawned for an all-workers-blocked pool.
    pub session_reserve_workers: u64,
    /// `read` calls that returned bytes on the server's TCP connections.
    pub session_socket_reads: u64,
    /// `write` calls made on the server's TCP connections (one per drained
    /// batch of pipelined requests, not one per response line).
    pub session_socket_writes: u64,
    /// WAL records shipped (all kinds).
    pub repl_records: u64,
    /// Resolution records shipped.
    pub repl_resolves_shipped: u64,
    /// Safe snapshots replicas derived locally from §8.4 metadata.
    pub repl_safe_local: u64,
    /// Locally derived safe snapshots the §7.2 marker protocol would have
    /// waited on (their candidate had serializable read/write txns in flight).
    pub repl_marker_waits_avoided: u64,
    /// Candidate snapshots proven unsafe and discarded.
    pub repl_unsafe_candidates: u64,
    /// Replica catch-up calls.
    pub repl_catch_ups: u64,
    /// Sum of records-behind over catch-ups (mean lag = this / catch-ups).
    pub repl_lag_records: u64,
    /// Durable-WAL commit records appended.
    pub wal_records: u64,
    /// Durable-WAL length in bytes (end LSN).
    pub wal_bytes: u64,
    /// Fsyncs issued (group commit batches many records per fsync).
    pub wal_syncs: u64,
    /// Commits that parked on another committer's fsync (group-commit rides).
    pub wal_sync_waits: u64,
    /// Records replayed by the most recent recovery.
    pub wal_recovered_records: u64,
    /// Torn-tail bytes truncated when the log was opened.
    pub wal_torn_bytes: u64,
    /// Abort taxonomy: kind × detecting-site counts plus per-relation tallies.
    pub aborts_by: pgssi_common::AbortSnapshot,
    /// Latency histograms for the commit path and its phases.
    pub latency: LatencyReport,
    /// Lifecycle events recorded by the tracer (0 unless `trace` is on).
    pub trace_events: u64,
    /// Cluster: shard count behind the routing layer (0 = not a cluster
    /// report; the `cluster:` display line only appears when nonzero).
    pub cluster_shards: usize,
    /// Cluster: transactions that committed entirely on one shard (fast
    /// path — no coordinator, no second shard's locks).
    pub cluster_single_commits: u64,
    /// Cluster: cross-shard transactions committed through 2PC.
    pub cluster_cross_commits: u64,
    /// Cluster: cross-shard transactions aborted by the conservative
    /// prepared-as-committed union rule at the coordinator.
    pub cluster_cross_aborts: u64,
    /// Cluster: coordinator enlistments — bumped the moment a transaction
    /// touches its second shard. Equals cross-shard commits + cross-shard
    /// aborts + cross-shard rollbacks; the fast-path invariant is that
    /// single-shard transactions never appear here.
    pub cluster_enlistments: u64,
    /// Cluster: conservative aborts that a §3.3.1 conflict-fact exchange at
    /// PREPARE would have spared (no out-neighbor had committed first on any
    /// shard) — the measurable abort-rate cost of the cheap rule.
    pub cluster_spared_by_facts: u64,
}

/// Latency histograms gathered by [`Database::stats_report`]: end-to-end
/// commit latency plus the per-phase timings the paper's overhead discussion
/// (§8) cares about. All values are nanoseconds except `repl_catchup`, which
/// counts records-behind per replica catch-up.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// `Transaction::commit` entry → durable, successful commits only.
    pub commit: HistSnapshot,
    /// Commit-order critical section (mutex acquisition + hold).
    pub commit_order: HistSnapshot,
    /// Group-commit fsync waits (time parked behind a leader's fsync).
    pub fsync_wait: HistSnapshot,
    /// Row-lock waits (time parked on another transaction's finish).
    pub row_lock_wait: HistSnapshot,
    /// SIREAD read-set batch publication (spill into the partition table).
    pub siread_publish: HistSnapshot,
    /// Replica catch-up lag, in records behind (not time).
    pub repl_catchup: HistSnapshot,
}

impl LatencyReport {
    /// The names `Database::histogram` (and the wire verb `HIST <name>`)
    /// resolve, in display order.
    pub const NAMES: [&'static str; 6] = [
        "commit",
        "commit_order",
        "fsync_wait",
        "row_lock_wait",
        "siread_publish",
        "repl_catchup",
    ];

    /// Look a histogram up by its [`LatencyReport::NAMES`] entry.
    pub fn get(&self, name: &str) -> Option<&HistSnapshot> {
        match name {
            "commit" => Some(&self.commit),
            "commit_order" => Some(&self.commit_order),
            "fsync_wait" => Some(&self.fsync_wait),
            "row_lock_wait" => Some(&self.row_lock_wait),
            "siread_publish" => Some(&self.siread_publish),
            "repl_catchup" => Some(&self.repl_catchup),
            _ => None,
        }
    }

    /// Fold another report's histograms into this one (cluster aggregation).
    pub fn merge(&mut self, other: &LatencyReport) {
        self.commit.merge(&other.commit);
        self.commit_order.merge(&other.commit_order);
        self.fsync_wait.merge(&other.fsync_wait);
        self.row_lock_wait.merge(&other.row_lock_wait);
        self.siread_publish.merge(&other.siread_publish);
        self.repl_catchup.merge(&other.repl_catchup);
    }

    /// Samples recorded since `baseline`.
    pub fn delta(&self, baseline: &LatencyReport) -> LatencyReport {
        LatencyReport {
            commit: self.commit.delta(&baseline.commit),
            commit_order: self.commit_order.delta(&baseline.commit_order),
            fsync_wait: self.fsync_wait.delta(&baseline.fsync_wait),
            row_lock_wait: self.row_lock_wait.delta(&baseline.row_lock_wait),
            siread_publish: self.siread_publish.delta(&baseline.siread_publish),
            repl_catchup: self.repl_catchup.delta(&baseline.repl_catchup),
        }
    }
}

/// Every event counter of [`StatsReport`] — the fields `delta` subtracts and
/// `absorb` adds — listed once and handed to the macro `$apply`.
macro_rules! stats_counters {
    ($apply:ident) => {
        $apply!(
            commits,
            aborts,
            retry_attempts,
            ssi_conflicts_flagged,
            ssi_dangerous_structures,
            ssi_aborts_self,
            ssi_doomed,
            ssi_summary_aborts,
            ssi_safe_snapshots,
            ssi_summarized,
            siread_acquisitions,
            siread_promotions,
            siread_partition_taken,
            siread_partition_contended,
            siread_local_accumulated,
            siread_batches_published,
            siread_filter_probes,
            siread_filter_hits,
            siread_forced_publishes,
            s2pl_grants,
            s2pl_waits,
            s2pl_deadlocks,
            txn_begins,
            txn_snapshot_hits,
            txn_snapshot_incremental,
            txn_snapshot_full_rebuilds,
            txn_id_blocks,
            txn_wait_reports,
            sessions_opened,
            session_requests,
            session_executed,
            session_worker_parks,
            session_lock_wakeups,
            session_reserve_workers,
            session_socket_reads,
            session_socket_writes,
            repl_records,
            repl_resolves_shipped,
            repl_safe_local,
            repl_marker_waits_avoided,
            repl_unsafe_candidates,
            repl_catch_ups,
            repl_lag_records,
            wal_records,
            wal_bytes,
            wal_syncs,
            wal_sync_waits,
            wal_recovered_records,
            wal_torn_bytes,
            trace_events,
            cluster_single_commits,
            cluster_cross_commits,
            cluster_cross_aborts,
            cluster_enlistments,
            cluster_spared_by_facts
        )
    };
}

impl StatsReport {
    /// Fraction of partition-mutex acquisitions that had to block.
    pub fn siread_contention_rate(&self) -> f64 {
        if self.siread_partition_taken == 0 {
            0.0
        } else {
            self.siread_partition_contended as f64 / self.siread_partition_taken as f64
        }
    }

    /// Mean replication lag in records per catch-up.
    pub fn repl_mean_lag(&self) -> f64 {
        if self.repl_catch_ups == 0 {
            0.0
        } else {
            self.repl_lag_records as f64 / self.repl_catch_ups as f64
        }
    }

    /// Fraction of snapshot requests served from the maintained cache.
    pub fn snapshot_cache_hit_rate(&self) -> f64 {
        let total = self.txn_snapshot_hits + self.txn_snapshot_full_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.txn_snapshot_hits as f64 / total as f64
        }
    }

    /// Events recorded since `baseline` — the race-free replacement for
    /// resetting counters at a warmup boundary (zeroing relaxed counters from
    /// a coordinator races with worker bumps and undercounts; subtracting two
    /// snapshots never loses an event). Shape fields (shard/partition counts)
    /// and gauges (`siread_locks`) keep `self`'s value.
    pub fn delta(&self, baseline: &StatsReport) -> StatsReport {
        macro_rules! sub {
            ($($f:ident),*) => {
                StatsReport {
                    $($f: self.$f.saturating_sub(baseline.$f),)*
                    siread_locks: self.siread_locks,
                    txn_id_shards: self.txn_id_shards,
                    cluster_shards: self.cluster_shards,
                    aborts_by: self.aborts_by.delta(&baseline.aborts_by),
                    latency: self.latency.delta(&baseline.latency),
                }
            };
        }
        stats_counters!(sub)
    }

    /// Fold another shard's report into this one (cluster aggregation over
    /// disjoint databases): counters and the resident-lock gauge add, latency
    /// histograms merge, per-shard shape fields (partition counts) keep
    /// `self`'s value — shards are configured identically.
    pub fn absorb(&mut self, other: &StatsReport) {
        macro_rules! add {
            ($($f:ident),*) => { $(self.$f += other.$f;)* };
        }
        stats_counters!(add);
        self.siread_locks += other.siread_locks;
        self.aborts_by.merge(&other.aborts_by);
        self.latency.merge(&other.latency);
    }
}

/// One `name p50 … p95 … p99 … max … (n=…)` fragment for the `latency:` line.
fn fmt_hist(f: &mut std::fmt::Formatter<'_>, name: &str, h: &HistSnapshot) -> std::fmt::Result {
    use pgssi_common::stats::fmt_ns;
    write!(
        f,
        "{} p50 {} p95 {} p99 {} max {} (n={})",
        name,
        fmt_ns(h.percentile(50.0)),
        fmt_ns(h.percentile(95.0)),
        fmt_ns(h.percentile(99.0)),
        fmt_ns(h.max()),
        h.count()
    )
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine : commits {}  aborts {}  retries {}  trace-events {}",
            self.commits, self.aborts, self.retry_attempts, self.trace_events
        )?;
        writeln!(f, "aborts : {}", self.aborts_by)?;
        writeln!(
            f,
            "ssi    : conflicts {}  dangerous {}  self-aborts {}  doomed {}  \
             summary-aborts {}  safe-snapshots {}  summarized {}",
            self.ssi_conflicts_flagged,
            self.ssi_dangerous_structures,
            self.ssi_aborts_self,
            self.ssi_doomed,
            self.ssi_summary_aborts,
            self.ssi_safe_snapshots,
            self.ssi_summarized,
        )?;
        writeln!(
            f,
            "siread : acquisitions {}  promotions {}  resident {}  \
             mutex-taken {}  contended {} ({:.3}%)",
            self.siread_acquisitions,
            self.siread_promotions,
            self.siread_locks,
            self.siread_partition_taken,
            self.siread_partition_contended,
            100.0 * self.siread_contention_rate(),
        )?;
        writeln!(
            f,
            "read-batch : local-accumulated {}  batches-published {}  \
             filter-probes {}  filter-hits {}  forced-publishes {}",
            self.siread_local_accumulated,
            self.siread_batches_published,
            self.siread_filter_probes,
            self.siread_filter_hits,
            self.siread_forced_publishes,
        )?;
        writeln!(
            f,
            "s2pl   : grants {}  waits {}  deadlocks {}",
            self.s2pl_grants, self.s2pl_waits, self.s2pl_deadlocks
        )?;
        writeln!(
            f,
            "txn    : begins {}  snapshot-hits {}  incremental {}  full-rebuilds {} \
             (hit-rate {:.1}%)  txid-blocks {}  id-shards {}  wait-reports {}",
            self.txn_begins,
            self.txn_snapshot_hits,
            self.txn_snapshot_incremental,
            self.txn_snapshot_full_rebuilds,
            100.0 * self.snapshot_cache_hit_rate(),
            self.txn_id_blocks,
            self.txn_id_shards,
            self.txn_wait_reports,
        )?;
        writeln!(
            f,
            "server : sessions {}  requests {}  executed {}  worker-parks {}  \
             reserve-workers {}  socket-reads {}  socket-writes {}",
            self.sessions_opened,
            self.session_requests,
            self.session_executed,
            self.session_worker_parks,
            self.session_reserve_workers,
            self.session_socket_reads,
            self.session_socket_writes
        )?;
        writeln!(
            f,
            "repl   : records {}  resolves {}  safe-local {}  \
             marker-waits-avoided {}  unsafe-candidates {}  catch-ups {}  mean-lag {:.2}",
            self.repl_records,
            self.repl_resolves_shipped,
            self.repl_safe_local,
            self.repl_marker_waits_avoided,
            self.repl_unsafe_candidates,
            self.repl_catch_ups,
            self.repl_mean_lag(),
        )?;
        writeln!(
            f,
            "wal    : records {}  bytes {}  syncs {}  sync-waits {}  recovered {}  \
             torn-bytes {}",
            self.wal_records,
            self.wal_bytes,
            self.wal_syncs,
            self.wal_sync_waits,
            self.wal_recovered_records,
            self.wal_torn_bytes,
        )?;
        // Cluster counters only when the report came from a routing layer —
        // single-database reports keep their exact pre-cluster output.
        if self.cluster_shards > 0 {
            writeln!(
                f,
                "cluster: shards {}  single-shard-commits {}  cross-shard-2pc-commits {}  \
                 cross-shard-aborts {}  coordinator-enlistments {}  spared-by-fact-exchange {}",
                self.cluster_shards,
                self.cluster_single_commits,
                self.cluster_cross_commits,
                self.cluster_cross_aborts,
                self.cluster_enlistments,
                self.cluster_spared_by_facts,
            )?;
        }
        // Commit latency always; phase histograms only once they have samples
        // (repl_catchup is records-behind, rendered as a plain count).
        write!(f, "latency: ")?;
        fmt_hist(f, "commit", &self.latency.commit)?;
        for name in [
            "commit_order",
            "fsync_wait",
            "row_lock_wait",
            "siread_publish",
        ] {
            let h = self.latency.get(name).unwrap();
            if h.count() > 0 {
                write!(f, "  |  ")?;
                fmt_hist(f, name, h)?;
            }
        }
        if self.latency.repl_catchup.count() > 0 {
            let h = &self.latency.repl_catchup;
            write!(
                f,
                "  |  repl_catchup p50 {} p99 {} max {} records (n={})",
                h.percentile(50.0),
                h.percentile(99.0),
                h.max(),
                h.count()
            )?;
        }
        Ok(())
    }
}

pub(crate) struct DbInner {
    pub config: EngineConfig,
    pub catalog: Catalog,
    pub tm: TxnManager,
    /// Swapped out wholesale by crash simulation.
    pub ssi: RwLock<Arc<SsiManager>>,
    pub s2pl: S2plLockManager,
    /// Serializes uniqueness probes per key hash.
    pub unique_stripes: Vec<Mutex<()>>,
    /// Snapshot CSN of every active snapshot-bearing transaction, for the
    /// vacuum horizon.
    pub active_snapshots: Mutex<HashMap<TxnId, CommitSeqNo>>,
    pub prepared: Mutex<HashMap<String, PreparedTxn>>,
    pub wal: WalStream,
    /// Durable logical redo log (DESIGN.md §5); store-less in memory mode.
    /// Orthogonal to `wal`, which is the in-memory replication stream of SSI
    /// metadata.
    pub dwal: DurableWal,
    pub stats: EngineStats,
    pub session_stats: SessionStats,
    /// Replication counters (master-side shipping + replica-side derivation;
    /// replicas bump their master's counters so `stats_report` sees both).
    pub repl_stats: ReplicationStats,
    /// Lifecycle tracer, shared with the SSI manager (and re-shared with the
    /// rebuilt manager after simulated crash recovery, so the ring survives).
    pub tracer: Arc<Tracer>,
}

impl DbInner {
    pub fn ssi(&self) -> Arc<SsiManager> {
        Arc::clone(&self.ssi.read())
    }

    /// Acquire the prepared-transaction map. Sim-aware like
    /// [`DurableWal`]'s append lock: PREPARE and COMMIT PREPARED hold this
    /// across WAL appends (which contain yield points), so a sim thread must
    /// spin on `try_lock` with yields instead of blocking in the kernel while
    /// the holder is parked.
    pub fn lock_prepared(&self) -> parking_lot::MutexGuard<'_, HashMap<String, PreparedTxn>> {
        pgssi_common::sim::lock_cooperatively(
            pgssi_common::sim::Site::LockSpin,
            || self.prepared.try_lock(),
            || self.prepared.lock(),
        )
    }

    /// The one commit path, COMMIT and COMMIT PREPARED alike: the clog commit
    /// with the durable `record` appended in the same critical section, and
    /// the replication publish inside the SSI commit-order section (§8.4
    /// atomic capture). A serializable commit may fail the pivot re-check
    /// before anything is committed (a prepared branch never does); the
    /// caller then rolls back. Returns the log position to wait on.
    pub fn commit_txn(
        &self,
        txid: TxnId,
        xids: &[TxnId],
        ssi: Option<(&SsiManager, &SxactHandle)>,
        wrote: bool,
        record: Option<&[u8]>,
    ) -> Result<Option<Lsn>> {
        let mut lsn = None;
        let mut assign_csn = || {
            let (csn, l) = self.dwal.commit_durably(record, || {
                if wrote {
                    self.tm.commit(xids)
                } else {
                    self.tm.commit_readonly(xids)
                }
            });
            lsn = l;
            csn
        };
        if let Some((mgr, sx)) = ssi {
            mgr.commit(sx, assign_csn, |digest| {
                self.wal.publish_commit_lazy(self, digest)
            })?;
        } else {
            let csn = assign_csn();
            // With no replica attached the commit-order section is skipped
            // entirely — SI/RC traffic pays nothing for replication.
            if self.wal.has_consumers() {
                self.ssi().observe_commit(txid, csn, wrote, |digest| {
                    self.wal.publish_commit(self, digest)
                });
            }
        }
        Ok(lsn)
    }

    /// After [`DbInner::commit_txn`] and any lock it ran under: acknowledge
    /// only once the record is on stable storage (group commit batches the
    /// fsync), and only then release the 2PL locks.
    pub fn finish_commit(&self, txid: TxnId, lsn: Option<Lsn>, s2pl_owner: Option<u64>) {
        if let Some(lsn) = lsn {
            self.dwal.wait_durable(lsn);
        }
        if let Some(owner) = s2pl_owner {
            self.s2pl.release_owner(owner);
        }
        self.active_snapshots.lock().remove(&txid);
        self.stats.commits.bump();
    }

    /// The one abort path, ROLLBACK and ROLLBACK PREPARED alike: the clog
    /// abort (writeless: no snapshot-cache invalidation), then the SSI abort
    /// publishing its resolution in-section, then the 2PL locks and the
    /// vacuum-horizon entry. Callers count the abort — a deferrable begin's
    /// discarded unsafe snapshot is not one.
    pub fn abort_txn(
        &self,
        txid: TxnId,
        xids: &[TxnId],
        ssi: Option<(&SsiManager, &SxactHandle)>,
        wrote: bool,
        s2pl_owner: Option<u64>,
    ) {
        if wrote {
            self.tm.abort(xids);
        } else {
            self.tm.abort_readonly(xids);
        }
        if let Some((mgr, sx)) = ssi {
            mgr.abort(sx, |txid| self.wal.publish_abort(self, txid));
        }
        if let Some(owner) = s2pl_owner {
            self.s2pl.release_owner(owner);
        }
        self.active_snapshots.lock().remove(&txid);
    }

    /// Oldest snapshot CSN any active transaction may read at (vacuum horizon).
    pub fn snapshot_horizon(&self) -> CommitSeqNo {
        self.active_snapshots
            .lock()
            .values()
            .min()
            .copied()
            .unwrap_or_else(|| self.tm.frontier())
    }
}

/// A key for an [`DbInner::active_snapshots`] entry that belongs to no
/// transaction (a replica's feedback pin, a checkpoint's snapshot). Synthetic
/// ids are carved downward from `u64::MAX`, far above any real txid; they
/// exist only as map keys and never touch the transaction manager.
pub(crate) fn synthetic_snapshot_key() -> TxnId {
    static NEXT: AtomicU64 = AtomicU64::new(u64::MAX);
    TxnId(NEXT.fetch_sub(1, Ordering::Relaxed))
}

/// Releases the [`DbInner::active_snapshots`] entry of a snapshot taken outside
/// any transaction (registered with [`Database::snapshot_registered`] under
/// `key`) when dropped.
struct SnapshotPin<'a> {
    db: &'a DbInner,
    key: TxnId,
}

impl Drop for SnapshotPin<'_> {
    fn drop(&mut self) {
        self.db.active_snapshots.lock().remove(&self.key);
    }
}

/// Every row of `heap` visible to `snapshot`, read as no transaction in
/// particular, in physical order (checkpoint images, `recluster`).
fn visible_rows(heap: &pgssi_storage::Heap, snapshot: &Snapshot, clog: &CommitLog) -> Vec<Row> {
    let mut rows = Vec::new();
    heap.scan_visible(
        snapshot,
        clog,
        &pgssi_storage::SingleXid(TxnId::INVALID),
        &mut |_| {},
        &mut |_, row| rows.push(row.clone()),
    );
    rows
}

/// An embedded pgssi database.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// Open a database with the given configuration. With the default
    /// [`WalMode::Memory`] this is a fresh empty database that keeps no log;
    /// with [`WalMode::File`] it delegates to [`Database::open_durable`]
    /// (recovering any existing log) and panics on I/O errors — call
    /// `open_durable` directly to handle them.
    pub fn new(config: EngineConfig) -> Database {
        match &config.wal.mode {
            WalMode::Memory => Database::fresh(config, DurableWal::none()),
            WalMode::File { .. } => {
                Database::open_durable(config).expect("failed to open durable database")
            }
        }
    }

    fn fresh(config: EngineConfig, dwal: DurableWal) -> Database {
        let tracer = Arc::new(if config.trace {
            Tracer::new(TRACE_EVENTS)
        } else {
            Tracer::disabled()
        });
        Database {
            inner: Arc::new(DbInner {
                catalog: Catalog::default(),
                tm: TxnManager::with_config(&config.txn),
                ssi: RwLock::new(Arc::new(SsiManager::with_tracer(
                    config.ssi.clone(),
                    Arc::clone(&tracer),
                ))),
                s2pl: S2plLockManager::new(),
                unique_stripes: (0..64).map(|_| Mutex::new(())).collect(),
                active_snapshots: Mutex::new(HashMap::new()),
                prepared: Mutex::new(HashMap::new()),
                wal: WalStream::new(),
                dwal,
                stats: EngineStats::default(),
                session_stats: SessionStats::default(),
                repl_stats: ReplicationStats::default(),
                tracer,
                config,
            }),
        }
    }

    /// Open with default configuration (in-memory, no log, both optimizations
    /// on).
    pub fn open() -> Database {
        Database::new(EngineConfig::default())
    }

    /// Open (or create) a durable database: the WAL directory's torn tail is
    /// truncated at the first bad checksum, the newest valid checkpoint is
    /// bulk-loaded, and every log record past the checkpoint is replayed —
    /// rebuilding heap, clog, and the transaction-manager frontier. Requires
    /// [`WalMode::File`]; in memory mode it is just [`Database::new`].
    pub fn open_durable(config: EngineConfig) -> Result<Database> {
        let WalMode::File { dir } = config.wal.mode.clone() else {
            return Ok(Database::new(config));
        };
        std::fs::create_dir_all(&dir).map_err(Error::wal)?;
        let dwal = DurableWal::open_file(&dir).map_err(Error::wal)?;
        let db = Database::fresh(config, dwal);
        // Replayed writes must not be re-logged.
        db.inner.dwal.set_capture(false);
        let mut applied_lsn: Lsn = 0;
        if let Ok(bytes) = std::fs::read(dir.join(CHECKPOINT_FILE)) {
            // A bad checkpoint (torn rename, corruption) falls back to
            // replaying the whole log.
            if let Some(ckpt) = decode_checkpoint(&bytes) {
                db.load_checkpoint(&ckpt)?;
                applied_lsn = ckpt.applied_lsn;
            }
        }
        // A trimmed log's dropped prefix lives only in the checkpoint image.
        // If the image is gone or corrupt, replaying the beheaded log would
        // silently resurrect a partial database — fail loudly instead.
        db.replay_log_from(applied_lsn)?;
        db.inner.dwal.set_capture(true);
        Ok(db)
    }

    /// Open a database on an already-open [`WalStore`], replaying whatever
    /// the store already holds. No checkpoint file is involved: databases
    /// opened this way recover from the log alone. This is the simulation
    /// harness's entry point — it wraps stores in fault injectors and
    /// "reopens" the surviving bytes after a simulated crash — and the only
    /// way to get an in-memory log (hand in a
    /// [`MemWalStore`](pgssi_storage::wal::MemWalStore)).
    pub fn open_with_store(config: EngineConfig, store: Box<dyn WalStore>) -> Result<Database> {
        let dwal = DurableWal::with_store(store);
        let db = Database::fresh(config, dwal);
        // Replayed writes must not be re-logged.
        db.inner.dwal.set_capture(false);
        db.replay_log_from(0)?;
        db.inner.dwal.set_capture(true);
        Ok(db)
    }

    /// Replay every log record past `applied_lsn` (the position a loaded
    /// checkpoint already covers; 0 = replay everything).
    fn replay_log_from(&self, applied_lsn: Lsn) -> Result<()> {
        let store = self.inner.dwal.store().expect("replay needs a log");
        let base = store.base_lsn();
        if base > applied_lsn {
            return Err(Error::Wal(format!(
                "log trimmed to LSN {base} but no valid checkpoint covers it \
                 (checkpoint file missing or corrupt)"
            )));
        }
        let frames = store.read_all().map_err(Error::wal)?;
        // gid → (prepare record, prepare LSN) for prepares the log has not
        // resolved yet.
        let mut stash: HashMap<String, (PreparedRecord, Lsn)> = HashMap::new();
        for (lsn, payload) in frames {
            let entry = decode_entry(&payload)
                .ok_or_else(|| Error::Wal(format!("malformed WAL record ending at {lsn}")))?;
            match entry {
                WalEntry::Commit { ops, .. } => {
                    if lsn <= applied_lsn {
                        continue;
                    }
                    self.replay_record(ops)?;
                    self.inner.dwal.stats.recovered_records.bump();
                }
                WalEntry::Prepare(rec) => {
                    // Stashed at *any* position: an unresolved prepare may sit
                    // before the checkpoint's applied LSN — its effects are
                    // uncommitted, so the image never covers them (which is
                    // why the checkpoint trim floor keeps the record).
                    stash.insert(rec.gid.clone(), (rec, lsn));
                }
                WalEntry::Resolve { gid, committed } => {
                    let stashed = stash.remove(&gid);
                    if !committed || lsn <= applied_lsn {
                        // Aborted, or committed but baked into the image.
                        continue;
                    }
                    let Some((rec, _)) = stashed else {
                        // A committed resolve past the image with no prepare
                        // in the log means the prefix was trimmed wrongly —
                        // the transaction's writes are gone. Fail loudly.
                        return Err(Error::Wal(format!(
                            "COMMIT PREPARED record for {gid:?} at LSN {lsn} \
                             has no prepare record to apply"
                        )));
                    };
                    // The resolve was appended in the clog-commit critical
                    // section, so applying the stashed ops at *its* position
                    // preserves the log-order = commit-order invariant.
                    self.replay_record(rec.ops)?;
                    self.inner.dwal.stats.recovered_records.bump();
                }
            }
        }
        // Whatever is still stashed crashed in doubt: rebuild each as a live
        // prepared transaction awaiting COMMIT PREPARED / ROLLBACK PREPARED.
        let mut in_doubt: Vec<(PreparedRecord, Lsn)> = stash.into_values().collect();
        in_doubt.sort_by_key(|&(_, lsn)| lsn);
        for (rec, lsn) in in_doubt {
            self.recover_in_doubt(rec, lsn)?;
        }
        Ok(())
    }

    /// Rebuild one in-doubt prepared transaction from its durable Prepare
    /// record: re-apply its redo ops under a fresh in-progress txid (re-taking
    /// the tuple write locks), re-register the gid, and — if it ran under SSI
    /// — re-instate the conservative §7.1 state (rw-antidependencies assumed
    /// both in and out) with relation-level SIREAD locks on the tables the
    /// record names. Runs with redo capture off, so nothing is re-logged; the
    /// rebuilt entry keeps the *original* prepare LSN so its eventual
    /// resolution still writes the Resolve marker this log is missing.
    fn recover_in_doubt(&self, rec: PreparedRecord, prepare_lsn: Lsn) -> Result<()> {
        let wrote = !rec.ops.is_empty();
        let mut txn = self.begin(IsolationLevel::ReadCommitted);
        for op in rec.ops {
            match op {
                RedoOp::CreateTable(def) => match self.inner.catalog.create_table(def) {
                    Ok(_) | Err(Error::Misuse(_)) => {}
                    Err(e) => return Err(e),
                },
                RedoOp::Upsert { table, row } => {
                    let (pk, width) = self.table_shape(&table)?;
                    if row.len() != width || pk.iter().any(|&i| i >= row.len()) {
                        return Err(Error::Wal(format!("redo row shape mismatch for {table}")));
                    }
                    let key: Key = pk.iter().map(|&i| row[i].clone()).collect();
                    if !txn.update(&table, &key, row.clone())? {
                        txn.insert(&table, row)?;
                    }
                }
                RedoOp::Delete { table, key } => {
                    txn.delete(&table, &key)?;
                }
            }
        }
        txn.prepare(&rec.gid)?;
        let mut prepared = self.inner.lock_prepared();
        let entry = prepared
            .get_mut(&rec.gid)
            .expect("gid registered by the prepare call above");
        entry.prepare_lsn = Some(prepare_lsn);
        if rec.serializable {
            // The original read set is lost (only relation names were
            // persisted), so the SIREAD footprint coarsens to whole
            // relations — strictly more conservative, never less.
            let siread_locks: Vec<pgssi_common::LockTarget> = rec
                .siread_tables
                .iter()
                .filter_map(|name| self.inner.catalog.table(name).ok())
                .map(|t| pgssi_common::LockTarget::Relation(t.heap_rel))
                .collect();
            let frontier = self.inner.tm.frontier();
            let ssi_rec = pgssi_core::PreparedSsi {
                txid: entry.txid,
                snapshot_csn: frontier,
                prepare_csn: frontier,
                siread_locks,
                wrote,
                had_in_conflict: true,
                had_out_conflict: true,
                earliest_out_conflict_commit: frontier,
            };
            let sx = self.inner.ssi().recover_prepared(&ssi_rec);
            entry.sx = Some(sx);
            entry.ssi = Some(ssi_rec);
        }
        Ok(())
    }

    /// Bulk-load a checkpoint image: recreate each table and insert its rows
    /// stamped [`TxnId::FROZEN`] (visible to every snapshot, like bootstrap
    /// data), indexing as we go.
    fn load_checkpoint(&self, ckpt: &Checkpoint) -> Result<()> {
        for (def, rows) in &ckpt.tables {
            let table = self.inner.catalog.create_table(def.clone())?;
            let inner = table.inner.read();
            for row in rows {
                let tid = inner.heap.insert(row.clone(), TxnId::FROZEN);
                inner.pk.insert(inner.pk.key_of(row), tid);
                for s in &inner.secondaries {
                    s.insert(s.key_of(row), tid);
                }
            }
        }
        Ok(())
    }

    /// Replay one commit record as a real READ COMMITTED transaction (so the
    /// clog and frontier advance exactly as a live commit would). Replay is
    /// idempotent: upserts overwrite, deletes ignore missing rows, DDL
    /// tolerates existing tables.
    fn replay_record(&self, ops: Vec<RedoOp>) -> Result<()> {
        let mut txn: Option<Transaction> = None;
        for op in ops {
            match op {
                RedoOp::CreateTable(def) => match self.inner.catalog.create_table(def) {
                    Ok(_) | Err(Error::Misuse(_)) => {}
                    Err(e) => return Err(e),
                },
                RedoOp::Upsert { table, row } => {
                    let t = txn.get_or_insert_with(|| self.begin(IsolationLevel::ReadCommitted));
                    let (pk, width) = self.table_shape(&table)?;
                    if row.len() != width || pk.iter().any(|&i| i >= row.len()) {
                        return Err(Error::Wal(format!("redo row shape mismatch for {table}")));
                    }
                    let key: Key = pk.iter().map(|&i| row[i].clone()).collect();
                    if !t.update(&table, &key, row.clone())? {
                        t.insert(&table, row)?;
                    }
                }
                RedoOp::Delete { table, key } => {
                    let t = txn.get_or_insert_with(|| self.begin(IsolationLevel::ReadCommitted));
                    t.delete(&table, &key)?;
                }
            }
        }
        if let Some(t) = txn {
            t.commit()?;
        }
        Ok(())
    }

    /// Write a checkpoint: the latest committed rows of every table plus the
    /// WAL position they cover, atomically captured (no commit can land
    /// between the snapshot and the recorded LSN), written tmp-then-rename.
    /// Recovery replays only records past the returned LSN. A no-op (returns
    /// 0) outside [`WalMode::File`].
    pub fn checkpoint(&self) -> Result<Lsn> {
        let WalMode::File { dir } = &self.inner.config.wal.mode else {
            return Ok(0);
        };
        // The prepared map stays locked *across* the quiesce: no PREPARE can
        // append and no resolution can commit between the trim-floor
        // computation below and the snapshot, so every unresolved Prepare
        // record is still in the log the floor protects (lock order
        // prepared → append, consistent with every other taker).
        let prepared = self.inner.lock_prepared();
        // Registered like a transaction's: the scan below must find every
        // version this snapshot sees, whatever a concurrent vacuum frees.
        let pin = SnapshotPin {
            db: &self.inner,
            key: synthetic_snapshot_key(),
        };
        let (snapshot, applied_lsn) = self
            .inner
            .dwal
            .quiesced(|| self.snapshot_registered(pin.key));
        // Keep the log tail from the earliest unresolved Prepare record on:
        // its in-doubt effects live only there, not in the checkpoint image
        // (they are uncommitted, so the snapshot below cannot see them).
        let floor = prepared
            .values()
            .filter_map(|r| r.prepare_lsn)
            .min()
            .map(|lsn| lsn - 1);
        drop(prepared);
        let mut tables = Vec::new();
        for name in self.inner.catalog.table_names() {
            let t = self.inner.catalog.table(&name)?;
            let inner = t.inner.read();
            let rows = visible_rows(&inner.heap, &snapshot, self.inner.tm.clog());
            tables.push((inner.def.clone(), rows));
        }
        drop(pin);
        let bytes = encode_checkpoint(&Checkpoint {
            applied_lsn,
            tables,
        });
        let tmp = dir.join("checkpoint.tmp");
        std::fs::write(&tmp, &bytes).map_err(Error::wal)?;
        let f = std::fs::File::open(&tmp).map_err(Error::wal)?;
        f.sync_all().map_err(Error::wal)?;
        std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE)).map_err(Error::wal)?;
        // The log itself is durable through the checkpoint position too.
        self.inner.dwal.flush();
        // Every record at or before `applied_lsn` is baked into the image
        // recovery will load first, so the log prefix is dead weight — drop
        // it, except the tail holding unresolved Prepare records. Safe only
        // now: the rename above made the image the durable recovery root
        // before any log bytes disappear.
        self.inner
            .dwal
            .trim_to(floor.map_or(applied_lsn, |f| f.min(applied_lsn)))
            .map_err(Error::wal)?;
        Ok(applied_lsn)
    }

    /// The durable WAL handle (stats, flush, recovery inspection).
    pub fn durable_wal(&self) -> &DurableWal {
        &self.inner.dwal
    }

    /// Create a table. With a log, the DDL is appended (and fsynced, in file
    /// mode) before this returns.
    pub fn create_table(&self, def: TableDef) -> Result<()> {
        let logged = self
            .inner
            .dwal
            .capturing()
            .then(|| encode_commit(TxnId::INVALID, &[RedoOp::CreateTable(def.clone())]));
        self.inner.catalog.create_table(def)?;
        if let Some(payload) = logged {
            self.inner.dwal.append_ddl(&payload);
        }
        Ok(())
    }

    /// Look up a table handle (mostly for tests/tools).
    pub(crate) fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.inner.catalog.table(name)
    }

    /// Begin a read/write transaction at `isolation`.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        self.begin_with(BeginOptions::new(isolation))
            .expect("non-deferrable begin cannot fail")
    }

    /// Begin with full options. Only DEFERRABLE transactions can block (waiting
    /// for a safe snapshot) — and even they always succeed eventually, so the
    /// only error source is option validation.
    pub fn begin_with(&self, opts: BeginOptions) -> Result<Transaction> {
        self.begin_with_shard(opts, None)
    }

    /// [`Database::begin_with`] with the txid drawn from an explicit
    /// allocation shard. The session front-end pins each logical session to a
    /// shard derived from its session id, so txid allocation spreads across
    /// shards no matter which worker thread happens to run the session.
    pub fn begin_with_on_shard(&self, opts: BeginOptions, shard: usize) -> Result<Transaction> {
        self.begin_with_shard(opts, Some(shard))
    }

    fn begin_with_shard(&self, opts: BeginOptions, shard: Option<usize>) -> Result<Transaction> {
        if opts.deferrable && !(opts.read_only && opts.isolation == IsolationLevel::Serializable) {
            return Err(Error::Misuse(
                "DEFERRABLE requires SERIALIZABLE READ ONLY".into(),
            ));
        }
        if opts.deferrable {
            return Ok(self.begin_deferrable(shard));
        }
        let txid = self.begin_txid(shard);
        let (ssi, snapshot) = if opts.isolation == IsolationLevel::Serializable {
            let (ssi, snapshot) = self.begin_ssi(txid, opts.read_only, false);
            (Some(ssi), snapshot)
        } else {
            (None, self.snapshot_registered(txid))
        };
        Ok(self.make_txn(txid, snapshot, opts, ssi))
    }

    /// Register a serializable transaction. Its snapshot is taken inside
    /// `SsiManager::begin`, under the commit-order mutex, so no
    /// cleanup/summarization can race between snapshot acquisition and
    /// registration (see the method's docs).
    fn begin_ssi(&self, txid: TxnId, read_only: bool, deferrable: bool) -> (SsiTxn, Snapshot) {
        let mgr = self.inner.ssi();
        let mut snapshot = None;
        let take_snapshot = || {
            let s = self.snapshot_registered(txid);
            let csn = s.csn;
            snapshot = Some(s);
            csn
        };
        let sx = mgr.begin(txid, take_snapshot, read_only, deferrable);
        let snapshot = snapshot.expect("closure always runs");
        (SsiTxn { mgr, sx }, snapshot)
    }

    fn begin_txid(&self, shard: Option<usize>) -> TxnId {
        match shard {
            Some(s) => self.inner.tm.begin_on_shard(s),
            None => self.inner.tm.begin(),
        }
    }

    /// Take a snapshot and register its CSN for the vacuum horizon, atomically
    /// (the horizon must never advance past a snapshot that exists but is not
    /// yet registered).
    pub(crate) fn snapshot_registered(&self, txid: TxnId) -> Snapshot {
        let mut map = self.inner.active_snapshots.lock();
        let s = self.inner.tm.snapshot();
        map.insert(txid, s.csn);
        s
    }

    /// DEFERRABLE loop (§4.3): acquire a snapshot, wait for its safety to be
    /// decided; retry on unsafe.
    fn begin_deferrable(&self, shard: Option<usize>) -> Transaction {
        loop {
            let txid = self.begin_txid(shard);
            let (ssi, snapshot) = self.begin_ssi(txid, true, true);
            match ssi.mgr.wait_for_safety(&ssi.sx, Duration::from_secs(3600)) {
                SafetyState::Safe => {
                    let opts = BeginOptions::new(IsolationLevel::Serializable).deferrable();
                    return self.make_txn(txid, snapshot, opts, Some(ssi));
                }
                SafetyState::Unsafe | SafetyState::Pending => {
                    // The retry loop's discarded txid never wrote anything;
                    // its snapshot must stop pinning the vacuum horizon.
                    let ssi = Some((&*ssi.mgr, &ssi.sx));
                    self.inner.abort_txn(txid, &[txid], ssi, false, None);
                    self.inner.stats.deferrable_retries.bump();
                }
            }
        }
    }

    /// Wrap a begun transaction. Its snapshot is already registered for the
    /// vacuum horizon ([`Database::snapshot_registered`]).
    fn make_txn(
        &self,
        txid: TxnId,
        snapshot: Snapshot,
        opts: BeginOptions,
        ssi: Option<SsiTxn>,
    ) -> Transaction {
        Transaction::new(Arc::clone(&self.inner), txid, snapshot, opts, ssi)
    }

    /// The SSI manager (stats and diagnostics).
    pub fn ssi(&self) -> Arc<SsiManager> {
        self.inner.ssi()
    }

    /// The S2PL lock manager (stats).
    pub fn s2pl(&self) -> &S2plLockManager {
        &self.inner.s2pl
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    /// Session-layer counters (bumped by `pgssi-server` when it fronts this
    /// database; all zero for embedded use).
    pub fn session_stats(&self) -> &SessionStats {
        &self.inner.session_stats
    }

    /// Primary-key column positions and column count of `table` (wire
    /// front-ends need these to derive — and validate — the key of a full
    /// row sent over the protocol).
    pub fn table_shape(&self, table: &str) -> Result<(Vec<usize>, usize)> {
        let t = self.table(table)?;
        let inner = t.inner.read();
        let shape = (inner.def.pk.clone(), inner.def.columns.len());
        Ok(shape)
    }

    /// Aggregate every layer's counters into one [`StatsReport`]: engine
    /// commits/aborts, SSI-core conflict and abort counts, SIREAD lock-table
    /// acquisition/promotion totals with per-partition mutex contention, and
    /// the S2PL baseline's counters.
    pub fn stats_report(&self) -> StatsReport {
        let ssi = self.inner.ssi();
        let s = &ssi.stats;
        let siread = ssi.siread();
        let parts = siread.partition_stats();
        StatsReport {
            commits: self.inner.stats.commits.get(),
            aborts: self.inner.stats.aborts.get(),
            retry_attempts: self.inner.stats.retry_attempts.get(),
            ssi_conflicts_flagged: s.conflicts_flagged.get(),
            ssi_dangerous_structures: s.dangerous_structures.get(),
            ssi_aborts_self: s.aborts_self.get(),
            ssi_doomed: s.doomed_set.get(),
            ssi_summary_aborts: s.summary_aborts.get(),
            ssi_safe_snapshots: s.safe_immediate.get() + s.safe_established.get(),
            ssi_summarized: s.summarized.get(),
            siread_acquisitions: siread.acquisitions.get(),
            siread_promotions: siread.promotions.get(),
            siread_locks: parts.iter().map(|p| p.locks).sum(),
            siread_partition_taken: parts.iter().map(|p| p.taken).sum(),
            siread_partition_contended: parts.iter().map(|p| p.contended).sum(),
            siread_local_accumulated: siread.local_accumulated.get(),
            siread_batches_published: siread.batches_published.get(),
            siread_filter_probes: siread.filter_probes.get(),
            siread_filter_hits: siread.filter_hits.get(),
            siread_forced_publishes: siread.forced_publishes.get(),
            s2pl_grants: self.inner.s2pl.grants.get(),
            s2pl_waits: self.inner.s2pl.waits.get(),
            s2pl_deadlocks: self.inner.s2pl.deadlocks.get(),
            txn_begins: self.inner.tm.stats.begins.get(),
            txn_snapshot_hits: self.inner.tm.stats.snapshot_hits.get(),
            txn_snapshot_incremental: self.inner.tm.stats.snapshot_incremental.get(),
            txn_snapshot_full_rebuilds: self.inner.tm.stats.snapshot_full_rebuilds.get(),
            txn_id_blocks: self.inner.tm.stats.txid_blocks.get(),
            txn_id_shards: self.inner.tm.shard_count(),
            txn_wait_reports: self.inner.tm.stats.wait_reports.get(),
            sessions_opened: self.inner.session_stats.sessions_opened.get(),
            session_requests: self.inner.session_stats.requests_enqueued.get(),
            session_executed: self.inner.session_stats.requests_executed.get(),
            session_worker_parks: self.inner.session_stats.worker_parks.get(),
            session_lock_wakeups: 0,
            session_reserve_workers: self.inner.session_stats.reserve_workers.get(),
            session_socket_reads: self.inner.session_stats.socket_reads.get(),
            session_socket_writes: self.inner.session_stats.socket_writes.get(),
            repl_records: self.inner.repl_stats.records.get(),
            repl_resolves_shipped: self.inner.repl_stats.resolves_shipped.get(),
            repl_safe_local: self.inner.repl_stats.safe_local.get(),
            repl_marker_waits_avoided: self.inner.repl_stats.marker_waits_avoided.get(),
            repl_unsafe_candidates: self.inner.repl_stats.unsafe_candidates.get(),
            repl_catch_ups: self.inner.repl_stats.catch_ups.get(),
            repl_lag_records: self.inner.repl_stats.lag_records.get(),
            wal_records: self.inner.dwal.stats.records.get(),
            wal_bytes: self.inner.dwal.end_lsn(),
            wal_syncs: self.inner.dwal.stats.syncs.get(),
            wal_sync_waits: self.inner.dwal.stats.sync_waits.get(),
            wal_recovered_records: self.inner.dwal.stats.recovered_records.get(),
            wal_torn_bytes: self.inner.dwal.stats.torn_bytes.get(),
            aborts_by: self.inner.stats.aborts_by.snapshot(),
            latency: self.latency_report(),
            trace_events: self.inner.tracer.events.get(),
            cluster_shards: 0,
            cluster_single_commits: 0,
            cluster_cross_commits: 0,
            cluster_cross_aborts: 0,
            cluster_enlistments: 0,
            cluster_spared_by_facts: 0,
        }
    }

    /// Snapshot every latency histogram (the `latency` field of
    /// [`Database::stats_report`], also available on its own).
    pub fn latency_report(&self) -> LatencyReport {
        let ssi = self.inner.ssi();
        LatencyReport {
            commit: self.inner.stats.commit_ns.snapshot(),
            commit_order: ssi.stats.commit_order_ns.snapshot(),
            fsync_wait: self.inner.dwal.stats.sync_wait_ns.snapshot(),
            row_lock_wait: self.inner.tm.stats.wait_ns.snapshot(),
            siread_publish: ssi.siread().publish_ns.snapshot(),
            repl_catchup: self.inner.repl_stats.lag_hist.snapshot(),
        }
    }

    /// Look up one latency histogram by name (see [`LatencyReport::NAMES`]);
    /// the wire verb `HIST <name>` resolves through this.
    pub fn histogram(&self, name: &str) -> Option<HistSnapshot> {
        self.latency_report().get(name).cloned()
    }

    /// Dump the lifecycle tracer's ring, oldest retained event first. Empty
    /// unless the database was opened with `trace` on.
    pub fn trace_dump(&self) -> Vec<TraceEvent> {
        self.inner.tracer.dump()
    }

    /// [`Database::trace_dump`] filtered to one transaction.
    pub fn trace_dump_txn(&self, txid: TxnId) -> Vec<TraceEvent> {
        self.inner.tracer.dump_txn(txid.0)
    }

    /// The transaction manager (tests).
    pub fn txn_manager(&self) -> &TxnManager {
        &self.inner.tm
    }

    /// Register a row-lock wait observer: `(waiter, holder)` is reported just
    /// before a transaction parks waiting for another to finish. The session
    /// pool installs one to show the wait in `ACTIVITY` and to count its
    /// blocked workers. Replaces any previous observer.
    pub fn set_wait_observer(&self, obs: pgssi_storage::WaitObserver) {
        self.inner.tm.set_wait_observer(obs);
    }

    /// The WAL stream (replication).
    pub fn wal(&self) -> &WalStream {
        &self.inner.wal
    }

    // ------------------------------------------------------------------
    // Two-phase commit (§7.1)
    // ------------------------------------------------------------------

    /// COMMIT PREPARED: finish a previously prepared transaction. The redo
    /// ops are already on disk inside the Prepare record, so only a small
    /// Resolve marker is logged — in the clog-commit critical section, so its
    /// log position *is* the transaction's commit position and recovery
    /// applies the stashed prepare ops in commit order.
    pub fn commit_prepared(&self, gid: &str) -> Result<()> {
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::TwoPhaseResolve);
        // The prepared-map guard is held across the commit so the checkpoint
        // trim floor (earliest unresolved prepare) cannot advance past this
        // gid's Prepare record while its Resolve is not in the log yet.
        let mut prepared = self.inner.lock_prepared();
        let rec = prepared
            .remove(gid)
            .ok_or_else(|| Error::NotFound(format!("prepared transaction {gid:?}")))?;
        let resolve = rec.prepare_lsn.map(|_| encode_resolve(gid, true));
        let ssi = self.inner.ssi();
        let lsn = self
            .inner
            .commit_txn(
                rec.txid,
                &rec.xids,
                rec.sx.as_ref().map(|sx| (&*ssi, sx)),
                rec.wrote,
                resolve.as_deref(),
            )
            .expect("a prepared branch skips the pivot re-check");
        drop(prepared);
        self.inner.finish_commit(rec.txid, lsn, rec.s2pl_owner);
        Ok(())
    }

    /// ROLLBACK PREPARED: user-initiated abort of a prepared transaction (SSI
    /// never chooses prepared transactions as victims, but the owner may).
    pub fn rollback_prepared(&self, gid: &str) -> Result<()> {
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::TwoPhaseResolve);
        let mut prepared = self.inner.lock_prepared();
        let rec = prepared
            .remove(gid)
            .ok_or_else(|| Error::NotFound(format!("prepared transaction {gid:?}")))?;
        // Log the abort fate before the entry disappears from the map (same
        // trim-floor argument as commit_prepared); replay then drops the
        // stashed prepare instead of resurrecting it as in-doubt.
        let resolve_lsn = rec
            .prepare_lsn
            .map(|_| self.inner.dwal.append_record(&encode_resolve(gid, false)));
        drop(prepared);
        let ssi = self.inner.ssi();
        self.inner.abort_txn(
            rec.txid,
            &rec.xids,
            rec.sx.as_ref().map(|sx| (&*ssi, sx)),
            rec.wrote,
            rec.s2pl_owner,
        );
        self.inner.stats.aborts.bump();
        if let Some(lsn) = resolve_lsn {
            self.inner.dwal.wait_durable(lsn);
        }
        Ok(())
    }

    /// The crash-safe SSI facts of a prepared transaction (None for a
    /// non-serializable branch). A cross-shard coordinator unions these
    /// across branches to evaluate the distributed dangerous-structure rule.
    pub fn prepared_ssi(&self, gid: &str) -> Option<pgssi_core::PreparedSsi> {
        self.inner
            .lock_prepared()
            .get(gid)
            .and_then(|r| r.ssi.clone())
    }

    /// Names of prepared-but-unresolved transactions.
    pub fn prepared_gids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.prepared.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Simulate a crash and recovery: all volatile SSI state is discarded and
    /// rebuilt from the crash-safe prepared-transaction records (§7.1). Heap and
    /// index data survive ("disk"); non-prepared in-flight transactions are
    /// aborted, as their effects were never committed.
    ///
    /// Recovered prepared transactions are conservatively assumed to have
    /// rw-antidependencies both in and out.
    pub fn simulate_crash_recovery(&self) {
        // Abort every non-prepared in-flight transaction.
        let prepared_xids: Vec<TxnId> = self
            .inner
            .prepared
            .lock()
            .values()
            .flat_map(|p| p.xids.clone())
            .collect();
        let in_flight: Vec<TxnId> = self
            .inner
            .active_snapshots
            .lock()
            .keys()
            .copied()
            .filter(|x| !prepared_xids.contains(x))
            .collect();
        for x in &in_flight {
            self.inner.tm.abort(&[*x]);
            // Recovery writes abort records for in-flight transactions, so a
            // follower pinned on one (its sxact died with the discarded SSI
            // state below) does not wait forever. Non-serializable ids are
            // noise a follower ignores.
            self.inner.wal.publish_abort(&self.inner, *x);
        }
        self.inner
            .active_snapshots
            .lock()
            .retain(|x, _| prepared_xids.contains(x));

        // Rebuild the SSI manager from the persistent records. The tracer is
        // shared, not rebuilt: pre-crash events stay inspectable.
        let fresh = Arc::new(SsiManager::with_tracer(
            self.inner.config.ssi.clone(),
            Arc::clone(&self.inner.tracer),
        ));
        let mut prepared = self.inner.prepared.lock();
        for rec in prepared.values_mut() {
            rec.sx = rec
                .ssi
                .as_ref()
                .map(|ssi_rec| fresh.recover_prepared(ssi_rec));
        }
        *self.inner.ssi.write() = fresh;
    }

    // ------------------------------------------------------------------
    // DDL (§5.2.1) and vacuum
    // ------------------------------------------------------------------

    /// Drop a secondary index. Index-gap SIREAD locks on it can no longer detect
    /// phantoms, so they are replaced with a relation-level lock on the heap
    /// (§5.2.1).
    pub fn drop_index(&self, table: &str, index: &str) -> Result<()> {
        let t = self.table(table)?;
        let mut inner = t.inner.write();
        let pos = inner
            .secondaries
            .iter()
            .position(|s| s.def.name == index)
            .ok_or_else(|| Error::NoSuchIndex(index.to_string()))?;
        let slot = inner.secondaries.remove(pos);
        inner.def.indexes.retain(|d| d.name != index);
        self.inner
            .ssi()
            .siread()
            .promote_relation(slot.rel(), t.heap_rel);
        Ok(())
    }

    /// Rewrite a table (CLUSTER / VACUUM FULL analog): tuples move to new
    /// physical locations, so page- and tuple-granularity SIREAD locks on the
    /// heap and its indexes are promoted to a relation lock (§5.2.1).
    pub fn recluster(&self, table: &str) -> Result<()> {
        let t = self.table(table)?;
        let mut inner = t.inner.write();
        // Rebuild the heap from the latest committed row versions.
        let snapshot = self.inner.tm.snapshot();
        let new_heap = Arc::new(pgssi_storage::Heap::new(t.heap_rel));
        // No vacuum can run on this table meanwhile: it needs the DDL lock.
        let rows = visible_rows(&inner.heap, &snapshot, self.inner.tm.clog());
        // Fresh physical layout + rebuilt indexes.
        let mut new_inner = TableRebuild::new(&inner);
        for row in rows {
            let tid = new_heap.insert(row.clone(), TxnId::FROZEN);
            new_inner.index_row(&row, tid);
        }
        inner.heap = new_heap;
        let (pk, secondaries) = new_inner.finish();
        inner.pk = pk;
        inner.secondaries = secondaries;
        // Physical lock targets are stale: promote (heap keeps its RelId; index
        // locks fold into the heap relation like a drop+recreate).
        let ssi = self.inner.ssi();
        ssi.siread().promote_relation(t.heap_rel, t.heap_rel);
        ssi.siread().promote_relation(inner.pk.rel(), t.heap_rel);
        for s in &inner.secondaries {
            ssi.siread().promote_relation(s.rel(), t.heap_rel);
        }
        Ok(())
    }

    /// Vacuum every table: prune dead versions older than the snapshot horizon
    /// and remove index entries whose rows are fully dead. Returns
    /// `(versions_pruned, index_entries_removed)`.
    pub fn vacuum(&self) -> (usize, usize) {
        crate::vacuum::vacuum(&self.inner)
    }
}

/// Helper for rebuilding a table's indexes during `recluster`.
struct TableRebuild {
    pk: crate::catalog::IndexSlot,
    secondaries: Vec<crate::catalog::IndexSlot>,
}

impl TableRebuild {
    fn new(inner: &crate::catalog::TableInner) -> TableRebuild {
        use crate::catalog::{IndexImpl, IndexKind, IndexSlot};
        use pgssi_index::{BTreeIndex, HashIndex};
        let rebuild = |slot: &IndexSlot| -> IndexSlot {
            let imp = match slot.def.kind {
                IndexKind::BTree => IndexImpl::BTree(BTreeIndex::new(slot.rel())),
                IndexKind::Hash => IndexImpl::Hash(HashIndex::new(slot.rel())),
            };
            IndexSlot {
                def: slot.def.clone(),
                imp,
            }
        };
        TableRebuild {
            pk: rebuild(&inner.pk),
            secondaries: inner.secondaries.iter().map(rebuild).collect(),
        }
    }

    fn index_row(&mut self, row: &pgssi_common::Row, tid: pgssi_common::TupleId) {
        self.pk.insert(self.pk.key_of(row), tid);
        for s in &self.secondaries {
            s.insert(s.key_of(row), tid);
        }
    }

    fn finish(self) -> (crate::catalog::IndexSlot, Vec<crate::catalog::IndexSlot>) {
        (self.pk, self.secondaries)
    }
}
