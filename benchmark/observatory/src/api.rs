//! The observatory's whole view of the system under test.
//!
//! This is the only file that names a `pgssi_*` item. Everything the driver,
//! the probes and the checks need is wrapped here in plain types (`i64` keys,
//! `u64` counts, strings), so a later PR that reshapes a crate's API has
//! exactly one file of the benchmark to keep compiling — and must keep it
//! measuring the same calls. `benchmark/README.md` lists this surface.

use std::net::SocketAddr;
use std::ops::Bound;
use std::path::Path;

use pgssi_common::{
    row, EngineConfig, Error, LockTarget, RelId, Row, ServerConfig, SsiConfig, TupleId, WalConfig,
};
use pgssi_engine::{
    BeginOptions, Database, IsolationLevel, Router, ShardedDatabase, ShardedTransaction,
    StatsReport, TableDef, Transaction,
};
use pgssi_index::BTreeIndex;
use pgssi_lockmgr::siread::SireadLockManager;
use pgssi_server::{Server, TcpClient, TcpFrontEnd, Transport};

/// The workload table: `si(k, v)`, primary key `k`.
pub const TABLE: &str = "si";
/// The two-row table the write-skew check runs on.
pub const SKEW_TABLE: &str = "ws";

/// The two isolation levels the workloads ask for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    Serializable,
    RepeatableRead,
}

impl Level {
    fn engine(self) -> IsolationLevel {
        match self {
            Level::Serializable => IsolationLevel::Serializable,
            Level::RepeatableRead => IsolationLevel::RepeatableRead,
        }
    }

    fn wire(self) -> &'static str {
        match self {
            Level::Serializable => "BEGIN SERIALIZABLE",
            Level::RepeatableRead => "BEGIN REPEATABLE READ",
        }
    }
}

/// Why a call failed, as far as the retry rule cares.
#[derive(Debug)]
pub enum Fail {
    /// `Error::is_retryable()`: serialization failure or deadlock, with its text.
    Retry(String),
    /// Anything else, or a wrong result; the logical transaction has failed.
    Fatal(String),
}

pub type Res<T> = Result<T, Fail>;

impl From<Error> for Fail {
    fn from(e: Error) -> Fail {
        if e.is_retryable() {
            Fail::Retry(e.to_string())
        } else {
            Fail::Fatal(e.to_string())
        }
    }
}

/// A scan's rows, kept opaque so the span around `scan` covers only the call.
pub struct Rows(Vec<Row>);

impl Rows {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(k, v)` of every row; `None` if a row is not two integers.
    pub fn pairs(&self) -> Option<Vec<(i64, i64)>> {
        self.0.iter().map(int_pair).collect()
    }

    /// Smallest `v`, the SIBENCH query's answer.
    pub fn min_v(&self) -> Option<i64> {
        self.0.iter().filter_map(|r| r.get(1)?.as_int()).min()
    }
}

fn int_pair(r: &Row) -> Option<(i64, i64)> {
    Some((r.first()?.as_int()?, r.get(1)?.as_int()?))
}

fn value_of(r: Option<Row>) -> Option<i64> {
    r.as_ref().and_then(int_pair).map(|(_, v)| v)
}

/// An in-process top layer: the engine or the cluster.
pub trait Store: Clone + Send + Sync + 'static {
    /// Span-name prefix of calls into this layer.
    const LAYER: &'static str;
    type Txn: Txn;

    fn begin(&self, level: Level, read_only: bool) -> Res<Self::Txn>;
    /// Vacuum every shard; returns versions pruned.
    fn vacuum(&self) -> u64;
    fn stats(&self) -> Stats;
}

/// A transaction on a [`Store`], over integer keys and values.
pub trait Txn {
    fn get(&mut self, table: &str, k: i64) -> Res<Option<i64>>;
    fn insert(&mut self, table: &str, k: i64, v: i64) -> Res<()>;
    fn update(&mut self, table: &str, k: i64, v: i64) -> Res<bool>;
    fn scan(&mut self, table: &str) -> Res<Rows>;
    fn commit(self) -> Res<()>;
}

fn table_def(name: &str) -> TableDef {
    TableDef::new(name, &["k", "v"], vec![0])
}

fn begin_options(level: Level, read_only: bool) -> BeginOptions {
    let opts = BeginOptions::new(level.engine());
    if read_only {
        opts.read_only()
    } else {
        opts
    }
}

macro_rules! impl_txn {
    ($t:ty) => {
        impl Txn for $t {
            fn get(&mut self, table: &str, k: i64) -> Res<Option<i64>> {
                Ok(value_of(<$t>::get(self, table, &row![k])?))
            }

            fn insert(&mut self, table: &str, k: i64, v: i64) -> Res<()> {
                Ok(<$t>::insert(self, table, row![k, v])?)
            }

            fn update(&mut self, table: &str, k: i64, v: i64) -> Res<bool> {
                Ok(<$t>::update(self, table, &row![k], row![k, v])?)
            }

            fn scan(&mut self, table: &str) -> Res<Rows> {
                Ok(Rows(<$t>::scan(self, table)?))
            }

            fn commit(self) -> Res<()> {
                Ok(<$t>::commit(self)?)
            }
        }
    };
}

impl_txn!(Transaction);
impl_txn!(ShardedTransaction);

/// The embedded engine (`pgssi_engine::Database`), all knobs at their defaults.
#[derive(Clone)]
pub struct EngineDb(Database);

impl EngineDb {
    /// A fresh in-memory database with both tables created.
    pub fn open_memory() -> Res<EngineDb> {
        EngineDb::create(Database::new(EngineConfig::default()))
    }

    /// A fresh database with a file WAL under `dir` and default group commit.
    pub fn create_durable(dir: &Path) -> Res<EngineDb> {
        EngineDb::create(EngineDb::open_dir(dir)?)
    }

    /// Reopen (recover) the database under `dir`.
    pub fn reopen_durable(dir: &Path) -> Res<EngineDb> {
        Ok(EngineDb(EngineDb::open_dir(dir)?))
    }

    fn open_dir(dir: &Path) -> Res<Database> {
        let config = EngineConfig {
            wal: WalConfig::file(dir),
            ..EngineConfig::default()
        };
        Ok(Database::open_durable(config)?)
    }

    fn create(db: Database) -> Res<EngineDb> {
        db.create_table(table_def(TABLE))?;
        db.create_table(table_def(SKEW_TABLE))?;
        Ok(EngineDb(db))
    }

    pub fn checkpoint(&self) -> Res<()> {
        self.0.checkpoint()?;
        Ok(())
    }

    pub fn begin_snapshot_finish(&self) -> usize {
        begin_snapshot_finish(&self.0)
    }
}

/// Storage probe: begin + snapshot + read-only finish on the database's own
/// transaction manager (shard 0's, for the cluster and the server).
fn begin_snapshot_finish(db: &Database) -> usize {
    let tm = db.txn_manager();
    let x = tm.begin();
    let snap = tm.snapshot();
    tm.commit_readonly(&[x]);
    snap.xip.len()
}

impl Store for EngineDb {
    const LAYER: &'static str = "engine";
    type Txn = Transaction;

    fn begin(&self, level: Level, read_only: bool) -> Res<Transaction> {
        Ok(self.0.begin_with(begin_options(level, read_only))?)
    }

    fn vacuum(&self) -> u64 {
        self.0.vacuum().0 as u64
    }

    fn stats(&self) -> Stats {
        Stats(self.0.stats_report())
    }
}

/// The hash-partitioned cluster (`pgssi_engine::ShardedDatabase`).
#[derive(Clone)]
pub struct ClusterDb(ShardedDatabase);

impl ClusterDb {
    pub fn open_memory(shards: usize) -> Res<ClusterDb> {
        let db = ShardedDatabase::new(shards, EngineConfig::default());
        db.create_table(table_def(TABLE))?;
        db.create_table(table_def(SKEW_TABLE))?;
        Ok(ClusterDb(db))
    }

    /// The shard the cluster's `Router` places key `k` of the workload table on.
    pub fn shard_of(&self, k: i64) -> usize {
        self.0.router().route(TABLE, &row![k])
    }

    pub fn begin_snapshot_finish(&self) -> usize {
        begin_snapshot_finish(self.0.shard(0))
    }
}

fn vacuum_shards(db: &ShardedDatabase) -> u64 {
    (0..db.shards())
        .map(|i| db.shard(i).vacuum().0 as u64)
        .sum()
}

impl Store for ClusterDb {
    const LAYER: &'static str = "cluster";
    type Txn = ShardedTransaction;

    fn begin(&self, level: Level, read_only: bool) -> Res<ShardedTransaction> {
        Ok(self.0.begin_with(begin_options(level, read_only))?)
    }

    fn vacuum(&self) -> u64 {
        vacuum_shards(&self.0)
    }

    fn stats(&self) -> Stats {
        Stats(self.0.stats_report())
    }
}

/// `Server::listen` in front of an [`EngineDb`], `workers` pool threads.
pub struct WireServer {
    server: Server,
    front: TcpFrontEnd,
}

impl WireServer {
    pub fn start(db: EngineDb, workers: usize) -> Res<WireServer> {
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::new(db.0, cfg);
        let front = server.listen("127.0.0.1:0")?;
        Ok(WireServer { server, front })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    pub fn vacuum(&self) -> u64 {
        vacuum_shards(self.server.db())
    }

    pub fn stats(&self) -> Stats {
        Stats(self.server.db().stats_report())
    }

    pub fn begin_snapshot_finish(&self) -> usize {
        begin_snapshot_finish(self.server.db().shard(0))
    }

    /// Stop accepting, close every session, join the pool's workers.
    pub fn shutdown(self) {
        self.front.shutdown();
        self.server.shutdown();
    }
}

/// One blocking `TcpClient` connection speaking the text line protocol.
pub struct WireConn(TcpClient);

/// What one response line means for the transaction it belongs to.
pub enum Reply<'a> {
    /// `OK`, `ROW …`, `NIL`, `ROWS …`.
    Fine(&'a str),
    /// `ERR` carrying a retryable error's text.
    Retry(&'a str),
    /// Any other `ERR`.
    Error(&'a str),
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> Res<WireConn> {
        Ok(WireConn(TcpClient::connect(addr)?))
    }

    pub fn send(&self, line: &str) -> Res<()> {
        Ok(self.0.send(line)?)
    }

    pub fn recv(&self) -> Res<String> {
        Ok(self.0.recv()?)
    }

    pub fn begin_line(level: Level) -> &'static str {
        level.wire()
    }

    /// Classify a response. The server flattens errors to `ERR <Display>`, so
    /// retryability is read off the two retryable errors' texts.
    pub fn classify(resp: &str) -> Reply<'_> {
        match resp.strip_prefix("ERR ") {
            None => Reply::Fine(resp),
            Some(msg) if msg.contains("could not serialize access") || msg.contains("deadlock") => {
                Reply::Retry(msg)
            }
            Some(msg) => Reply::Error(msg),
        }
    }

    /// `v` of a `ROW k v` response to `GET si k`, if it is that.
    pub fn row_value(resp: &str, k: i64) -> Option<i64> {
        let mut it = resp.strip_prefix("ROW ")?.split_whitespace();
        (it.next()?.parse::<i64>().ok()? == k).then_some(())?;
        it.next()?.parse().ok()
    }
}

/// A `stats_report()` snapshot of whichever top layer a workload uses.
pub struct Stats(StatsReport);

/// Counts and histogram percentiles of one pass: `after.since(&before)`.
#[derive(Default, Debug)]
pub struct Counts {
    pub commits: u64,
    pub aborts: u64,
    pub conflicts_flagged: u64,
    pub dangerous_structures: u64,
    pub safe_snapshots: u64,
    pub summarized: u64,
    pub siread_acquisitions: u64,
    pub siread_promotions: u64,
    pub partition_taken: u64,
    pub partition_contended: u64,
    pub snapshot_hits: u64,
    pub snapshot_rebuilds: u64,
    pub session_requests: u64,
    pub worker_parks: u64,
    pub lock_wakeups: u64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub wal_sync_waits: u64,
    pub cluster_single_commits: u64,
    pub cluster_cross_commits: u64,
    pub cluster_cross_aborts: u64,
    pub cluster_enlistments: u64,
    pub cluster_spared: u64,
    pub commit_order_p50_ns: u64,
    pub commit_order_p95_ns: u64,
    pub fsync_wait_p50_ns: u64,
    pub fsync_wait_p95_ns: u64,
    pub row_lock_wait_p95_ns: u64,
    pub siread_publish_p95_ns: u64,
}

impl Stats {
    pub fn wal_recovered_records(&self) -> u64 {
        self.0.wal_recovered_records
    }

    pub fn since(&self, before: &Stats) -> Counts {
        let d = self.0.delta(&before.0);
        let l = &d.latency;
        Counts {
            commits: d.commits,
            aborts: d.aborts,
            conflicts_flagged: d.ssi_conflicts_flagged,
            dangerous_structures: d.ssi_dangerous_structures,
            safe_snapshots: d.ssi_safe_snapshots,
            summarized: d.ssi_summarized,
            siread_acquisitions: d.siread_acquisitions,
            siread_promotions: d.siread_promotions,
            partition_taken: d.siread_partition_taken,
            partition_contended: d.siread_partition_contended,
            snapshot_hits: d.txn_snapshot_hits,
            snapshot_rebuilds: d.txn_snapshot_full_rebuilds,
            session_requests: d.session_requests,
            worker_parks: d.session_worker_parks,
            lock_wakeups: d.session_lock_wakeups,
            wal_bytes: d.wal_bytes,
            wal_syncs: d.wal_syncs,
            wal_sync_waits: d.wal_sync_waits,
            cluster_single_commits: d.cluster_single_commits,
            cluster_cross_commits: d.cluster_cross_commits,
            cluster_cross_aborts: d.cluster_cross_aborts,
            cluster_enlistments: d.cluster_enlistments,
            cluster_spared: d.cluster_spared_by_facts,
            commit_order_p50_ns: l.commit_order.percentile(50.0),
            commit_order_p95_ns: l.commit_order.percentile(95.0),
            fsync_wait_p50_ns: l.fsync_wait.percentile(50.0),
            fsync_wait_p95_ns: l.fsync_wait.percentile(95.0),
            row_lock_wait_p95_ns: l.row_lock_wait.percentile(95.0),
            siread_publish_p95_ns: l.siread_publish.percentile(95.0),
        }
    }
}

/// Index probe target: a standalone `BTreeIndex` over keys `0..rows`.
pub struct IndexProbe(BTreeIndex);

fn tid_of(i: i64) -> TupleId {
    TupleId::new((i / 64) as u32, (i % 64) as u16)
}

impl IndexProbe {
    pub fn empty() -> IndexProbe {
        IndexProbe(BTreeIndex::new(RelId(1)))
    }

    pub fn insert(&self, k: i64) {
        self.0.insert(row![k], tid_of(k));
    }

    /// Entries found by a point search.
    pub fn point(&self, k: i64) -> usize {
        self.0.search(&row![k]).entries.len()
    }

    /// Entries found by a range scan of `[lo, lo + len)`.
    pub fn range(&self, lo: i64, len: i64) -> usize {
        self.0
            .range(Bound::Included(row![lo]), Bound::Excluded(row![lo + len]))
            .entries
            .len()
    }
}

/// Lock-manager probe target: a standalone `SireadLockManager`.
pub struct LockProbe {
    mgr: SireadLockManager,
    next_owner: u64,
    hit_chain: Vec<LockTarget>,
    miss_chain: Vec<LockTarget>,
}

fn tuple_target(i: usize) -> LockTarget {
    LockTarget::Tuple(RelId(1), (i / 64) as u32, (i % 64) as u16)
}

impl LockProbe {
    /// `holder_targets` tuple locks of relation 1 stay held by one owner, so
    /// conflict checks have something to hit; relation 2 is never read.
    pub fn new(holder_targets: usize) -> LockProbe {
        let mgr = SireadLockManager::new(SsiConfig::default());
        mgr.register_owner(1);
        for i in 0..holder_targets {
            mgr.acquire(1, tuple_target(i));
        }
        mgr.publish_pending(1);
        LockProbe {
            mgr,
            next_owner: 2,
            hit_chain: tuple_target(0).check_chain(),
            miss_chain: LockTarget::Tuple(RelId(2), 7, 9).check_chain(),
        }
    }

    /// One reader's life: register, take `targets` tuple locks, release.
    pub fn acquire_release(&mut self, targets: usize) {
        let owner = self.next_owner;
        self.next_owner += 1;
        self.mgr.register_owner(owner);
        for i in 0..targets {
            self.mgr.acquire(owner, tuple_target(i));
        }
        self.mgr.release_owner(owner);
    }

    /// A writer's check of a tuple the holder has locked; returns holders found.
    pub fn conflict_check_hit(&self) -> usize {
        let found = self.mgr.conflicting_holders(&self.hit_chain, u64::MAX);
        found.owners.len()
    }

    /// A writer's check of a tuple in a relation nobody has read.
    pub fn conflict_check_miss(&self) -> usize {
        let found = self.mgr.conflicting_holders(&self.miss_chain, u64::MAX);
        found.owners.len()
    }
}

/// Router probe target: a standalone `Router` of `shards` shards.
pub struct RouteProbe(Router);

impl RouteProbe {
    pub fn new(shards: usize) -> RouteProbe {
        RouteProbe(Router::new(shards))
    }

    pub fn route(&self, k: i64) -> usize {
        self.0.route(TABLE, &row![k])
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail::Fatal(format!("io: {e}"))
    }
}
