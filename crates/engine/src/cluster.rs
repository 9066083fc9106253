//! Hash-partitioned shards with cross-shard two-phase commit.
//!
//! A [`ShardedDatabase`] owns N fully independent [`Database`] shards — each
//! with its own SSI manager, transaction manager, durable WAL, and (optional)
//! replication stream — plus a [`Router`] mapping `(table, primary key)` to a
//! shard by consistent hashing. Transactions route *per statement*:
//!
//! * **Single-shard fast path.** A [`ShardedTransaction`] lazily opens a
//!   branch on the first shard a statement routes to and runs entirely there.
//!   If it never touches a second shard, COMMIT is a plain local commit — no
//!   coordinator, no other shard's locks, no extra WAL records. The
//!   `coordinator-enlistments` counter proves it (always equals the number of
//!   cross-shard transactions, never the single-shard count).
//!
//! * **Cross-shard escalation.** The moment a statement routes to a second
//!   shard, the transaction enlists with the coordinator. COMMIT then runs
//!   two-phase commit over the existing PREPARE / COMMIT PREPARED machinery
//!   (§7.1): every branch prepares (persisting its SIREAD footprint and redo
//!   ops durably), and the coordinator decides the global fate.
//!
//! Serializability across shards cannot lean on a shared conflict graph —
//! each shard sees only its local rw-antidependency edges. The coordinator
//! therefore applies the paper's §7.1 prepared-as-committed conservatism at
//! cluster scope: each branch's [`PreparedSsi`](pgssi_core::PreparedSsi)
//! facts (`had_in_conflict`, `had_out_conflict`, and the §3.3.1
//! `earliest_out_conflict_commit` commit-ordering fact) are unioned, and the
//! global transaction aborts if it had an in-edge on *any* shard and an
//! out-edge on *any* shard — the distributed dangerous-structure test with
//! the global transaction as pivot. The rule is sound but conservative: the
//! `spared-by-fact-exchange` counter measures how many of those aborts a
//! coordinator running the precise §3.3.1 test (some out-neighbor actually
//! committed first) would have allowed, i.e. the abort-rate cost of not
//! exchanging conflict facts at PREPARE.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pgssi_common::config::WalMode;
use pgssi_common::stats::Counter;
use pgssi_common::{
    CommitSeqNo, EngineConfig, Error, Key, Result, Row, SerializationKind, TxnId, WalConfig,
};

use crate::database::{BeginOptions, Database, IsolationLevel, SessionStats, StatsReport};
use crate::txn::Transaction;

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Virtual nodes per shard on the consistent-hash ring. Enough to spread
/// tables' key ranges evenly; small enough that building the ring is free.
const VNODES_PER_SHARD: usize = 32;

/// Consistent-hash router: `(table, primary key)` → shard index.
///
/// Each shard owns [`VNODES_PER_SHARD`] points on a 64-bit ring; a key maps
/// to the first point at or after its hash (wrapping). Consistent hashing
/// keeps the map stable under reconfiguration (adding a shard moves only
/// ~1/N of the keys), though this implementation is built once per cluster.
#[derive(Clone, Debug)]
pub struct Router {
    shards: usize,
    /// Sorted `(ring position, shard)` points.
    ring: Vec<(u64, u32)>,
}

/// FNV-1a, inlined: stable across platforms and runs (no `RandomState`), so
/// the same key always lands on the same shard — the property replay and
/// cross-process clients depend on.
#[inline]
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Murmur3's 64-bit finalizer. Raw FNV-1a does not avalanche: two keys
/// differing only in a low byte hash ~`p^8` apart, and with 64-bit ring
/// gaps averaging 2^57 that puts *every* small consecutive integer key in
/// the same vnode gap (i.e. on one shard). The finalizer spreads single-bit
/// input differences across all 64 bits.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Hash a routing key: table name, then each primary-key value with a
/// variant tag (so `Int(1)` and `Text("1")` cannot collide structurally).
fn route_hash(table: &str, key: &Key) -> u64 {
    let mut h = fnv1a(table.as_bytes(), FNV_OFFSET);
    for v in key {
        h = match v {
            pgssi_common::Value::Null => fnv1a(&[0], h),
            pgssi_common::Value::Bool(b) => fnv1a(&[1, *b as u8], h),
            pgssi_common::Value::Int(i) => {
                h = fnv1a(&[2], h);
                fnv1a(&i.to_le_bytes(), h)
            }
            pgssi_common::Value::Text(s) => {
                h = fnv1a(&[3], h);
                fnv1a(s.as_bytes(), h)
            }
        };
    }
    fmix64(h)
}

impl Router {
    /// Build a ring for `shards` shards (at least 1).
    pub fn new(shards: usize) -> Router {
        let shards = shards.max(1);
        let mut ring = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                // Vnode positions come from hashing the (shard, vnode) pair;
                // FNV on 16 fixed bytes is plenty uniform for 64-bit points.
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(shard as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(vnode as u64).to_le_bytes());
                ring.push((fmix64(fnv1a(&bytes, FNV_OFFSET)), shard as u32));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|p| p.0);
        Router { shards, ring }
    }

    /// Number of shards the ring covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Route a `(table, primary key)` pair to its owning shard.
    pub fn route(&self, table: &str, key: &Key) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let h = route_hash(table, key);
        // First ring point at or after `h`, wrapping to the start.
        let idx = self.ring.partition_point(|&(pos, _)| pos < h);
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard as usize
    }
}

// ---------------------------------------------------------------------------
// Cluster stats
// ---------------------------------------------------------------------------

/// Coordinator-level counters (per-shard engine counters live in each
/// shard's own [`StatsReport`]; [`ShardedDatabase::stats_report`] merges
/// both).
#[derive(Default)]
pub struct ClusterStats {
    /// Transactions that committed entirely on one shard (fast path).
    pub single_shard_commits: Counter,
    /// Cross-shard transactions committed through 2PC.
    pub cross_shard_commits: Counter,
    /// Cross-shard transactions aborted during 2PC (branch prepare failure
    /// or the coordinator's conservative union rule).
    pub cross_shard_aborts: Counter,
    /// Transactions that touched a second shard (enlisted a coordinator).
    /// The fast-path invariant: this never counts single-shard transactions.
    pub coordinator_enlistments: Counter,
    /// Conservative-rule aborts the precise §3.3.1 fact-exchange rule would
    /// have allowed to commit (no out-neighbor had committed first on any
    /// shard): the measurable abort-rate cost of the cheap rule.
    pub spared_by_fact_exchange: Counter,
}

// ---------------------------------------------------------------------------
// ShardedDatabase
// ---------------------------------------------------------------------------

struct ClusterInner {
    shards: Vec<Database>,
    router: Router,
    stats: ClusterStats,
    gid_seq: AtomicU64,
}

/// N independent [`Database`] shards behind a consistent-hash routing layer.
///
/// Everything per-shard composes unchanged: a file-backed
/// [`WalConfig`](pgssi_common::WalConfig) gives every shard its own durable
/// WAL under `dir/shard-<i>/`, and replicas attach per shard via
/// [`Replica::connect`](crate::Replica::connect) on
/// [`ShardedDatabase::shard`].
#[derive(Clone)]
pub struct ShardedDatabase {
    inner: Arc<ClusterInner>,
}

/// Per-shard engine configuration: file-backed WALs split into per-shard
/// subdirectories; everything else is shared verbatim.
fn shard_config(config: &EngineConfig, shard: usize) -> EngineConfig {
    let mut cfg = config.clone();
    if let WalMode::File { dir } = &config.wal.mode {
        cfg.wal = WalConfig::file(dir.join(format!("shard-{shard}")));
    }
    cfg
}

impl ShardedDatabase {
    /// Open a cluster of `shards` databases. With a file-backed WAL each
    /// shard recovers its own log from `dir/shard-<i>/`; panics on I/O
    /// errors like [`Database::new`] — use [`ShardedDatabase::open_durable`]
    /// to handle them.
    pub fn new(shards: usize, config: EngineConfig) -> ShardedDatabase {
        ShardedDatabase::open_durable(shards, config).expect("failed to open sharded database")
    }

    /// Open a cluster of `shards` databases, surfacing recovery errors.
    pub fn open_durable(shards: usize, config: EngineConfig) -> Result<ShardedDatabase> {
        let shards = shards.max(1);
        let dbs = (0..shards)
            .map(|i| Database::open_durable(shard_config(&config, i)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedDatabase::from_shards(dbs))
    }

    /// Wrap existing databases (tests that need per-shard fault injection or
    /// pre-seeded state). The router covers exactly `dbs.len()` shards. Each
    /// is marked a cluster shard ([`pgssi_core::SsiManager::set_cluster_shard`]):
    /// the 2PC union rule below reads edges a writeless reader leaves.
    pub fn from_shards(dbs: Vec<Database>) -> ShardedDatabase {
        assert!(!dbs.is_empty(), "cluster needs at least one shard");
        for db in &dbs {
            db.ssi().set_cluster_shard();
        }
        ShardedDatabase {
            inner: Arc::new(ClusterInner {
                router: Router::new(dbs.len()),
                shards: dbs,
                stats: ClusterStats::default(),
                gid_seq: AtomicU64::new(1),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// One shard's database (tests, per-shard replication, stats).
    pub fn shard(&self, i: usize) -> &Database {
        &self.inner.shards[i]
    }

    /// The routing layer.
    pub fn router(&self) -> &Router {
        &self.inner.router
    }

    /// Coordinator-level counters.
    pub fn cluster_stats(&self) -> &ClusterStats {
        &self.inner.stats
    }

    /// The shared session-stats sink (the TCP front-end charges connection
    /// counters here; shard 0 hosts them for the whole cluster).
    pub fn session_stats(&self) -> &SessionStats {
        self.inner.shards[0].session_stats()
    }

    /// Create a table on every shard (the schema is global; rows partition).
    pub fn create_table(&self, def: crate::TableDef) -> Result<()> {
        for db in &self.inner.shards {
            db.create_table(def.clone())?;
        }
        Ok(())
    }

    /// Begin a read/write transaction at `isolation`.
    pub fn begin(&self, isolation: IsolationLevel) -> ShardedTransaction {
        self.begin_with(BeginOptions::new(isolation))
            .expect("non-deferrable begin cannot fail")
    }

    /// Begin with full options. No shard is touched yet — branches open
    /// lazily as statements route (BEGIN pins nothing).
    pub fn begin_with(&self, opts: BeginOptions) -> Result<ShardedTransaction> {
        self.begin_with_on_shard(opts, None)
    }

    /// [`ShardedDatabase::begin_with`] with branch txids drawn from an
    /// explicit allocation shard (the session front-end pins each logical
    /// session so txid allocation spreads across allocation shards no matter
    /// which worker thread runs it).
    pub fn begin_with_on_shard(
        &self,
        opts: BeginOptions,
        alloc_shard: Option<usize>,
    ) -> Result<ShardedTransaction> {
        // Validate the options eagerly (deferrable rules) by round-tripping
        // them through a shard-0 begin only when a branch actually opens;
        // here only the cheap structural check runs.
        if opts.deferrable && !(opts.read_only && opts.isolation == IsolationLevel::Serializable) {
            return Err(Error::Misuse(
                "DEFERRABLE requires SERIALIZABLE READ ONLY".into(),
            ));
        }
        Ok(ShardedTransaction {
            cluster: self.clone(),
            opts,
            alloc_shard,
            branches: (0..self.shards()).map(|_| None).collect(),
            enlisted: Vec::new(),
            finished: false,
        })
    }

    /// `(pk columns, width)` of `table` (the schema is identical on every
    /// shard; shard 0 answers).
    pub fn table_shape(&self, table: &str) -> Result<(Vec<usize>, usize)> {
        self.inner.shards[0].table_shape(table)
    }

    /// A named latency histogram merged across every shard (the `HIST`
    /// introspection verb); `None` if the name is unknown.
    pub fn histogram(&self, name: &str) -> Option<pgssi_common::stats::HistSnapshot> {
        let mut merged = self.inner.shards[0].histogram(name)?;
        for db in &self.inner.shards[1..] {
            if let Some(h) = db.histogram(name) {
                merged.merge(&h);
            }
        }
        Some(merged)
    }

    /// Checkpoint every shard; returns the per-shard applied LSNs.
    pub fn checkpoint(&self) -> Result<Vec<u64>> {
        self.inner.shards.iter().map(|db| db.checkpoint()).collect()
    }

    /// Prepared-but-unresolved gids across all shards, tagged `(shard, gid)`.
    pub fn prepared_gids(&self) -> Vec<(usize, String)> {
        let mut v = Vec::new();
        for (i, db) in self.inner.shards.iter().enumerate() {
            v.extend(db.prepared_gids().into_iter().map(|g| (i, g)));
        }
        v
    }

    /// Cluster-wide stats: every shard's [`StatsReport`] merged (counters
    /// add, histograms merge) plus the coordinator counters on the
    /// `cluster:` line.
    pub fn stats_report(&self) -> StatsReport {
        let mut report = self.inner.shards[0].stats_report();
        for db in &self.inner.shards[1..] {
            report.absorb(&db.stats_report());
        }
        let s = &self.inner.stats;
        report.cluster_shards = self.shards();
        report.cluster_single_commits = s.single_shard_commits.get();
        report.cluster_cross_commits = s.cross_shard_commits.get();
        report.cluster_cross_aborts = s.cross_shard_aborts.get();
        report.cluster_enlistments = s.coordinator_enlistments.get();
        report.cluster_spared_by_facts = s.spared_by_fact_exchange.get();
        report
    }
}

// ---------------------------------------------------------------------------
// ShardedTransaction
// ---------------------------------------------------------------------------

/// A transaction over a [`ShardedDatabase`]: one lazily opened branch
/// [`Transaction`] per touched shard, committed locally (one shard) or via
/// cross-shard 2PC (two or more).
pub struct ShardedTransaction {
    cluster: ShardedDatabase,
    opts: BeginOptions,
    alloc_shard: Option<usize>,
    branches: Vec<Option<Transaction>>,
    /// Shards in enlistment order (first entry = fast-path shard).
    enlisted: Vec<usize>,
    finished: bool,
}

impl ShardedTransaction {
    /// The branch on `shard`, opened on first touch. Touching a second shard
    /// enlists the coordinator (and is counted — the fast-path invariant is
    /// checked against this counter).
    fn branch(&mut self, shard: usize) -> Result<&mut Transaction> {
        if self.finished {
            return Err(Error::InvalidState("transaction already finished".into()));
        }
        if self.branches[shard].is_none() {
            let db = &self.cluster.inner.shards[shard];
            let txn = match self.alloc_shard {
                Some(s) => db.begin_with_on_shard(self.opts, s)?,
                None => db.begin_with(self.opts)?,
            };
            self.branches[shard] = Some(txn);
            self.enlisted.push(shard);
            if self.enlisted.len() == 2 {
                self.cluster.inner.stats.coordinator_enlistments.bump();
            }
        }
        Ok(self.branches[shard].as_mut().expect("just opened"))
    }

    /// Route a primary key to its shard.
    fn route(&self, table: &str, key: &Key) -> usize {
        self.cluster.inner.router.route(table, key)
    }

    /// Route a full row by extracting its primary key (schema is identical
    /// on every shard; shard 0 answers the shape question).
    fn route_row(&self, table: &str, new_row: &Row) -> Result<usize> {
        let (pk, width) = self.cluster.inner.shards[0].table_shape(table)?;
        if new_row.len() != width || pk.iter().any(|&i| i >= new_row.len()) {
            return Err(Error::Misuse(format!("row shape mismatch for {table}")));
        }
        let key: Key = pk.iter().map(|&i| new_row[i].clone()).collect();
        Ok(self.route(table, &key))
    }

    /// Shards this transaction has touched, in enlistment order, with each
    /// branch's local txid.
    pub fn enlisted(&self) -> Vec<(usize, TxnId)> {
        self.enlisted
            .iter()
            .map(|&s| (s, self.branches[s].as_ref().expect("enlisted").txid()))
            .collect()
    }

    /// Whether this transaction escalated to cross-shard 2PC.
    pub fn is_cross_shard(&self) -> bool {
        self.enlisted.len() > 1
    }

    /// Read access to the branch on `shard`, if one has enlisted. Checkers
    /// (the sim harness's history recorder) use this to capture per-branch
    /// snapshot CSNs without going through the statement API.
    pub fn branch_ref(&self, shard: usize) -> Option<&Transaction> {
        self.branches.get(shard).and_then(|b| b.as_ref())
    }

    /// The first enlisted branch's txid (`None` until a statement routes):
    /// the representative id shown in `ACTIVITY` listings.
    pub fn txid(&self) -> Option<TxnId> {
        let &shard = self.enlisted.first()?;
        Some(self.branches[shard].as_ref().expect("enlisted").txid())
    }

    /// True once the transaction can no longer execute statements: committed,
    /// rolled back, or any branch auto-aborted under a retryable error (the
    /// whole distributed transaction is doomed with it — remaining branches
    /// roll back on drop).
    pub fn is_finished(&self) -> bool {
        self.finished
            || self
                .enlisted
                .iter()
                .any(|&s| self.branches[s].as_ref().is_none_or(|t| t.is_finished()))
    }

    /// The transaction's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.opts.isolation
    }

    /// Point lookup by primary key.
    pub fn get(&mut self, table: &str, key: &Key) -> Result<Option<Row>> {
        let shard = self.route(table, key);
        self.branch(shard)?.get(table, key)
    }

    /// Insert a row (routes by its primary key).
    pub fn insert(&mut self, table: &str, new_row: Row) -> Result<()> {
        let shard = self.route_row(table, &new_row)?;
        self.branch(shard)?.insert(table, new_row)
    }

    /// Update the row at `key`. The replacement must keep the primary key
    /// (changing it would move the row across shards mid-transaction).
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> Result<bool> {
        let shard = self.route(table, key);
        let target = self.route_row(table, &new_row)?;
        if target != shard {
            return Err(Error::Misuse(format!(
                "update moves row across shards ({shard} -> {target}); \
                 delete + insert instead"
            )));
        }
        self.branch(shard)?.update(table, key, new_row)
    }

    /// Delete the row at `key`.
    pub fn delete(&mut self, table: &str, key: &Key) -> Result<bool> {
        let shard = self.route(table, key);
        self.branch(shard)?.delete(table, key)
    }

    /// Full scan: touches *every* shard (a scan has no routing key), so a
    /// scanning transaction on a multi-shard cluster is cross-shard by
    /// construction. Rows merge in primary-key-independent sorted order.
    pub fn scan(&mut self, table: &str) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for shard in 0..self.cluster.shards() {
            rows.extend(self.branch(shard)?.scan(table)?);
        }
        rows.sort();
        Ok(rows)
    }

    /// Commit. One enlisted shard commits locally (fast path); two or more
    /// run cross-shard 2PC with the conservative union rule (module docs).
    pub fn commit(mut self) -> Result<()> {
        self.finished = true;
        let enlisted = std::mem::take(&mut self.enlisted);
        match enlisted.len() {
            0 => Ok(()),
            1 => {
                let txn = self.branches[enlisted[0]].take().expect("enlisted");
                txn.commit()?;
                self.cluster.inner.stats.single_shard_commits.bump();
                Ok(())
            }
            _ => self.commit_2pc(&enlisted),
        }
    }

    /// Cross-shard two-phase commit.
    fn commit_2pc(&mut self, enlisted: &[usize]) -> Result<()> {
        let cluster = self.cluster.clone();
        let stats = &cluster.inner.stats;
        let gid = format!(
            "cluster-{}",
            cluster.inner.gid_seq.fetch_add(1, Ordering::Relaxed)
        );
        // Phase 1: PREPARE every branch. A branch failure (its local §5.4
        // check found a dangerous structure) aborts the global transaction:
        // roll back prepared branches and unprepared ones alike.
        let mut prepared: Vec<usize> = Vec::new();
        for &shard in enlisted {
            let txn = self.branches[shard].take().expect("enlisted");
            if let Err(e) = txn.prepare(&gid) {
                for &p in &prepared {
                    let _ = self.cluster.inner.shards[p].rollback_prepared(&gid);
                }
                self.rollback_open_branches();
                stats.cross_shard_aborts.bump();
                return Err(e);
            }
            // PREPARE itself marked the branch conservative (§7.1), in the
            // step that read the facts unioned below: until the global fate
            // lands, every new edge on this shard is judged as if the
            // transaction had committed.
            prepared.push(shard);
        }

        // Phase 2 decision: union the branches' prepare-time conflict facts.
        // The global transaction is a *distributed pivot* if some shard saw
        // an rw-edge in and some shard (possibly another) saw an rw-edge
        // out. Without exchanging edge endpoints there is no way to check
        // the §3.3.1 commit-ordering condition across shards, so the
        // conservative rule aborts every distributed pivot.
        let facts: Vec<pgssi_core::PreparedSsi> = prepared
            .iter()
            .filter_map(|&s| self.cluster.inner.shards[s].prepared_ssi(&gid))
            .collect();
        let union_in = facts.iter().any(|f| f.had_in_conflict);
        let union_out = facts.iter().any(|f| f.had_out_conflict);
        if union_in && union_out {
            // The precise rule a conflict-fact exchange at PREPARE would
            // enable: dangerous only if some out-neighbor committed first
            // (§3.3.1). Counted, not applied — the cheap rule stays in
            // force; the counter is the measured abort-rate gap.
            let committed_first = facts
                .iter()
                .any(|f| f.earliest_out_conflict_commit != CommitSeqNo::MAX);
            if !committed_first {
                stats.spared_by_fact_exchange.bump();
            }
            for &p in &prepared {
                let _ = self.cluster.inner.shards[p].rollback_prepared(&gid);
            }
            stats.cross_shard_aborts.bump();
            return Err(Error::SerializationFailure {
                kind: SerializationKind::PivotAbort,
                detail: format!(
                    "cross-shard pivot: rw-antidependency in and out across \
                     {} shards (conservative 2PC rule)",
                    prepared.len()
                ),
            });
        }

        // Phase 2: COMMIT PREPARED everywhere, in enlistment order. Branch
        // commits are shard-local decisions now — none can fail the
        // serializability check (prepare passed it), so the global commit
        // point is the first branch's COMMIT PREPARED.
        for &shard in &prepared {
            self.cluster.inner.shards[shard]
                .commit_prepared(&gid)
                .expect("prepared branch must commit");
        }
        stats.cross_shard_commits.bump();
        Ok(())
    }

    /// Roll back branches that never reached PREPARE.
    fn rollback_open_branches(&mut self) {
        for b in &mut self.branches {
            if let Some(txn) = b.take() {
                txn.rollback();
            }
        }
    }

    /// Roll back every branch. Idempotent.
    pub fn rollback(mut self) {
        self.abort_unfinished();
    }

    /// Terminal accounting for every non-commit exit (explicit rollback,
    /// statement-level abort followed by drop, or plain drop): a transaction
    /// that enlisted two or more shards touched the coordinator, so it must
    /// land in `cross_shard_aborts` — otherwise `coordinator_enlistments ==
    /// cross commits + cross aborts` (the fast-path invariant the cluster
    /// bench asserts) would leak one enlistment per mid-statement abort.
    fn abort_unfinished(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.enlisted.len() >= 2 {
            self.cluster.inner.stats.cross_shard_aborts.bump();
        }
        self.enlisted.clear();
        self.rollback_open_branches();
    }
}

impl Drop for ShardedTransaction {
    fn drop(&mut self) {
        self.abort_unfinished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableDef;
    use pgssi_common::row;

    fn cluster(shards: usize) -> ShardedDatabase {
        let c = ShardedDatabase::new(shards, EngineConfig::default());
        c.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        c
    }

    #[test]
    fn router_is_stable_and_covers_all_shards() {
        let r = Router::new(4);
        let mut hit = [false; 4];
        for i in 0..256i64 {
            let key: Key = row![i];
            let a = r.route("kv", &key);
            let b = r.route("kv", &key);
            assert_eq!(a, b, "routing must be deterministic");
            hit[a] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys should cover 4 shards");
        // Different tables spread the same key differently (table name is
        // part of the hash).
        let k: Key = row![42];
        let spread: std::collections::BTreeSet<usize> =
            (0..32).map(|t| r.route(&format!("t{t}"), &k)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn single_shard_transactions_skip_the_coordinator() {
        let c = cluster(4);
        for i in 0..32i64 {
            let mut t = c.begin(IsolationLevel::Serializable);
            t.insert("kv", row![i, i]).unwrap();
            assert!(!t.is_cross_shard());
            t.commit().unwrap();
        }
        assert_eq!(c.cluster_stats().single_shard_commits.get(), 32);
        assert_eq!(c.cluster_stats().coordinator_enlistments.get(), 0);
        assert_eq!(c.cluster_stats().cross_shard_commits.get(), 0);
        // No shard saw a PREPARE: the fast path never touches 2PC.
        for s in 0..c.shards() {
            assert!(c.shard(s).prepared_gids().is_empty());
        }
    }

    #[test]
    fn cross_shard_transactions_run_2pc_and_read_back() {
        let c = cluster(4);
        let mut t = c.begin(IsolationLevel::Serializable);
        for i in 0..16i64 {
            t.insert("kv", row![i, i * 10]).unwrap();
        }
        assert!(t.is_cross_shard());
        t.commit().unwrap();
        assert_eq!(c.cluster_stats().cross_shard_commits.get(), 1);
        assert_eq!(c.cluster_stats().coordinator_enlistments.get(), 1);

        let mut r = c.begin(IsolationLevel::Serializable);
        for i in 0..16i64 {
            assert_eq!(r.get("kv", &row![i]).unwrap(), Some(row![i, i * 10]));
        }
        r.commit().unwrap();
        // Every gid resolved.
        assert!(c.prepared_gids().is_empty());
    }

    #[test]
    fn scan_merges_all_shards() {
        let c = cluster(3);
        let mut t = c.begin(IsolationLevel::ReadCommitted);
        for i in 0..12i64 {
            t.insert("kv", row![i, i]).unwrap();
        }
        t.commit().unwrap();
        let mut r = c.begin(IsolationLevel::ReadCommitted);
        let rows = r.scan("kv").unwrap();
        r.rollback();
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn enlistments_equal_cross_shard_transactions() {
        let c = cluster(2);
        let mut cross = 0u64;
        for i in 0..64i64 {
            let mut t = c.begin(IsolationLevel::Serializable);
            t.insert("kv", row![i, 0]).unwrap();
            t.insert("kv", row![i + 1000, 0]).unwrap();
            if t.is_cross_shard() {
                cross += 1;
            }
            t.commit().unwrap();
        }
        let s = c.cluster_stats();
        assert_eq!(s.coordinator_enlistments.get(), cross);
        assert_eq!(
            s.coordinator_enlistments.get(),
            s.cross_shard_commits.get() + s.cross_shard_aborts.get()
        );
    }

    #[test]
    fn update_cannot_move_a_row_across_shards() {
        let c = cluster(4);
        // Find a key whose shard differs from another key's.
        let r = c.router();
        let k1: Key = row![1];
        let mut moved = None;
        for i in 2..64i64 {
            if r.route("kv", &row![i]) != r.route("kv", &k1) {
                moved = Some(i);
                break;
            }
        }
        let other = moved.expect("some key must land elsewhere");
        let mut t = c.begin(IsolationLevel::ReadCommitted);
        t.insert("kv", row![1, 1]).unwrap();
        t.commit().unwrap();
        let mut t = c.begin(IsolationLevel::ReadCommitted);
        let err = t.update("kv", &row![1], row![other, 1]).unwrap_err();
        assert!(matches!(err, Error::Misuse(_)));
        t.rollback();
    }
}
