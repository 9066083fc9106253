//! Cross-shard semantics of the sharded cluster: the §3.1 write-skew
//! dangerous structure split across shards (no single shard ever sees both
//! edges), the §3.3.1 fact-exchange counter, and composition of per-shard
//! durability and replication with cross-shard 2PC.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pgssi_common::{row, EngineConfig, Error, Key, SerializationKind, WalConfig};
use pgssi_engine::{IsolationLevel, Replica, ShardedDatabase, TableDef};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "pgssi-cluster-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn kv_cluster(shards: usize) -> ShardedDatabase {
    let c = ShardedDatabase::new(shards, EngineConfig::default());
    c.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    c
}

/// Two keys that the router places on *different* shards (the write-skew
/// tests need the pivot's in-edge and out-edge witnessed by different
/// shards).
fn split_keys(c: &ShardedDatabase) -> (Key, Key) {
    let a: Key = row![0i64];
    let home = c.router().route("kv", &a);
    for i in 1..1024i64 {
        let b: Key = row![i];
        if c.router().route("kv", &b) != home {
            return (a, b);
        }
    }
    panic!("router never split 1024 keys across shards");
}

/// §3.1 write skew with the two rw-antidependency edges on different shards:
/// T1 reads x (shard A) and writes y (shard B); T2 reads y and writes x.
/// Shard A sees only T1 --rw--> T2; shard B sees only T2 --rw--> T1. No
/// shard-local §5.4 check can fire — only the coordinator's conservative
/// union rule catches the distributed pivot, and it must.
#[test]
fn cross_shard_write_skew_aborts_at_the_coordinator() {
    let c = kv_cluster(2);
    let (x, y) = split_keys(&c);
    let mut setup = c.begin(IsolationLevel::Serializable);
    setup.insert("kv", row![x[0].clone(), 0]).unwrap();
    setup.insert("kv", row![y[0].clone(), 0]).unwrap();
    setup.commit().unwrap();
    let committed_before = c.cluster_stats().cross_shard_commits.get();

    let mut t1 = c.begin(IsolationLevel::Serializable);
    let mut t2 = c.begin(IsolationLevel::Serializable);
    assert!(t1.get("kv", &x).unwrap().is_some());
    assert!(t2.get("kv", &y).unwrap().is_some());
    t1.update("kv", &y, row![y[0].clone(), 1]).unwrap();
    t2.update("kv", &x, row![x[0].clone(), 1]).unwrap();
    assert!(t1.is_cross_shard());
    assert!(t2.is_cross_shard());

    // No single shard saw a dangerous structure, so the branch prepares
    // succeed; the union of prepare-time facts (in-edge on one shard,
    // out-edge on the other) is what aborts.
    let err = t1.commit().unwrap_err();
    assert!(
        matches!(
            err,
            Error::SerializationFailure {
                kind: SerializationKind::PivotAbort,
                ..
            }
        ),
        "expected a cross-shard pivot abort, got: {err}"
    );
    let stats = c.cluster_stats();
    assert_eq!(stats.cross_shard_aborts.get(), 1);
    assert_eq!(stats.cross_shard_commits.get(), committed_before);
    // Neither of T1's out-neighbors had committed, so the precise §3.3.1
    // commit-ordering rule (which a conflict-fact exchange at PREPARE would
    // enable) would have let T1 commit: the abort is pure conservatism and
    // the gap counter must say so.
    assert_eq!(stats.spared_by_fact_exchange.get(), 1);

    // With T1 rolled back everywhere the structure is gone; T2 commits.
    t2.commit().unwrap();
    assert!(c.prepared_gids().is_empty(), "2PC left an unresolved gid");
}

/// When an out-neighbor really did commit first, the abort is one the precise
/// §3.3.1 rule would also take — the fact-exchange counter must NOT move.
#[test]
fn pivot_with_committed_out_neighbor_is_not_counted_as_spared() {
    let c = kv_cluster(2);
    let (x, y) = split_keys(&c);
    let mut setup = c.begin(IsolationLevel::Serializable);
    setup.insert("kv", row![x[0].clone(), 0]).unwrap();
    setup.insert("kv", row![y[0].clone(), 0]).unwrap();
    setup.commit().unwrap();

    // Pivot T1: reads x on shard A (out-edge lives there), writes y on
    // shard B (in-edge lives there).
    let mut t1 = c.begin(IsolationLevel::Serializable);
    assert!(t1.get("kv", &x).unwrap().is_some());

    // T3 reads y, then T1 overwrites it: T3 --rw--> T1 (T1's in-edge, on
    // shard B only).
    let mut t3 = c.begin(IsolationLevel::Serializable);
    assert!(t3.get("kv", &y).unwrap().is_some());
    t1.update("kv", &y, row![y[0].clone(), 1]).unwrap();

    // T2 overwrites x and commits (single-shard, shard A): T1 --rw--> T2
    // with T2 committed before T1 prepares, which is exactly the §3.3.1
    // condition for the pivot being genuinely dangerous.
    let mut t2 = c.begin(IsolationLevel::Serializable);
    t2.update("kv", &x, row![x[0].clone(), 2]).unwrap();
    t2.commit().unwrap();

    let err = t1.commit().unwrap_err();
    assert!(matches!(
        err,
        Error::SerializationFailure {
            kind: SerializationKind::PivotAbort,
            ..
        }
    ));
    let stats = c.cluster_stats();
    assert_eq!(stats.cross_shard_aborts.get(), 1);
    assert_eq!(
        stats.spared_by_fact_exchange.get(),
        0,
        "a genuinely dangerous pivot must not count as a fact-exchange save"
    );
    t3.rollback();
}

/// Per-shard durability composes with cross-shard 2PC for free: every shard
/// logs its own branch, and reopening the same directories recovers the
/// full partitioned state.
#[test]
fn durable_cluster_survives_reopen() {
    let tmp = TempDir::new("reopen");
    let config = EngineConfig {
        wal: WalConfig::file(tmp.path()),
        ..EngineConfig::default()
    };
    {
        let c = ShardedDatabase::open_durable(3, config.clone()).unwrap();
        c.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let mut t = c.begin(IsolationLevel::Serializable);
        for i in 0..24i64 {
            t.insert("kv", row![i, i * 7]).unwrap();
        }
        assert!(t.is_cross_shard());
        t.commit().unwrap();
        // Each shard got its own WAL directory.
        for s in 0..3 {
            assert!(tmp.path().join(format!("shard-{s}")).is_dir());
        }
    }
    let c = ShardedDatabase::open_durable(3, config).unwrap();
    let mut t = c.begin(IsolationLevel::ReadCommitted);
    for i in 0..24i64 {
        assert_eq!(
            t.get("kv", &row![i]).unwrap(),
            Some(row![i, i * 7]),
            "row {i} lost across reopen"
        );
    }
    let rows = t.scan("kv").unwrap();
    t.commit().unwrap();
    assert_eq!(rows.len(), 24);
    assert!(c.prepared_gids().is_empty());
}

/// Per-shard replication composes too: one replica per shard, each deriving
/// its own safe snapshots; the union of the replicas' partitions is the
/// cluster's committed state.
#[test]
fn replication_composes_per_shard() {
    let c = kv_cluster(2);
    let replicas: Vec<Replica> = (0..c.shards())
        .map(|s| Replica::connect(c.shard(s)))
        .collect();

    let mut t = c.begin(IsolationLevel::Serializable);
    for i in 0..16i64 {
        t.insert("kv", row![i, i]).unwrap();
    }
    t.commit().unwrap();

    let mut total = 0;
    for r in &replicas {
        r.catch_up();
        let mut q = r
            .begin_safe_query()
            .expect("quiesced master: snapshot is safe");
        total += q.scan("kv").unwrap().len();
        q.commit().unwrap();
    }
    assert_eq!(total, 16, "replica partitions must union to the full table");
}
