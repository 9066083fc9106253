//! Criterion micro-benchmarks of pgssi's hot paths: SIREAD lock operations,
//! MVCC visibility, B+-tree operations, snapshot acquisition, and end-to-end
//! point reads/writes at each isolation level.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pgssi_bench::harness::Mode;
use pgssi_common::{row, LockTarget, RelId, SsiConfig, TupleId};
use pgssi_engine::{Database, TableDef};
use pgssi_index::BTreeIndex;
use pgssi_lockmgr::siread::SireadLockManager;

fn bench_siread(c: &mut Criterion) {
    let mut g = c.benchmark_group("siread");
    g.bench_function("acquire_100_tuples_release", |b| {
        let mgr = SireadLockManager::new(SsiConfig::default());
        let mut owner = 1u64;
        b.iter(|| {
            mgr.register_owner(owner);
            for s in 0..100u16 {
                mgr.acquire(owner, LockTarget::Tuple(RelId(1), 0, s));
            }
            mgr.release_owner(owner);
            owner += 1;
        });
    });
    g.bench_function("conflict_check_10_holders", |b| {
        let mgr = SireadLockManager::new(SsiConfig::default());
        for o in 1..=10u64 {
            mgr.register_owner(o);
            mgr.acquire(o, LockTarget::Tuple(RelId(1), 0, 5));
        }
        let chain = LockTarget::Tuple(RelId(1), 0, 5).check_chain();
        b.iter(|| std::hint::black_box(mgr.conflicting_holders(&chain, 99)));
    });
    g.bench_function("conflict_check_miss", |b| {
        let mgr = SireadLockManager::new(SsiConfig::default());
        mgr.register_owner(1);
        mgr.acquire(1, LockTarget::Tuple(RelId(1), 0, 5));
        let chain = LockTarget::Tuple(RelId(1), 7, 9).check_chain();
        b.iter(|| std::hint::black_box(mgr.conflicting_holders(&chain, 99)));
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_1k", |b| {
        b.iter_batched(
            || BTreeIndex::new(RelId(1)),
            |idx| {
                for i in 0..1000i64 {
                    idx.insert(row![(i * 37) % 1000], TupleId::new(0, (i % 64) as u16));
                }
                idx
            },
            BatchSize::SmallInput,
        );
    });
    let idx = BTreeIndex::new(RelId(1));
    for i in 0..10_000i64 {
        idx.insert(row![i], TupleId::new((i / 64) as u32, (i % 64) as u16));
    }
    g.bench_function("point_search_10k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            std::hint::black_box(idx.search(&row![k]))
        });
    });
    g.bench_function("range_100_of_10k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 9_800;
            std::hint::black_box(idx.range(
                std::ops::Bound::Included(row![k]),
                std::ops::Bound::Excluded(row![k + 100]),
            ))
        });
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.measurement_time(Duration::from_secs(3));
    for mode in [Mode::Si, Mode::Ssi, Mode::S2pl] {
        let db = Database::new(mode.config());
        db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        for i in 0..1000i64 {
            t.insert("kv", row![i, i]).unwrap();
        }
        t.commit().unwrap();

        g.bench_with_input(
            BenchmarkId::new("point_get_txn", mode.label()),
            &db,
            |b, db| {
                let mut k = 0i64;
                b.iter(|| {
                    k = (k + 7919) % 1000;
                    let mut txn = db.begin(mode.isolation());
                    let r = txn.get("kv", &row![k]).unwrap();
                    txn.commit().unwrap();
                    std::hint::black_box(r)
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("update_txn", mode.label()),
            &db,
            |b, db| {
                let mut k = 0i64;
                b.iter(|| {
                    k = (k + 7919) % 1000;
                    let mut txn = db.begin(mode.isolation());
                    txn.update("kv", &row![k], row![k, k + 1]).unwrap();
                    txn.commit().unwrap();
                });
            },
        );
    }
    g.finish();
}

/// The heap paths behind SIBENCH: a page-at-a-time sequential scan of a
/// table in its steady state (every row rewritten a few times, then
/// vacuumed), and the update + prune cycle that keeps it there by re-using
/// the slots vacuum frees.
fn bench_heap(c: &mut Criterion) {
    use pgssi_engine::IsolationLevel::{ReadCommitted, RepeatableRead};
    let aged = || {
        let db = Database::open();
        db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let mut t = db.begin(ReadCommitted);
        for i in 0..1000i64 {
            t.insert("kv", row![i, 0]).unwrap();
        }
        t.commit().unwrap();
        for round in 1..=4i64 {
            for i in 0..1000i64 {
                let k = (i * 7919) % 1000;
                let mut t = db.begin(ReadCommitted);
                t.update("kv", &row![k], row![k, round]).unwrap();
                t.commit().unwrap();
            }
        }
        db.vacuum();
        db
    };
    let mut g = c.benchmark_group("heap");
    g.bench_function("seq_scan_1k_aged", |b| {
        let db = aged();
        b.iter(|| {
            let mut txn = db.begin(RepeatableRead);
            let rows = txn.scan("kv").unwrap();
            txn.commit().unwrap();
            assert_eq!(rows.len(), 1000);
            std::hint::black_box(rows)
        });
    });
    g.bench_function("update_prune_cycle", |b| {
        let db = aged();
        let mut round = 4i64;
        b.iter(|| {
            round += 1;
            for i in 0..1000i64 {
                let mut t = db.begin(ReadCommitted);
                t.update("kv", &row![i], row![i, round]).unwrap();
                t.commit().unwrap();
            }
            std::hint::black_box(db.vacuum())
        });
    });
    g.finish();
}

fn bench_ssi_cycle_detection(c: &mut Criterion) {
    // Full write-skew round: two transactions, four reads, two writes, one
    // doomed — the end-to-end cost of SSI catching Figure 1.
    c.bench_function("ssi/write_skew_detect_abort", |b| {
        let db = Database::open();
        db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        t.insert("kv", row![0, 0]).unwrap();
        t.insert("kv", row![1, 0]).unwrap();
        t.commit().unwrap();
        b.iter(|| {
            let mut t1 = db.begin(pgssi_engine::IsolationLevel::Serializable);
            let mut t2 = db.begin(pgssi_engine::IsolationLevel::Serializable);
            let _ = t1.get("kv", &row![0]).unwrap();
            let _ = t1.get("kv", &row![1]).unwrap();
            let _ = t2.get("kv", &row![0]).unwrap();
            let _ = t2.get("kv", &row![1]).unwrap();
            t1.update("kv", &row![0], row![0, 1]).unwrap();
            t2.update("kv", &row![1], row![1, 1]).unwrap();
            let r1 = t1.commit();
            let r2 = t2.commit();
            std::hint::black_box((r1.is_ok(), r2.is_ok()))
        });
    });
}

/// The conflict-free SERIALIZABLE transaction, begin → reads → commit
/// through `Database`: the path on which a transaction should touch only
/// its own SSI state (its record, its SIREAD owner record, the filter word,
/// the commit-order mutex twice).
fn bench_ssi_txn(c: &mut Criterion) {
    use pgssi_engine::IsolationLevel::{ReadCommitted, Serializable};
    let mut g = c.benchmark_group("ssi_txn");
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let mut t = db.begin(ReadCommitted);
    for i in 0..1000i64 {
        t.insert("kv", row![i, i]).unwrap();
    }
    t.commit().unwrap();
    g.bench_function("conflict_free_ro_8_reads", |b| {
        let mut k = 0i64;
        b.iter(|| {
            let mut txn = db.begin(Serializable);
            for _ in 0..8 {
                k = (k + 7919) % 1000;
                std::hint::black_box(txn.get("kv", &row![k]).unwrap());
            }
            txn.commit().unwrap();
        });
    });
    g.bench_function("conflict_free_rmw", |b| {
        let (mut k, mut n) = (0i64, 0u32);
        b.iter(|| {
            k = (k + 7919) % 1000;
            let mut txn = db.begin(Serializable);
            let v = txn.get("kv", &row![k]).unwrap().unwrap()[1]
                .as_int()
                .unwrap();
            txn.update("kv", &row![k], row![k, v + 1]).unwrap();
            txn.commit().unwrap();
            // Keep the heap the size of its live data (vacuum is explicit).
            n += 1;
            if n.is_multiple_of(4096) {
                db.vacuum();
            }
        });
    });
    g.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    targets = bench_siread, bench_btree, bench_engine, bench_heap, bench_ssi_cycle_detection,
        bench_ssi_txn
}
criterion_main!(micro);
