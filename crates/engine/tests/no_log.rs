//! An in-memory database has no log; a database that was given a log still
//! writes it and replays it.
//!
//! `Database::open()` (the default `WalMode::Memory`) captures no redo ops and
//! appends nothing, through every commit path: plain commits, `PREPARE` /
//! `COMMIT PREPARED`, and commits after `simulate_crash_recovery`. The same
//! workload on `Database::open_with_store(cfg, MemWalStore)` and on
//! `WalConfig::file` logs every commit, and a reopen replays it.

use pgssi_common::{row, EngineConfig, Row, WalConfig};
use pgssi_engine::{Database, IsolationLevel, TableDef};
use pgssi_storage::{MemWalStore, WalStore};

const KEYS: i64 = 64;

/// `commits` writing commits: single-row upserts, one `PREPARE` / `COMMIT
/// PREPARED` pair a third of the way in, one `simulate_crash_recovery` (with
/// a prepared transaction across it) two thirds of the way in.
fn workload(db: &Database, commits: i64) {
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    for i in 0..commits {
        let k = i % KEYS;
        let level = if i % 2 == 0 {
            IsolationLevel::Serializable
        } else {
            IsolationLevel::ReadCommitted
        };
        let mut t = db.begin(level);
        if !t.update("kv", &row![k], row![k, i]).unwrap() {
            t.insert("kv", row![k, i]).unwrap();
        }
        if i == commits / 3 {
            t.prepare("pair").unwrap();
            db.commit_prepared("pair").unwrap();
        } else if i == 2 * commits / 3 {
            t.prepare("across-the-crash").unwrap();
            db.simulate_crash_recovery();
            db.commit_prepared("across-the-crash").unwrap();
        } else {
            t.commit().unwrap();
        }
    }
}

fn rows(db: &Database) -> Vec<Row> {
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    let mut rows = t.scan("kv").unwrap();
    t.commit().unwrap();
    rows.sort();
    rows
}

#[test]
fn an_in_memory_database_writes_no_log() {
    let db = Database::open();
    workload(&db, 10_000);
    let report = db.stats_report();
    assert_eq!(report.commits, 10_000);
    assert_eq!(report.wal_records, 0, "memory mode appended log records");
    assert_eq!(report.wal_bytes, 0, "memory mode grew a log");
    assert!(db.durable_wal().store().is_none());
    assert_eq!(rows(&db).len() as i64, KEYS);
}

#[test]
fn a_database_handed_a_memory_store_still_logs_and_replays() {
    let db =
        Database::open_with_store(EngineConfig::default(), Box::new(MemWalStore::new())).unwrap();
    workload(&db, 10_000);
    let report = db.stats_report();
    // One record per plain commit and per DDL; a 2PC commit is a Prepare
    // record plus a Resolve record.
    assert_eq!(report.wal_records, 10_000 + 1 + 2);
    assert!(report.wal_bytes > 0);

    // "Reopen": a second store holding the same frames.
    let frames = db.durable_wal().store().unwrap().read_all().unwrap();
    let copy = MemWalStore::new();
    for (_, payload) in &frames {
        copy.append(payload).unwrap();
    }
    let reopened = Database::open_with_store(EngineConfig::default(), Box::new(copy)).unwrap();
    // Replay applies the DDL record and every commit (a 2PC commit at its
    // Resolve record).
    assert_eq!(reopened.stats_report().wal_recovered_records, 10_000 + 1);
    assert_eq!(rows(&reopened), rows(&db));
}

#[test]
fn a_file_backed_database_still_logs_and_replays() {
    let dir = std::env::temp_dir().join(format!("pgssi-no-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        wal: WalConfig::file(&dir),
        ..EngineConfig::default()
    };
    // A tenth of the commits above: every one of these pays an fsync.
    const COMMITS: i64 = 1_000;
    let db = Database::open_durable(config.clone()).unwrap();
    workload(&db, COMMITS);
    let report = db.stats_report();
    assert_eq!(report.wal_records, COMMITS as u64 + 1 + 2);
    assert!(report.wal_bytes > 0);
    assert!(report.wal_syncs > 0);
    let before = rows(&db);
    drop(db);

    let reopened = Database::open_durable(config).unwrap();
    assert_eq!(
        reopened.stats_report().wal_recovered_records,
        COMMITS as u64 + 1
    );
    assert_eq!(rows(&reopened), before);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
