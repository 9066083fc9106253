//! Cross-crate invariant tests under real concurrency: application-level
//! invariants that only hold if isolation, vacuum, and memory bounding all
//! cooperate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pgssi::{
    row, BeginOptions, Database, EngineConfig, IsolationLevel, SsiConfig, TableDef, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ACCOUNTS: i64 = 24;
const PER_ACCOUNT: i64 = 100;

fn bank(config: EngineConfig) -> Database {
    let db = Database::new(config);
    db.create_table(TableDef::new("acct", &["id", "bal"], vec![0]))
        .unwrap();
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..ACCOUNTS {
        t.insert("acct", row![i, PER_ACCOUNT]).unwrap();
    }
    t.commit().unwrap();
    db
}

fn total(db: &Database) -> i64 {
    let mut t = db.begin(IsolationLevel::RepeatableRead);
    let s = t
        .scan("acct")
        .unwrap()
        .iter()
        .map(|r| r[1].as_int().unwrap())
        .sum();
    t.commit().unwrap();
    s
}

/// Transfers conserve money under every isolation level. The transfers use
/// `update_with` (delta semantics, like `UPDATE … SET bal = bal - x`): under
/// READ COMMITTED the delta is re-applied to the latest version on conflict
/// (EvalPlanQual), and under the snapshot levels first-updater-wins forbids
/// lost updates outright.
fn run_transfers(db: &Database, isolation: IsolationLevel, threads: usize, per_thread: usize) {
    std::thread::scope(|scope| {
        for th in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xB0B + th as u64);
                for _ in 0..per_thread {
                    let a = rng.gen_range(0..ACCOUNTS);
                    let b = rng.gen_range(0..ACCOUNTS);
                    if a == b {
                        continue;
                    }
                    let mut txn = db.begin(isolation);
                    let amt = rng.gen_range(1..20);
                    let result = (|| -> pgssi::Result<()> {
                        txn.update_with("acct", &row![a], |r| {
                            row![a, r[1].as_int().unwrap() - amt]
                        })?;
                        txn.update_with("acct", &row![b], |r| {
                            row![b, r[1].as_int().unwrap() + amt]
                        })?;
                        Ok(())
                    })();
                    let _ = result.and_then(|()| txn.commit());
                }
            });
        }
    });
}

#[test]
fn money_conserved_under_all_isolation_levels() {
    for isolation in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
        IsolationLevel::Serializable2pl,
    ] {
        let db = bank(EngineConfig::default());
        run_transfers(&db, isolation, 4, 60);
        assert_eq!(
            total(&db),
            ACCOUNTS * PER_ACCOUNT,
            "money leaked under {isolation:?}"
        );
    }
}

/// Vacuum running concurrently with transfers must not break reads, lose
/// versions a live snapshot needs, or corrupt totals.
#[test]
fn vacuum_under_load_preserves_consistency() {
    let db = bank(EngineConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = db.clone();
    let stop2 = Arc::clone(&stop);
    let vac = std::thread::spawn(move || {
        let mut pruned = 0;
        while !stop2.load(Ordering::Relaxed) {
            pruned += db2.vacuum().0;
            std::thread::yield_now();
        }
        pruned
    });
    run_transfers(&db, IsolationLevel::Serializable, 4, 80);
    stop.store(true, Ordering::Relaxed);
    let pruned = vac.join().unwrap();
    assert!(pruned > 0, "vacuum should reclaim superseded versions");
    assert_eq!(total(&db), ACCOUNTS * PER_ACCOUNT);
}

/// A deliberately tiny SSI configuration (aggressive promotion, 4 retained
/// committed transactions) must stay sound AND bounded while a long-running
/// transaction pins the cleanup horizon: the serial table holds at most one
/// entry per summarized transaction.
#[test]
fn tiny_memory_config_stays_sound_and_bounded() {
    let config = EngineConfig {
        ssi: SsiConfig::tiny(),
        ..EngineConfig::default()
    };
    let db = bank(config);

    // Pin the horizon with a long-running serializable reader.
    let mut pin = db.begin(IsolationLevel::Serializable);
    let _ = pin.get("acct", &row![0]).unwrap();

    run_transfers(&db, IsolationLevel::Serializable, 3, 50);

    let ssi = db.ssi();
    assert!(
        ssi.committed_retained() <= 4,
        "summarization must cap retained records (got {})",
        ssi.committed_retained()
    );
    assert!(
        ssi.stats.summarized.get() > 0,
        "summarization must have fired"
    );
    assert!(
        ssi.serial().len() as u64 <= ssi.stats.summarized.get(),
        "serial table must stay bounded"
    );
    assert_eq!(
        total(&db),
        ACCOUNTS * PER_ACCOUNT,
        "soundness under pressure"
    );
    pin.commit().unwrap();
}

/// Read-only reporting transactions running alongside transfers must always
/// see a conserved total (snapshot consistency) — and under SERIALIZABLE the
/// report's result is also immune to later rewrites of history.
#[test]
fn concurrent_reports_always_see_conserved_totals() {
    let db = bank(EngineConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = db.clone();
    let stop2 = Arc::clone(&stop);
    let reporter = std::thread::spawn(move || {
        let mut reports = 0;
        while !stop2.load(Ordering::Relaxed) {
            let mut txn = db2
                .begin_with(BeginOptions::new(IsolationLevel::Serializable).read_only())
                .unwrap();
            let sum: i64 = txn
                .scan("acct")
                .unwrap()
                .iter()
                .map(|r| r[1].as_int().unwrap())
                .sum();
            txn.commit().unwrap();
            assert_eq!(sum, ACCOUNTS * PER_ACCOUNT, "torn read in report");
            reports += 1;
        }
        reports
    });
    run_transfers(&db, IsolationLevel::Serializable, 3, 60);
    stop.store(true, Ordering::Relaxed);
    let reports = reporter.join().unwrap();
    assert!(reports > 0);
    // Many of those reports should have become safe snapshots or started on
    // one (read-only optimization active under load).
    let ssi = db.ssi();
    assert!(
        ssi.stats.safe_immediate.get() + ssi.stats.safe_established.get() > 0,
        "read-only optimization never engaged"
    );
}

/// Mixed isolation levels coexist: snapshot transactions, serializable
/// transactions, and 2PL transactions all running at once still conserve
/// money and make progress.
#[test]
fn mixed_isolation_levels_coexist() {
    let db = bank(EngineConfig::default());
    std::thread::scope(|scope| {
        for (th, isolation) in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::RepeatableRead,
            IsolationLevel::Serializable,
        ]
        .into_iter()
        .enumerate()
        {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(th as u64);
                for _ in 0..50 {
                    let a = rng.gen_range(0..ACCOUNTS);
                    let b = (a + 1 + rng.gen_range(0..ACCOUNTS - 1)) % ACCOUNTS;
                    let mut txn = db.begin(isolation);
                    let r = (|| -> pgssi::Result<()> {
                        txn.update_with("acct", &row![a], |r| row![a, r[1].as_int().unwrap() - 1])?;
                        txn.update_with("acct", &row![b], |r| row![b, r[1].as_int().unwrap() + 1])?;
                        Ok(())
                    })();
                    let _ = r.and_then(|()| txn.commit());
                }
            });
        }
    });
    assert_eq!(total(&db), ACCOUNTS * PER_ACCOUNT);
    let _ = Value::Null;
}
