//! A DEFERRABLE begin that has to retry (§4.3: its first snapshot was proven
//! unsafe) discards a txid whose snapshot was registered for the vacuum
//! horizon. The registration must go with it: a leaked entry pins
//! `Database::vacuum`'s horizon at that snapshot until the process exits.

use pgssi_common::row;
use pgssi_engine::{BeginOptions, Database, IsolationLevel, TableDef};

#[test]
fn unsafe_deferrable_retry_does_not_pin_the_vacuum_horizon() {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let mut load = db.begin(IsolationLevel::ReadCommitted);
    for k in 1..=3 {
        load.insert("kv", row![k, 0]).unwrap();
    }
    load.commit().unwrap();

    // T2 reads row 1 and stays in flight; T3 overwrites row 1 and commits:
    // T2 –rw→ T3, with T3 committed before the reader's snapshot below.
    let mut t2 = db.begin(IsolationLevel::Serializable);
    t2.get("kv", &row![1]).unwrap();
    let mut t3 = db.begin(IsolationLevel::Serializable);
    t3.update("kv", &row![1], row![1, 1]).unwrap();
    t3.commit().unwrap();

    let reader = std::thread::scope(|s| {
        let begin = s.spawn(|| {
            db.begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
                .unwrap()
        });
        // The reader's first snapshot is concurrent with T2, so it parks.
        while db.ssi().safety_waiters() == 0 {
            std::thread::yield_now();
        }
        // T2 commits a write with its conflict out to T3: that snapshot is
        // unsafe (§4.2), the begin discards its txid and retries — and with
        // nothing left in flight the second snapshot is safe at once.
        t2.update("kv", &row![2], row![2, 1]).unwrap();
        t2.commit().unwrap();
        begin.join().unwrap()
    });
    assert_eq!(
        db.stats().deferrable_retries.get(),
        1,
        "the scenario must force exactly one unsafe retry"
    );
    reader.commit().unwrap();

    // No snapshot is registered any more, so the horizon is the commit
    // frontier: every version these updates supersede is prunable. With the
    // discarded txid's entry leaked, the horizon stays at the unsafe
    // snapshot and none of them is.
    const UPDATES: i64 = 5;
    for v in 1..=UPDATES {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![3], row![3, v]).unwrap();
        w.commit().unwrap();
    }
    let (versions_pruned, _) = db.vacuum();
    assert!(
        versions_pruned >= UPDATES as usize,
        "vacuum pruned {versions_pruned} versions: the horizon did not advance past the \
         discarded DEFERRABLE snapshot"
    );
}
