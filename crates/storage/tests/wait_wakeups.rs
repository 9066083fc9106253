//! Liveness of the gated finish notify (`TxnManager::notify_finished`).
//!
//! A finish only touches the condvar when the waits map — the waiter
//! registry — is non-empty, which is the one place a row-lock waiter could be
//! stranded. Two orders are pinned:
//!
//! 1. **waiter first**: every waiter has registered its edge and is about to
//!    park (the wait observer, which runs under the waits mutex just before
//!    the first sleep, says so) when the holder finishes — the finish must
//!    see the registry non-empty and wake all of them;
//! 2. **racing**: waiters and the finishing holder are released by one
//!    barrier, so some waiters register before the finish's registry check,
//!    some after it (those must see the holder gone on their own re-check).
//!
//! Mutation check: with the `notify_all` in `notify_finished` deleted, every
//! waiter of order 1 sleeps to its timeout and the `expect` on its result
//! fails (both tests time out; verified when the gate was introduced). A
//! passing run never waits: every `wait_for` returns as soon as its holder
//! finishes.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pgssi_common::TxnId;
use pgssi_storage::TxnManager;

/// Far longer than any finish takes; reached only by a lost wake-up.
const TIMEOUT: Duration = Duration::from_secs(3);

/// The four ways a holder can finish; all go through the gated notify.
fn finish(tm: &TxnManager, x: TxnId, how: usize) {
    match how % 4 {
        0 => {
            tm.commit(&[x]);
        }
        1 => {
            tm.commit_readonly(&[x]);
        }
        2 => tm.abort(&[x]),
        _ => tm.abort_readonly(&[x]),
    }
}

#[test]
fn parked_waiters_are_woken_by_every_kind_of_finish() {
    const WAITERS: usize = 4;
    let tm = Arc::new(TxnManager::new());
    let (parking_tx, parking_rx) = mpsc::channel::<TxnId>();
    let parking_tx = std::sync::Mutex::new(parking_tx);
    tm.set_wait_observer(Arc::new(move |waiter, _holder| {
        // Under the waits mutex, edge registered, next step is the sleep.
        parking_tx.lock().unwrap().send(waiter).unwrap();
    }));
    for round in 0..40 {
        let holder = tm.begin();
        let waiters: Vec<TxnId> = (0..WAITERS).map(|_| tm.begin()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = waiters
                .iter()
                .map(|&w| {
                    let tm = &tm;
                    s.spawn(move || {
                        let t0 = Instant::now();
                        let r = tm.wait_for(w, holder, TIMEOUT);
                        (r, t0.elapsed())
                    })
                })
                .collect();
            for _ in 0..WAITERS {
                parking_rx.recv().unwrap();
            }
            // Every waiter holds (or has just released, by sleeping) the
            // waits mutex with its edge in the map: the finish below cannot
            // pass its registry check before all of them are asleep.
            finish(&tm, holder, round);
            for h in handles {
                let (r, waited) = h.join().unwrap();
                r.expect("a registered waiter was not woken by the finish");
                assert!(waited < TIMEOUT, "waiter woke only at its deadline");
            }
        });
        for (i, w) in waiters.into_iter().enumerate() {
            finish(&tm, w, i);
        }
    }
}

#[test]
fn finish_racing_registration_never_strands_a_waiter() {
    const WAITERS: usize = 3;
    let tm = Arc::new(TxnManager::new());
    for round in 0..300 {
        let holder = tm.begin();
        let waiters: Vec<TxnId> = (0..WAITERS).map(|_| tm.begin()).collect();
        let start = Barrier::new(WAITERS + 1);
        std::thread::scope(|s| {
            let handles: Vec<_> = waiters
                .iter()
                .map(|&w| {
                    let (tm, start) = (&tm, &start);
                    s.spawn(move || {
                        start.wait();
                        tm.wait_for(w, holder, TIMEOUT)
                    })
                })
                .collect();
            start.wait();
            finish(&tm, holder, round);
            for h in handles {
                h.join()
                    .unwrap()
                    .expect("waiter stranded by a finish that raced its registration");
            }
        });
        for (i, w) in waiters.into_iter().enumerate() {
            finish(&tm, w, i);
        }
    }
}
