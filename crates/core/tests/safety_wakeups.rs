//! Liveness of the gated safety notify (`SsiManager::wake_safety_waiters`).
//!
//! Commits and aborts touch the safety condvar only when a DEFERRABLE
//! transaction has counted itself into `safety_waiters` — the one place a
//! `wait_for_safety` sleeper could be stranded. The last concurrent
//! read/write transaction's finish is what flips the reader's snapshot to
//! safe, so that finish racing the reader's wait is the case to pin, in both
//! orders:
//!
//! 1. **waiter first**: the reader is asleep (`safety_waiters() == 1`, read
//!    under the commit-order mutex the sleep released) when the writer
//!    finishes — the finish must see the count and notify;
//! 2. **racing**: reader and finisher leave one barrier together, so the
//!    finish lands before the reader's check (it must see the flag and not
//!    sleep), after its sleep (notify), or in between.
//!
//! Mutation check: with the `notify_all` in `wake_safety_waiters` deleted, a
//! reader that slept before the finish wakes only at its deadline (it then
//! reads the flipped flag, so the verdict alone would not show the loss) and
//! both tests fail their `waited < TIMEOUT` assertion (verified when the gate
//! was introduced). A passing run never waits for a deadline.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pgssi_common::{SsiConfig, TxnId};
use pgssi_core::{SafetyState, SsiManager, SxactHandle};
use pgssi_storage::TxnManager;

/// Far longer than any finish takes; reached only by a lost wake-up.
const TIMEOUT: Duration = Duration::from_secs(3);

struct World {
    tm: TxnManager,
    ssi: SsiManager,
}

impl World {
    fn new() -> World {
        World {
            tm: TxnManager::new(),
            ssi: SsiManager::new(SsiConfig::default()),
        }
    }

    fn begin(&self, read_only: bool) -> (TxnId, SxactHandle) {
        let txid = self.tm.begin();
        let snap = self.tm.snapshot();
        let sx = self.ssi.begin(txid, || snap.csn, read_only, read_only);
        (txid, sx)
    }

    /// Finish the writer: a clean commit or an abort, both of which resolve
    /// the reader's tracking to "safe".
    fn finish_writer(&self, txid: TxnId, sx: &SxactHandle, commit: bool) {
        if commit {
            self.ssi.precommit(sx, self.tm.frontier()).unwrap();
            self.ssi
                .commit(sx, || self.tm.commit(&[txid]), |_| {})
                .unwrap();
        } else {
            self.tm.abort(&[txid]);
            self.ssi.abort(sx, |_| {});
        }
    }

    fn finish_reader(&self, txid: TxnId, sx: &SxactHandle) {
        self.ssi.precommit(sx, self.tm.frontier()).unwrap();
        self.ssi
            .commit(sx, || self.tm.commit_readonly(&[txid]), |_| {})
            .unwrap();
    }
}

#[test]
fn sleeping_deferrable_reader_is_woken_by_the_last_writer_finish() {
    let w = World::new();
    for round in 0..40 {
        let (wt, wsx) = w.begin(false);
        let (rt, rsx) = w.begin(true);
        assert_eq!(w.ssi.snapshot_safety(&rsx), SafetyState::Pending);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let t0 = Instant::now();
                (w.ssi.wait_for_safety(&rsx, TIMEOUT), t0.elapsed())
            });
            // Counted in under the order mutex ⇒ already asleep.
            while w.ssi.safety_waiters() == 0 {
                std::thread::yield_now();
            }
            w.finish_writer(wt, &wsx, round % 2 == 0);
            let (state, waited) = reader.join().unwrap();
            assert_eq!(state, SafetyState::Safe, "sleeper missed its wake-up");
            assert!(waited < TIMEOUT, "reader woke only at its deadline");
        });
        assert_eq!(w.ssi.safety_waiters(), 0);
        w.finish_reader(rt, &rsx);
    }
}

#[test]
fn writer_finish_racing_the_wait_never_strands_the_reader() {
    let w = World::new();
    for round in 0..300 {
        let (wt, wsx) = w.begin(false);
        let (rt, rsx) = w.begin(true);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let t0 = Instant::now();
                (w.ssi.wait_for_safety(&rsx, TIMEOUT), t0.elapsed())
            });
            start.wait();
            w.finish_writer(wt, &wsx, round % 2 == 0);
            let (state, waited) = reader.join().unwrap();
            assert_eq!(state, SafetyState::Safe);
            // A stranded reader still reports Safe — at its deadline.
            assert!(
                waited < TIMEOUT,
                "reader stranded by a finish that raced its registration"
            );
        });
        w.finish_reader(rt, &rsx);
    }
}
