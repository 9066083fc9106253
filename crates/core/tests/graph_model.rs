//! Model test for the conflict graph's determinism: randomized
//! begin/read/write/commit/abort sequences are driven against two
//! [`SsiManager`]s built from the same `SsiConfig::tiny()`, whose
//! `RandomState` maps draw different hash seeds. Every operation must produce
//! the **identical verdict** (commit vs. the same serialization-failure
//! kind), every record the same doomed flag, and the run the same
//! conflict/dangerous-structure/abort/summarization counts.
//!
//! The per-sxact edge sets are `BTreeSet`s precisely so victim selection is
//! deterministic: if hash iteration order ever leaked into candidate order,
//! these sequences — which exercise write skew, pivots, read-only tracking,
//! §6.1 cleanup, and §6.2 summarization — would diverge.

use std::collections::HashMap;

use pgssi_common::{Error, LockTarget, RelId, Result, SsiConfig, TxnId};
use pgssi_core::{SsiManager, SxactHandle};
use pgssi_storage::visibility::VisEvent;
use pgssi_storage::TxnManager;
use proptest::prelude::*;

const REL: RelId = RelId(1);
const SLOTS: usize = 5;
const OBJS: u16 = 6;

fn tuple(n: u16) -> LockTarget {
    LockTarget::Tuple(REL, 0, n)
}

/// One randomized step. Slot/object indices are taken modulo the live state,
/// so every generated sequence is executable.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Begin in `slot` (no-op if occupied); `ro` declares READ ONLY.
    Begin { slot: usize, ro: bool },
    /// SIREAD-lock `obj` for `slot`.
    Read { slot: usize, obj: u16 },
    /// Read `obj` and (if some other transaction wrote it) report the MVCC
    /// conflict-out event the storage layer would have produced.
    ReadSeeingWriter { slot: usize, obj: u16 },
    /// Write `obj` from `slot` (SIREAD-holder checks).
    Write { slot: usize, obj: u16 },
    /// precommit + commit `slot`.
    Commit { slot: usize },
    /// Roll back `slot`.
    Abort { slot: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..SLOTS, any::<bool>()).prop_map(|(slot, ro)| Op::Begin { slot, ro }),
        3 => (0..SLOTS, 0..OBJS).prop_map(|(slot, obj)| Op::Read { slot, obj }),
        2 => (0..SLOTS, 0..OBJS).prop_map(|(slot, obj)| Op::ReadSeeingWriter { slot, obj }),
        3 => (0..SLOTS, 0..OBJS).prop_map(|(slot, obj)| Op::Write { slot, obj }),
        2 => (0..SLOTS).prop_map(|slot| Op::Commit { slot }),
        1 => (0..SLOTS).prop_map(|slot| Op::Abort { slot }),
    ]
}

/// Compact verdict for comparison across the two managers.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Verdict {
    Skip,
    Ok,
    /// Serialization failure, by kind (the message may differ).
    Fail(pgssi_common::SerializationKind),
    Other(String),
}

fn verdict(r: Result<()>) -> Verdict {
    match r {
        Ok(()) => Verdict::Ok,
        Err(Error::SerializationFailure { kind, .. }) => Verdict::Fail(kind),
        Err(e) => Verdict::Other(format!("{e:?}")),
    }
}

/// One SSI world: a manager plus the engine-shaped driving state.
struct World {
    tm: TxnManager,
    ssi: SsiManager,
    /// Open transaction per slot.
    live: [Option<(TxnId, SxactHandle)>; SLOTS],
    /// Last transaction to write each object (live or finished) — the writer
    /// a later reader's MVCC visibility event would name.
    writers: HashMap<u16, TxnId>,
}

impl World {
    fn new() -> World {
        World {
            tm: TxnManager::new(),
            // tiny(): forces §6.1 cleanup and §6.2 summarization on these
            // short sequences, so the removal protocol is exercised too.
            ssi: SsiManager::new(SsiConfig::tiny()),
            live: std::array::from_fn(|_| None),
            writers: HashMap::new(),
        }
    }

    /// Engine behavior: a serialization failure rolls the transaction back.
    fn auto_abort(&mut self, slot: usize) {
        if let Some((txid, sx)) = self.live[slot].take() {
            self.tm.abort(&[txid]);
            self.ssi.abort(&sx, |_| {});
        }
    }

    fn apply(&mut self, op: Op) -> Verdict {
        match op {
            Op::Begin { slot, ro } => {
                if self.live[slot].is_some() {
                    return Verdict::Skip;
                }
                let txid = self.tm.begin();
                let snap = self.tm.snapshot();
                let sx = self.ssi.begin(txid, || snap.csn, ro, false);
                self.live[slot] = Some((txid, sx));
                Verdict::Ok
            }
            Op::Read { slot, obj } => {
                let Some((_, sx)) = self.live[slot].clone() else {
                    return Verdict::Skip;
                };
                let r = self.ssi.check_doomed(&sx).map(|()| {
                    self.ssi.on_read(&sx, &[tuple(obj)]);
                });
                let v = verdict(r);
                if v != Verdict::Ok {
                    self.auto_abort(slot);
                }
                v
            }
            Op::ReadSeeingWriter { slot, obj } => {
                let Some((txid, sx)) = self.live[slot].clone() else {
                    return Verdict::Skip;
                };
                let r = self.ssi.check_doomed(&sx).and_then(|()| {
                    self.ssi.on_read(&sx, &[tuple(obj)]);
                    match self.writers.get(&obj) {
                        Some(&w) if w != txid => self.ssi.on_mvcc_events(
                            &sx,
                            &[VisEvent::ConflictOutDeleter(w)],
                            self.tm.clog(),
                        ),
                        _ => Ok(()),
                    }
                });
                let v = verdict(r);
                if v != Verdict::Ok {
                    self.auto_abort(slot);
                }
                v
            }
            Op::Write { slot, obj } => {
                let Some((txid, sx)) = self.live[slot].clone() else {
                    return Verdict::Skip;
                };
                let r = self.ssi.check_doomed(&sx).and_then(|()| {
                    self.ssi
                        .on_write(&sx, &tuple(obj).check_chain(), Some(tuple(obj)), false)
                });
                let v = verdict(r);
                if v == Verdict::Ok {
                    self.writers.insert(obj, txid);
                } else {
                    self.auto_abort(slot);
                }
                v
            }
            Op::Commit { slot } => {
                let Some((txid, sx)) = self.live[slot].clone() else {
                    return Verdict::Skip;
                };
                let r = self
                    .ssi
                    .precommit(&sx, self.tm.frontier())
                    .and_then(|()| self.ssi.commit(&sx, || self.tm.commit(&[txid]), |_| {}));
                match r {
                    Ok(_) => {
                        self.live[slot] = None;
                        Verdict::Ok
                    }
                    Err(e) => {
                        let v = verdict(Err(e));
                        self.auto_abort(slot);
                        v
                    }
                }
            }
            Op::Abort { slot } => {
                if self.live[slot].is_none() {
                    return Verdict::Skip;
                }
                self.auto_abort(slot);
                Verdict::Ok
            }
        }
    }
}

fn run_and_compare(ops: &[Op]) {
    let mut sharded = World::new();
    let mut reference = World::new();
    for (i, &op) in ops.iter().enumerate() {
        let vs = sharded.apply(op);
        let vr = reference.apply(op);
        assert_eq!(vs, vr, "step {i} {op:?} diverged");
        // Doom decisions must match record-for-record, not just for the
        // acting transaction.
        for slot in 0..SLOTS {
            match (&sharded.live[slot], &reference.live[slot]) {
                (Some((_, a)), Some((_, b))) => {
                    assert_eq!(
                        a.is_doomed(),
                        b.is_doomed(),
                        "step {i} {op:?}: slot {slot} doom state diverged"
                    );
                }
                (None, None) => {}
                other => panic!("step {i} {op:?}: live sets diverged: {other:?}"),
            }
        }
    }
    // Same sequence, same verdicts ⇒ the counters must agree exactly.
    for (name, a, b) in [
        (
            "conflicts_flagged",
            sharded.ssi.stats.conflicts_flagged.get(),
            reference.ssi.stats.conflicts_flagged.get(),
        ),
        (
            "dangerous_structures",
            sharded.ssi.stats.dangerous_structures.get(),
            reference.ssi.stats.dangerous_structures.get(),
        ),
        (
            "aborts_self",
            sharded.ssi.stats.aborts_self.get(),
            reference.ssi.stats.aborts_self.get(),
        ),
        (
            "doomed_set",
            sharded.ssi.stats.doomed_set.get(),
            reference.ssi.stats.doomed_set.get(),
        ),
        (
            "summarized",
            sharded.ssi.stats.summarized.get(),
            reference.ssi.stats.summarized.get(),
        ),
        (
            "cleaned",
            sharded.ssi.stats.cleaned.get(),
            reference.ssi.stats.cleaned.get(),
        ),
    ] {
        assert_eq!(a, b, "stat {name} diverged");
    }
    assert_eq!(
        sharded.ssi.record_count(),
        reference.ssi.record_count(),
        "retained record counts diverged"
    );
    assert_eq!(sharded.ssi.active_count(), reference.ssi.active_count());
    assert_eq!(
        sharded.ssi.committed_retained(),
        reference.ssi.committed_retained()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verdicts_do_not_depend_on_hash_order(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        run_and_compare(&ops);
    }
}

/// The classic write-skew sequence must behave identically in both managers
/// — pinned (non-random) regression alongside the property.
#[test]
fn write_skew_verdicts_identical_across_managers() {
    let ops = [
        Op::Begin { slot: 0, ro: false },
        Op::Begin { slot: 1, ro: false },
        Op::Read { slot: 0, obj: 0 },
        Op::Read { slot: 0, obj: 1 },
        Op::Read { slot: 1, obj: 0 },
        Op::Read { slot: 1, obj: 1 },
        Op::Write { slot: 0, obj: 0 },
        Op::Write { slot: 1, obj: 1 },
        Op::Commit { slot: 0 },
        Op::Commit { slot: 1 },
    ];
    run_and_compare(&ops);
}

/// Heavy churn through one hot object: exercises cleanup and summarization
/// (tiny config) in both managers.
#[test]
fn hot_object_churn_verdicts_identical() {
    let mut ops = Vec::new();
    for round in 0..12 {
        let s = round % SLOTS;
        ops.push(Op::Begin {
            slot: s,
            ro: round % 4 == 3,
        });
        ops.push(Op::ReadSeeingWriter { slot: s, obj: 0 });
        ops.push(Op::Read { slot: s, obj: 1 });
        if round % 4 != 3 {
            ops.push(Op::Write { slot: s, obj: 0 });
        }
        ops.push(Op::Commit { slot: s });
    }
    run_and_compare(&ops);
}
