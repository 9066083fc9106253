//! `rule::dangerous` against a reference written from the paper, over every
//! small history.
//!
//! A history is two or three transactions (three, or two when T1 is T3: a
//! 2-cycle such as write skew), each of which begins and then stays active,
//! prepares or commits, in every interleaving of those events. CSNs come
//! from the events as the engine assigns them: a snapshot and a prepare take
//! the current frontier, a commit takes it and advances it. T1 may be read
//! only; T2 and T3 wrote (they are the targets of rw-antidependencies).
//!
//! The reference (Theorem 1, §3.3.1 and Theorem 3) knows the whole history.
//! A transaction that has not committed commits after every committed one,
//! in any order among the uncommitted ones. The structure is dangerous if
//! T3 is bound to commit (committed or prepared) and some such completion
//! has T3 commit no later than T1 and T2 — and, for a read-only T1 with the
//! optimization on, T3 committed before T1's snapshot.
//!
//! The rule sees each transaction through every view a check site can have
//! of it: its exact facts, and the summarized forms (a reader's lock CSN, a
//! summary flag, a writer's serial-table entry), a folded out-conflict bound
//! and a T3 at its own precommit. It must flag everything the reference
//! flags, and whatever else it flags must carry a deviation arm.

use pgssi_common::CommitSeqNo;
use pgssi_core::rule::{dangerous, makes_unsafe, Facts, Fate, Rule};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    Active,
    Prepared,
    Committed,
}

/// One transaction of a history, with the CSNs its events took.
#[derive(Clone, Copy, Debug)]
struct Txn {
    end: End,
    read_only: bool,
    snapshot: u64,
    /// Prepare or commit CSN (unused while active).
    csn: u64,
}

impl Txn {
    fn fate(&self) -> Fate {
        match self.end {
            End::Active => Fate::Active,
            End::Prepared => Fate::Prepared(CommitSeqNo(self.csn)),
            End::Committed => Fate::Committed(CommitSeqNo(self.csn)),
        }
    }

    fn exact(&self) -> Facts {
        Facts {
            snapshot: CommitSeqNo(self.snapshot),
            fate: self.fate(),
            read_only: self.read_only,
            summarized: false,
        }
    }
}

/// Every interleaving of the transactions' begin and end events, with the
/// CSNs they take.
fn histories(ends: &[End]) -> Vec<Vec<Txn>> {
    fn go(
        ends: &[End],
        step: &mut [u8],
        frontier: u64,
        txns: &mut Vec<Txn>,
        out: &mut Vec<Vec<Txn>>,
    ) {
        let mut done = true;
        for i in 0..ends.len() {
            let last = if ends[i] == End::Active { 1 } else { 2 };
            if step[i] == last {
                continue;
            }
            done = false;
            let saved = txns[i];
            let mut next = frontier;
            if step[i] == 0 {
                txns[i].snapshot = frontier;
            } else {
                txns[i].csn = frontier;
                if ends[i] == End::Committed {
                    next += 1;
                }
            }
            step[i] += 1;
            go(ends, step, next, txns, out);
            step[i] -= 1;
            txns[i] = saved;
        }
        if done {
            out.push(txns.clone());
        }
    }
    let mut txns: Vec<Txn> = ends
        .iter()
        .map(|&end| Txn {
            end,
            read_only: false,
            snapshot: 0,
            csn: 0,
        })
        .collect();
    let mut out = Vec::new();
    go(
        ends,
        &mut vec![0; ends.len()],
        CommitSeqNo::FIRST.0,
        &mut txns,
        &mut out,
    );
    out
}

/// The paper's verdict on `t1 → t2 → t3` (indices into `h`).
fn reference(h: &[Txn], (t1, t2, t3): (usize, usize, usize), read_only_opt: bool) -> bool {
    let c = h[t3];
    if c.end == End::Active {
        return false;
    }
    // Can T3 commit no later than `x` in some completion?
    let first = |x: usize| {
        x == t3
            || match (c.end, h[x].end) {
                (_, End::Active | End::Prepared) => true,
                (End::Committed, End::Committed) => c.csn < h[x].csn,
                _ => false, // a prepared T3 commits after every committed x
            }
    };
    if !first(t1) || !first(t2) {
        return false;
    }
    if read_only_opt && h[t1].read_only {
        // Theorem 3: T3 committed before T1's snapshot. A prepared T3 has
        // not, and commits after every snapshot that exists.
        return c.end == End::Committed && c.csn < h[t1].snapshot;
    }
    true
}

fn t1_views(t: &Txn) -> Vec<Facts> {
    let mut v = vec![t.exact(), Facts::SUMMARY_FLAG];
    if t.end == End::Committed {
        // A summarized reader's lock CSN: its own commit, or a later one
        // (the latest of several summarized holders).
        v.push(Facts::summarized(CommitSeqNo(t.csn)));
        v.push(Facts::summarized(CommitSeqNo(t.csn + 2)));
    }
    v
}

fn t2_views(t: &Txn) -> Vec<Facts> {
    let mut v = vec![t.exact()];
    if t.end == End::Committed {
        v.push(Facts::summarized(CommitSeqNo(t.csn)));
    }
    v
}

fn t3_views(t: &Txn) -> Vec<Facts> {
    let mut v = vec![t.exact()];
    match t.end {
        End::Committed => v.push(Facts::out_bound(CommitSeqNo(t.csn))),
        End::Prepared => v.push(Facts::committing()),
        End::Active => v.push(Facts::out_bound(CommitSeqNo::MAX)),
    }
    v
}

#[test]
fn rule_has_no_false_negative_and_only_named_deviations() {
    let ends = [End::Active, End::Prepared, End::Committed];
    let mut checked = 0u64;
    let mut deviations = 0u64;
    for two_cycle in [false, true] {
        let n = if two_cycle { 2 } else { 3 };
        let roles = if two_cycle { (0, 1, 0) } else { (0, 1, 2) };
        for combo in 0..3usize.pow(n as u32) {
            let fates: Vec<End> = (0..n)
                .map(|i| ends[combo / 3usize.pow(i as u32) % 3])
                .collect();
            for mut h in histories(&fates) {
                for (ro, opt) in [(false, false), (false, true), (true, false), (true, true)] {
                    if ro && two_cycle {
                        continue; // T1 is T3, which wrote
                    }
                    h[roles.0].read_only = ro;
                    let want = reference(&h, roles, opt);
                    for v1 in t1_views(&h[roles.0]) {
                        for v2 in t2_views(&h[roles.1]) {
                            for v3 in t3_views(&h[roles.2]) {
                                checked += 1;
                                let got = dangerous(&v1, &v2, &v3, opt);
                                let case = || {
                                    format!("history {h:?}, roles {roles:?}, read_only_opt {opt}, views {v1:?} / {v2:?} / {v3:?}")
                                };
                                match got {
                                    None => assert!(!want, "false negative: {}", case()),
                                    Some(r) if !want => {
                                        deviations += 1;
                                        assert!(
                                            !matches!(r, Rule::Theorem1 | Rule::Theorem3),
                                            "false positive under the paper's arm {r:?}: {}",
                                            case()
                                        );
                                    }
                                    Some(_) => {}
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "only {checked} cases");
    assert!(deviations > 0, "no deviation exercised");
}

fn committed(csn: u64, snapshot: u64) -> Facts {
    Facts {
        snapshot: CommitSeqNo(snapshot),
        fate: Fate::Committed(CommitSeqNo(csn)),
        read_only: false,
        summarized: false,
    }
}

fn active(snapshot: u64, read_only: bool) -> Facts {
    Facts {
        snapshot: CommitSeqNo(snapshot),
        fate: Fate::Active,
        read_only,
        summarized: false,
    }
}

/// Write skew: T1 is T3, committed at 5; the pivot T2 is still active.
#[test]
fn a_two_cycle_is_dangerous() {
    let t1 = committed(5, 3);
    assert_eq!(
        dangerous(&t1, &active(3, false), &t1, true),
        Some(Rule::Theorem1)
    );
}

/// A read-only T1 whose snapshot (4) does not see T3's commit (5) is spared;
/// one whose snapshot (6) does is not.
#[test]
fn theorem3_spares_a_read_only_t1_only_before_t3_commits() {
    let t3 = committed(5, 2);
    let t2 = active(2, false);
    assert_eq!(dangerous(&active(4, true), &t2, &t3, true), None);
    assert_eq!(
        dangerous(&active(4, true), &t2, &t3, false),
        Some(Rule::Theorem1)
    );
    assert_eq!(
        dangerous(&active(6, true), &t2, &t3, true),
        Some(Rule::Theorem3)
    );
}

/// A summary flag carries no facts, so it counts as dangerous whenever T3
/// committed before T2; a summarized reader at least as late as T3 too.
#[test]
fn a_summarized_t1_is_judged_dangerous() {
    let t3 = committed(5, 2);
    let t2 = active(2, false);
    assert_eq!(
        dangerous(&Facts::SUMMARY_FLAG, &t2, &t3, true),
        Some(Rule::SummaryFlag)
    );
    assert_eq!(
        dangerous(&Facts::summarized(CommitSeqNo(5)), &t2, &t3, true),
        Some(Rule::SummarizedReader)
    );
    assert_eq!(
        dangerous(&Facts::summarized(CommitSeqNo(4)), &t2, &t3, true),
        None
    );
}

/// §4.2's comparison is Theorem 3 asked from the reader's side: a writer
/// (T2, committed at `w`) whose earliest out-conflict committed at `e`
/// makes a concurrent read-only snapshot `s` unsafe exactly when the rule
/// calls that reader a dangerous T1.
#[test]
fn makes_unsafe_agrees_with_the_rule() {
    for s in 1..8u64 {
        for w in 1..8u64 {
            for e in (1..w).map(CommitSeqNo).chain([CommitSeqNo::MAX]) {
                let reader = active(s, true);
                let by_rule = dangerous(&reader, &committed(w, 1), &Facts::out_bound(e), true);
                assert_eq!(
                    makes_unsafe(e, CommitSeqNo(s)),
                    by_rule.is_some(),
                    "snapshot {s}, writer {w}, e {e:?}"
                );
            }
        }
    }
}
