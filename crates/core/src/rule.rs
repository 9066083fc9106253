//! The dangerous-structure rule (paper §3.3, §4.1–4.2), written once.
//!
//! [`dangerous`] decides whether `T1 –rw→ T2 –rw→ T3` must be broken, from
//! what the checking site knows about the three transactions ([`Facts`]).
//! [`makes_unsafe`] is the same comparison asked from a read-only snapshot's
//! side (§4.2). Both are pure: no lock, no registry, no allocation. Every
//! check site in `manager.rs` builds the facts under the locks it already
//! holds and calls them; victim choice (§5.4) stays with the caller.
//!
//! ## Conventions
//!
//! * **Commit order is CSN order.** A [`Fate::Committed`] CSN is exact. A
//!   transaction that has not committed — [`Fate::Active`] or
//!   [`Fate::Prepared`] — commits after every committed one, so as T1 or T2
//!   it counts as ∞ (its bound is `CommitSeqNo::MAX`). As T3 it is different:
//!   an active T3 makes nothing dangerous yet (safe retry, §5.4: nothing is
//!   aborted until T3 commits, and its own precommit asks again), while a
//!   prepared T3 *will* commit, no earlier than its prepare CSN, and is
//!   placed there.
//! * **Comparisons are non-strict**, so 2-cycles count: T1 may be T3 itself
//!   (write skew), and then T3's CSN equals T1's.
//! * **Theorem 3**: with the read-only optimization on, a read-only T1 is
//!   part of an anomaly only if T3 committed before T1's snapshot
//!   (`c3 < T1.snapshot`: a snapshot sees the commits below it).
//! * **A summarized transaction** (§6.2) has lost its identity. As T1 it
//!   keeps at most an upper bound on its commit (a summarized reader's lock
//!   CSN, as `Committed(bound)`), or nothing at all (a summary flag, as
//!   `Active`); it is never read-only, so Theorem 3 does not spare it. As T2
//!   (a summarized writer, structure A′) it keeps its exact commit CSN.
//! * A T3 known only as a folded earliest-out-conflict bound is
//!   [`Facts::out_bound`]: `CommitSeqNo::MAX` means no committed T3.
//! * A T3 at its own precommit is [`Facts::committing`]: it commits after
//!   every CSN assigned and every snapshot taken so far.
//!
//! Each verdict names the [`Rule`] arm that decided it. Two arms are the
//! paper's; the others are the conservative deviations DESIGN.md §3 lists,
//! and only they may call a structure dangerous that a full-information
//! check would let through (`crates/core/tests/rule_exhaustive.rs` checks
//! both claims over every small case).

use pgssi_common::CommitSeqNo;

/// What a check site knows of one transaction's outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    /// Not committed and not bound to commit.
    Active,
    /// Bound to commit, at a CSN no lower than this prepare CSN.
    Prepared(CommitSeqNo),
    /// Committed at this CSN.
    Committed(CommitSeqNo),
}

impl Fate {
    /// The CSN it committed at, or ∞ (`MAX`) while it has not committed.
    fn bound(self) -> CommitSeqNo {
        match self {
            Fate::Committed(c) => c,
            Fate::Active | Fate::Prepared(_) => CommitSeqNo::MAX,
        }
    }
}

/// One transaction's facts, as a check site reads them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Facts {
    /// Snapshot CSN: commits below it are visible.
    pub snapshot: CommitSeqNo,
    /// Its outcome so far.
    pub fate: Fate,
    /// Read-only for Theorem 3: declared so, or committed without writing.
    pub read_only: bool,
    /// Summarized (§6.2): identity lost, `fate` holds what is left.
    pub summarized: bool,
}

impl Facts {
    /// T1 behind a summary flag: nothing is known of it.
    pub const SUMMARY_FLAG: Facts = Facts {
        snapshot: CommitSeqNo::INVALID,
        fate: Fate::Active,
        read_only: false,
        summarized: true,
    };

    /// A T3 that is only a fate (its snapshot and read-only flag are never
    /// consulted).
    fn t3(fate: Fate) -> Facts {
        Facts {
            snapshot: CommitSeqNo::INVALID,
            fate,
            read_only: false,
            summarized: false,
        }
    }

    /// The T3 that a folded earliest-out-conflict bound `e` stands for: one
    /// committed at `e`, or none (`MAX`, or the unassigned `INVALID`).
    pub fn out_bound(e: CommitSeqNo) -> Facts {
        if e == CommitSeqNo::MAX || !e.is_valid() {
            Facts::t3(Fate::Active)
        } else {
            Facts::t3(Fate::Committed(e))
        }
    }

    /// The committing transaction as T3 at its own precommit: it commits
    /// after every CSN assigned and every snapshot taken so far, which a
    /// prepare CSN of ∞ states exactly.
    pub fn committing() -> Facts {
        Facts::t3(Fate::Prepared(CommitSeqNo::MAX))
    }

    /// A summarized transaction committed at or before `bound`: a reader
    /// placed at its lock's CSN, or a writer at its exact commit CSN.
    pub fn summarized(bound: CommitSeqNo) -> Facts {
        Facts {
            fate: Fate::Committed(bound),
            ..Facts::SUMMARY_FLAG
        }
    }
}

/// The arm of the rule that judged a structure dangerous.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Theorem 1 with §3.3.1: T3 committed first.
    Theorem1,
    /// Theorem 3: T1 is read-only and T3 committed before T1's snapshot.
    Theorem3,
    /// Deviation: T3 is prepared, not committed, and was placed at its
    /// prepare CSN. Its commit will follow every commit and snapshot that
    /// exists, so a committed T1 or T2, or a read-only T1, would spare it.
    PreparedT3,
    /// Deviation: T1 is a summarized reader, placed at the latest commit
    /// among the summarized holders of the lock (an upper bound on its own)
    /// and denied Theorem 3.
    SummarizedReader,
    /// Deviation: T1 is a summary flag: nothing is known of it, so it
    /// counts as dangerous whenever T3 committed before T2.
    SummaryFlag,
    /// Structure A′: T2 is a summarized writer, and T3 (from its
    /// serial-table entry) committed strictly before it.
    SummarizedWriter,
}

/// Is `t1 –rw→ t2 –rw→ t3` a dangerous structure (§3.3)? `None` if not.
/// `read_only_opt` enables Theorem 3. See the module docs for conventions.
pub fn dangerous(t1: &Facts, t2: &Facts, t3: &Facts, read_only_opt: bool) -> Option<Rule> {
    let c3 = match t3.fate {
        Fate::Active => return None,
        Fate::Prepared(p) => p,
        Fate::Committed(c) => c,
    };
    // T3 commits first (§3.3.1). A summarized writer's CSN is exact and
    // never a T3's, so the test against it is strict.
    let before_t2 = if t2.summarized {
        c3 < t2.fate.bound()
    } else {
        c3 <= t2.fate.bound()
    };
    if !before_t2 || c3 > t1.fate.bound() {
        return None;
    }
    if t1.summarized {
        return Some(match t1.fate {
            Fate::Committed(_) => Rule::SummarizedReader,
            _ => Rule::SummaryFlag,
        });
    }
    let read_only = read_only_opt && t1.read_only;
    if read_only && c3 >= t1.snapshot {
        return None;
    }
    let uncommitted = |f: &Facts| !matches!(f.fate, Fate::Committed(_));
    Some(match t3.fate {
        Fate::Prepared(_) if read_only || !uncommitted(t1) || !uncommitted(t2) => Rule::PreparedT3,
        _ if t2.summarized => Rule::SummarizedWriter,
        _ if read_only => Rule::Theorem3,
        _ => Rule::Theorem1,
    })
}

/// §4.2: does a writer whose earliest committed out-conflict is `e` make a
/// concurrent read-only snapshot `snapshot` unsafe? Only if that T3
/// committed before the snapshot — Theorem 3 asked from the reader's side.
pub fn makes_unsafe(e: CommitSeqNo, snapshot: CommitSeqNo) -> bool {
    matches!(Facts::out_bound(e).fate, Fate::Committed(c) if c < snapshot)
}
