//! Model-based and concurrency tests for the partitioned SIREAD lock table.
//!
//! The partitioning must be *behavior-preserving*: hashing targets across the
//! table's 16 partition mutexes may change performance, never detection
//! semantics. Two checks enforce that here:
//!
//! 1. a proptest model test drives randomized acquire / check / promote /
//!    release / consolidate / split / DDL sequences against `RefTable`, a
//!    deliberately naive single-map reimplementation of the pre-partitioning
//!    semantics, asserting identical [`ConflictCheck`] results throughout;
//! 2. a multi-thread stress test exercises concurrent acquisition-driven
//!    promotion against `release_owner` / `consolidate_owner`, asserting the
//!    table neither deadlocks nor leaks locks.

use std::collections::{HashMap, HashSet};

use pgssi_common::{CommitSeqNo, LockTarget, PageNo, RelId, SlotNo, SsiConfig};
use pgssi_lockmgr::siread::{ConflictCheck, SireadLockManager};
use pgssi_lockmgr::OwnerId;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference model: one flat map, no locks, seed-era semantics.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RefHolders {
    owners: HashSet<OwnerId>,
    old_committed_csn: Option<CommitSeqNo>,
}

impl RefHolders {
    fn is_empty(&self) -> bool {
        self.owners.is_empty() && self.old_committed_csn.is_none()
    }
}

#[derive(Default)]
struct RefOwner {
    targets: HashSet<LockTarget>,
    tuples_per_page: HashMap<(RelId, PageNo), usize>,
    pages_per_rel: HashMap<RelId, usize>,
}

/// Single-map reference model of the SIREAD table (promotion thresholds match
/// the config handed to the real manager; the owner-wide cap is left
/// effectively unlimited because its busiest-relation tie-break is
/// intentionally unspecified).
struct RefTable {
    locks: HashMap<LockTarget, RefHolders>,
    owners: HashMap<OwnerId, RefOwner>,
    promote_tuple_threshold: usize,
    promote_page_threshold: usize,
}

impl RefTable {
    fn new(config: &SsiConfig) -> RefTable {
        RefTable {
            locks: HashMap::new(),
            owners: HashMap::new(),
            promote_tuple_threshold: config.promote_tuple_threshold,
            promote_page_threshold: config.promote_page_threshold,
        }
    }

    fn register(&mut self, owner: OwnerId) {
        self.owners.entry(owner).or_default();
    }

    fn insert(&mut self, owner: OwnerId, target: LockTarget) {
        self.locks.entry(target).or_default().owners.insert(owner);
        let ol = self.owners.get_mut(&owner).expect("registered");
        ol.targets.insert(target);
        match target {
            LockTarget::Tuple(r, p, _) => *ol.tuples_per_page.entry((r, p)).or_insert(0) += 1,
            LockTarget::Page(r, _) => *ol.pages_per_rel.entry(r).or_insert(0) += 1,
            LockTarget::Relation(_) => {}
        }
    }

    fn remove(&mut self, owner: OwnerId, target: LockTarget) {
        if let Some(h) = self.locks.get_mut(&target) {
            h.owners.remove(&owner);
            if h.is_empty() {
                self.locks.remove(&target);
            }
        }
        let ol = self.owners.get_mut(&owner).expect("registered");
        ol.targets.remove(&target);
        match target {
            LockTarget::Tuple(r, p, _) => {
                if let Some(c) = ol.tuples_per_page.get_mut(&(r, p)) {
                    *c -= 1;
                    if *c == 0 {
                        ol.tuples_per_page.remove(&(r, p));
                    }
                }
            }
            LockTarget::Page(r, _) => {
                if let Some(c) = ol.pages_per_rel.get_mut(&r) {
                    *c -= 1;
                    if *c == 0 {
                        ol.pages_per_rel.remove(&r);
                    }
                }
            }
            LockTarget::Relation(_) => {}
        }
    }

    fn acquire(&mut self, owner: OwnerId, target: LockTarget) {
        let Some(ol) = self.owners.get(&owner) else {
            return; // unregistered or released: dropped, like the real manager
        };
        let mut cur = Some(target);
        while let Some(t) = cur {
            if ol.targets.contains(&t) {
                return;
            }
            cur = t.parent();
        }
        self.insert(owner, target);
        // Tuple→page promotion.
        if let LockTarget::Tuple(r, p, _) = target {
            let count = self.owners[&owner]
                .tuples_per_page
                .get(&(r, p))
                .copied()
                .unwrap_or(0);
            if count > self.promote_tuple_threshold {
                let victims: Vec<LockTarget> = self.owners[&owner]
                    .targets
                    .iter()
                    .filter(|t| matches!(t, LockTarget::Tuple(r2, p2, _) if *r2 == r && *p2 == p))
                    .copied()
                    .collect();
                for v in victims {
                    self.remove(owner, v);
                }
                self.insert(owner, LockTarget::Page(r, p));
            }
        }
        // Page→relation promotion.
        let rel = target.relation();
        let pages = self.owners[&owner]
            .pages_per_rel
            .get(&rel)
            .copied()
            .unwrap_or(0);
        if pages > self.promote_page_threshold {
            let victims: Vec<LockTarget> = self.owners[&owner]
                .targets
                .iter()
                .filter(|t| t.relation() == rel && t.granularity() > 0)
                .copied()
                .collect();
            for v in victims {
                self.remove(owner, v);
            }
            self.insert(owner, LockTarget::Relation(rel));
        }
    }

    fn release_target(&mut self, owner: OwnerId, target: LockTarget) {
        if self
            .owners
            .get(&owner)
            .map(|ol| ol.targets.contains(&target))
            .unwrap_or(false)
        {
            self.remove(owner, target);
        }
    }

    fn release_owner(&mut self, owner: OwnerId) {
        let Some(ol) = self.owners.remove(&owner) else {
            return;
        };
        for t in ol.targets {
            if let Some(h) = self.locks.get_mut(&t) {
                h.owners.remove(&owner);
                if h.is_empty() {
                    self.locks.remove(&t);
                }
            }
        }
    }

    fn consolidate_owner(&mut self, owner: OwnerId, csn: CommitSeqNo) {
        let Some(ol) = self.owners.remove(&owner) else {
            return;
        };
        for t in ol.targets {
            let h = self.locks.entry(t).or_default();
            h.owners.remove(&owner);
            h.old_committed_csn = Some(h.old_committed_csn.map_or(csn, |c| c.max(csn)));
        }
    }

    fn drop_old_committed_before(&mut self, csn: CommitSeqNo) {
        self.locks.retain(|_, h| {
            if let Some(c) = h.old_committed_csn {
                if c < csn {
                    h.old_committed_csn = None;
                }
            }
            !h.is_empty()
        });
    }

    fn on_page_split(&mut self, rel: RelId, old_page: PageNo, new_page: PageNo) {
        let old_t = LockTarget::Page(rel, old_page);
        let new_t = LockTarget::Page(rel, new_page);
        let Some(h) = self.locks.get(&old_t) else {
            return;
        };
        let owners: Vec<OwnerId> = h.owners.iter().copied().collect();
        let old_csn = h.old_committed_csn;
        for o in owners {
            if !self.owners[&o].targets.contains(&new_t) {
                self.insert(o, new_t);
            }
        }
        if let Some(csn) = old_csn {
            let h = self.locks.entry(new_t).or_default();
            h.old_committed_csn = Some(h.old_committed_csn.map_or(csn, |c| c.max(csn)));
        }
    }

    fn promote_relation(&mut self, rel: RelId, replacement: RelId) {
        let repl_t = LockTarget::Relation(replacement);
        let owner_ids: Vec<OwnerId> = self.owners.keys().copied().collect();
        for o in owner_ids {
            let victims: Vec<LockTarget> = self.owners[&o]
                .targets
                .iter()
                .filter(|t| t.relation() == rel && t.granularity() > 0)
                .copied()
                .collect();
            if victims.is_empty() {
                continue;
            }
            self.insert(o, repl_t);
            for v in victims {
                self.remove(o, v);
            }
        }
        let stale: Vec<LockTarget> = self
            .locks
            .iter()
            .filter(|(t, h)| {
                t.relation() == rel && t.granularity() > 0 && h.old_committed_csn.is_some()
            })
            .map(|(t, _)| *t)
            .collect();
        let mut max_csn: Option<CommitSeqNo> = None;
        for t in stale {
            if let Some(h) = self.locks.get_mut(&t) {
                max_csn = max_csn.max(h.old_committed_csn);
                h.old_committed_csn = None;
                if h.is_empty() {
                    self.locks.remove(&t);
                }
            }
        }
        if let Some(csn) = max_csn {
            let h = self.locks.entry(repl_t).or_default();
            h.old_committed_csn = Some(h.old_committed_csn.map_or(csn, |c| c.max(csn)));
        }
    }

    fn check(&self, chain: &[LockTarget], exclude: OwnerId) -> ConflictCheck {
        let mut result = ConflictCheck::default();
        let mut seen: HashSet<OwnerId> = HashSet::new();
        for t in chain {
            if let Some(h) = self.locks.get(t) {
                for &o in &h.owners {
                    if o != exclude && seen.insert(o) {
                        result.owners.push(o);
                    }
                }
                if let Some(csn) = h.old_committed_csn {
                    result.old_committed_csn =
                        Some(result.old_committed_csn.map_or(csn, |c| c.max(csn)));
                }
            }
        }
        result
    }

    fn total_lock_count(&self) -> usize {
        self.locks.len()
    }

    fn held_targets(&self, owner: OwnerId) -> Vec<LockTarget> {
        self.owners
            .get(&owner)
            .map(|ol| ol.targets.iter().copied().collect())
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Randomized op sequences.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Register(OwnerId),
    Acquire(OwnerId, LockTarget),
    Check(LockTarget, OwnerId),
    ReleaseTarget(OwnerId, LockTarget),
    ReleaseOwner(OwnerId),
    Consolidate(OwnerId, u64),
    DropOldBefore(u64),
    PageSplit(RelId, PageNo, PageNo),
    PromoteRelation(RelId, RelId),
}

fn target_strategy() -> impl Strategy<Value = LockTarget> {
    (0u32..2, 0u32..4, 0u16..4, 0u8..3).prop_map(|(rel, page, slot, gran)| {
        let rel = RelId(rel + 1);
        match gran {
            0 => LockTarget::Relation(rel),
            1 => LockTarget::Page(rel, page),
            _ => LockTarget::Tuple(rel, page, slot as SlotNo),
        }
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let owner = 1u64..5;
    prop_oneof![
        2 => (1u64..5).prop_map(Op::Register),
        8 => (owner, target_strategy()).prop_map(|(o, t)| Op::Acquire(o, t)),
        6 => (target_strategy(), 0u64..6).prop_map(|(t, x)| Op::Check(t, x)),
        2 => (1u64..5, target_strategy()).prop_map(|(o, t)| Op::ReleaseTarget(o, t)),
        1 => (1u64..5).prop_map(Op::ReleaseOwner),
        1 => (1u64..5, 1u64..20).prop_map(|(o, c)| Op::Consolidate(o, c)),
        1 => (1u64..20).prop_map(Op::DropOldBefore),
        1 => (0u32..2, 0u32..4, 0u32..4).prop_map(|(r, a, b)| Op::PageSplit(RelId(r + 1), a, b)),
        1 => (0u32..2, 0u32..2).prop_map(|(r, s)| Op::PromoteRelation(RelId(r + 1), RelId(s + 1))),
    ]
}

/// Test config: promotions fire quickly, the owner-wide cap never does (its
/// busiest-relation tie-break is unspecified, so the model can't predict it).
fn model_config() -> SsiConfig {
    SsiConfig {
        promote_tuple_threshold: 2,
        promote_page_threshold: 2,
        max_predicate_locks_per_txn: 10_000,
        ..SsiConfig::default()
    }
}

fn sorted_check(mut c: ConflictCheck) -> ConflictCheck {
    c.owners.sort_unstable();
    c
}

fn apply_and_compare(ops: &[Op]) {
    let config = model_config();
    let mgr = SireadLockManager::new(config.clone());
    let mut model = RefTable::new(&config);
    for op in ops {
        match *op {
            Op::Register(o) => {
                mgr.register_owner(o);
                model.register(o);
            }
            Op::Acquire(o, t) => {
                mgr.acquire(o, t);
                model.acquire(o, t);
            }
            Op::Check(t, exclude) => {
                let chain = t.check_chain();
                let real = sorted_check(mgr.conflicting_holders(&chain, exclude));
                let want = sorted_check(model.check(&chain, exclude));
                assert_eq!(real, want, "check {t:?} exclude {exclude} diverged");
            }
            Op::ReleaseTarget(o, t) => {
                mgr.release_target(o, t);
                model.release_target(o, t);
            }
            Op::ReleaseOwner(o) => {
                mgr.release_owner(o);
                model.release_owner(o);
            }
            Op::Consolidate(o, c) => {
                mgr.consolidate_owner(o, CommitSeqNo(c));
                model.consolidate_owner(o, CommitSeqNo(c));
            }
            Op::DropOldBefore(c) => {
                mgr.drop_old_committed_before(CommitSeqNo(c));
                model.drop_old_committed_before(CommitSeqNo(c));
            }
            Op::PageSplit(r, a, b) => {
                mgr.on_page_split(r, a, b);
                model.on_page_split(r, a, b);
            }
            Op::PromoteRelation(r, s) => {
                mgr.promote_relation(r, s);
                model.promote_relation(r, s);
            }
        }
    }
    // Final sweep: every tuple target in the domain must report identically,
    // and per-owner held sets and the resident count must agree.
    for rel in 1..=2u32 {
        for page in 0..4u32 {
            for slot in 0..4u16 {
                let chain = LockTarget::Tuple(RelId(rel), page, slot).check_chain();
                for exclude in 0..6u64 {
                    let real = sorted_check(mgr.conflicting_holders(&chain, exclude));
                    let want = sorted_check(model.check(&chain, exclude));
                    assert_eq!(real, want, "final sweep diverged at {chain:?}");
                }
            }
        }
    }
    for o in 1..5u64 {
        let mut real = mgr.held_targets(o);
        let mut want = model.held_targets(o);
        real.sort_unstable();
        want.sort_unstable();
        assert_eq!(real, want, "owner {o} held-set diverged");
    }
    assert_eq!(mgr.total_lock_count(), model.total_lock_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partitioned_table_matches_single_map_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        apply_and_compare(&ops);
    }
}

// ---------------------------------------------------------------------------
// Concurrency stress.
// ---------------------------------------------------------------------------

/// Concurrent promotion-heavy acquisition vs. release/consolidate of other
/// owners: must not deadlock (the ascending partition-lock order forbids
/// cycles) and must not leak locks once every owner is gone.
#[test]
fn concurrent_promotion_and_release_neither_deadlocks_nor_leaks() {
    let config = SsiConfig {
        promote_tuple_threshold: 3,
        promote_page_threshold: 3,
        max_predicate_locks_per_txn: 64,
        ..SsiConfig::default()
    };
    let mgr = SireadLockManager::new(config);
    let threads = 8usize;
    let rounds = 60usize;

    std::thread::scope(|scope| {
        for th in 0..threads {
            let mgr = &mgr;
            scope.spawn(move || {
                for round in 0..rounds {
                    let owner = (th * rounds + round + 1) as OwnerId;
                    mgr.register_owner(owner);
                    // Dense tuple reads drive tuple→page→relation promotion
                    // across several partitions.
                    for page in 0..6u32 {
                        for slot in 0..6u16 {
                            mgr.acquire(owner, LockTarget::Tuple(RelId(1), page, slot));
                        }
                    }
                    mgr.acquire(owner, LockTarget::Page(RelId(2), (round % 5) as PageNo));
                    // Writers probe while others promote and release.
                    let chain = LockTarget::Tuple(RelId(1), (round % 6) as PageNo, 0).check_chain();
                    let _ = mgr.conflicting_holders(&chain, owner);
                    if round % 3 == 0 {
                        mgr.consolidate_owner(owner, CommitSeqNo(round as u64 + 1));
                    } else {
                        mgr.release_owner(owner);
                    }
                }
            });
        }
    });

    // Drop the summarized leftovers; nothing may remain.
    mgr.drop_old_committed_before(CommitSeqNo((threads * rounds) as u64 + 2));
    assert_eq!(mgr.total_lock_count(), 0, "locks leaked under concurrency");
    assert!(mgr.promotions.get() > 0, "stress test never promoted");
}

/// A release racing an in-flight acquisition must end with the owner holding
/// nothing — the released-owner tombstone makes late acquisitions no-ops.
#[test]
fn racing_release_never_resurrects_locks() {
    for round in 0..50u32 {
        let mgr = SireadLockManager::new(SsiConfig::default());
        let owner: OwnerId = 7;
        mgr.register_owner(owner);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for s in 0..32u16 {
                    mgr.acquire(owner, LockTarget::Tuple(RelId(1), round, s));
                }
            });
            scope.spawn(|| {
                mgr.release_owner(owner);
            });
        });
        // Whatever interleaving happened, a second release leaves nothing.
        mgr.release_owner(owner);
        assert_eq!(mgr.total_lock_count(), 0, "round {round} leaked");
        assert_eq!(mgr.owner_lock_count(owner), 0);
    }
}
