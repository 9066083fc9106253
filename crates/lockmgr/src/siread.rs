//! The SSI (SIREAD) lock manager — paper §5.2.1.
//!
//! SIREAD "locks" never conflict with anything at acquisition time and never
//! block; they are a registry of *who read what*, consulted when a tuple is
//! written. That buys several simplifications the paper calls out: no deadlock
//! detection, no lock-ordering constraints against latches, and no intention
//! locks — a writer simply checks the relation, page, and tuple targets in
//! coarse-to-fine order.
//!
//! It also has obligations a regular lock manager does not:
//! * locks out-live their transactions (they persist until every concurrent
//!   transaction finishes — enforced by the SSI core, which calls
//!   [`SireadLockManager::release_owner`] at cleanup);
//! * bounded memory: per-owner thresholds promote tuple locks to page locks and
//!   page locks to relation locks (§6, technique 2);
//! * summarization support: a committed owner's locks can be *consolidated* onto
//!   the dummy [`OLD_COMMITTED_OWNER`], keeping only the latest commit sequence
//!   number per target (§6.2);
//! * DDL support: when a table is rewritten or an index dropped, physical lock
//!   targets go stale and are promoted to relation granularity (§5.2.1);
//! * index page splits copy locks to the new page (PostgreSQL's
//!   `PredicateLockPageSplit`), preserving gap coverage.
//!
//! ## Partitioning and lock order
//!
//! Like PostgreSQL's predicate lock table, the target → holders map is hashed
//! into 16 partition mutexes, a compile-time constant as
//! `NUM_PREDICATELOCK_PARTITIONS` is.
//! The hash keys on **relation and page only**, so a page target and every
//! tuple on that page land in the *same* partition: the tuple→page promotion is
//! a single-partition operation, and a writer's coarse-to-fine check chain
//! touches at most two partitions (the relation's and the page's). Per-owner
//! bookkeeping (held targets, promotion counts, counter tallies) lives in a
//! per-owner mutex-guarded record. [`SireadLockManager::register_owner`]
//! returns an [`OwnerHandle`] to it: the owning transaction keeps the handle
//! and every acquisition it makes goes straight to its own record — no
//! shared structure is consulted. The `RwLock` **owner directory** maps ids
//! to the same records for everyone else: it is written at register/release
//! and walked by a writer's filter hit, a page split, or DDL promotion; the
//! id-taking entry points (2PC, tests, probes) look the handle up there and
//! delegate. Sharding it by owner id over the partition count was A/B'd on
//! `readmostly-ssi`, where every begin and retirement writes it, and did
//! not separate (8 round-robin rounds, 2 vCPU, medians: 162.5k txn/s with
//! one map against 168.0k sharded, ranges 154.8k–199.8k and 150.3k–194.5k;
//! `lat_p95_us` 15.9 against 16.0 µs), so it is one map.
//!
//! The internal lock order, which every operation follows, is:
//!
//! 1. the owner directory (`RwLock`, read for lookups and walks, write to
//!    add/remove);
//! 2. one per-owner mutex (never two at once);
//! 3. partition mutexes, all needed ones at once, in **ascending index order**.
//!
//! The SSI core's graph lock sits *above* this whole hierarchy: it may be held
//! while calling into the lock manager, and the lock manager never calls back
//! into the SSI core, so the combined order is acyclic. Multi-target mutations
//! (promotions, consolidation) hold every involved partition simultaneously,
//! so a concurrent writer probing its check chain — which also holds all of its
//! chain's partitions at once — always observes an atomic transition, never a
//! window where coverage has been removed at one granularity but not yet added
//! at another. An owner concurrently released while an acquisition is in
//! flight is handled by a tombstone: the released owner's bookkeeping is marked
//! dead under its own mutex, and late acquisitions become no-ops.
//!
//! ## Read-set batching
//!
//! When [`SsiConfig::read_batch`] is above 1 (the default), `acquire` does not
//! touch a partition mutex at all: the target is accumulated in the owner's
//! *pending* read set ([`crate::readset::TxReadSet`], guarded by the owner's
//! own mutex) and counted into a shared relaxed-atomic presence filter
//! ([`crate::readset::PresenceFilter`]). Pending targets are *published*
//! (spilled into the partition table) in batches: at the batch-size boundary,
//! via [`SireadLockManager::publish_pending`] (the SSI core calls it on the
//! transaction's own first write and at two-phase `PREPARE`), and when a
//! writer's filter probe forces it. [`SireadLockManager::conflicting_holders`]
//! probes the filter *before* the table; a hit walks the owner directory and
//! force-publishes any pending batch covering the writer's check chain, so
//! unpublished reads are never missed (the filter has no false negatives — see
//! `readset.rs` for the publish-race ordering proof). Granularity-promotion
//! counters span published ∪ pending, so promotions fire at exactly the same
//! points as the eager path; promotions whose victims are all pending happen
//! entirely locally. `read_batch <= 1` restores the eager per-read path.
//!
//! ## What one conflict-free read costs
//!
//! The owner mutex (uncontended: only a writer's filter hit or a release
//! ever takes someone else's), a coverage check and an insert in the owner's
//! own read set (a few multiply-hash probes — `TargetHasher` in
//! `readset.rs`), and one relaxed increment of the filter
//! word. The promotion counters are not even maintained until the owner holds
//! more targets than the smallest promotion threshold (no threshold can fire
//! below it; they are rebuilt from the read set when it is crossed), and the
//! `acquisitions` / `local_accumulated` / `batches_published` tallies
//! accumulate in the owner record and reach the shared counters in one
//! [`SireadLockManager::flush_tallies`] per transaction (the SSI core calls
//! it before a commit returns; release and consolidation flush whatever is
//! left), so a counter read between two transactions is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use pgssi_common::sim;
use pgssi_common::stats::Counter;
use pgssi_common::{CommitSeqNo, LockTarget, PageNo, RelId, SsiConfig};

use crate::readset::{FastMap, FastSet, PresenceFilter, TxReadSet, FILTER_SLOTS};
use crate::{OwnerId, OLD_COMMITTED_OWNER};

#[derive(Default)]
struct Holders {
    owners: FastSet<OwnerId>,
    /// If summarized (dummy-owned) locks cover this target: the commit sequence
    /// number of the most recent summarized transaction that held it (§6.2).
    old_committed_csn: Option<CommitSeqNo>,
}

impl Holders {
    fn is_empty(&self) -> bool {
        self.owners.is_empty() && self.old_committed_csn.is_none()
    }
}

/// The target → holders map guarded by one partition mutex.
type PartitionMap = FastMap<LockTarget, Holders>;

/// One lock-table partition: its share of the target map plus contention
/// counters (each [`Counter`] is cache-line padded, so the per-partition pairs
/// never false-share).
struct PartitionSlot {
    locks: Mutex<PartitionMap>,
    /// Times this partition's mutex was taken.
    taken: Counter,
    /// Times the mutex was already held by another thread (the taker had to
    /// block) — the direct analog of PostgreSQL's lightweight-lock contention.
    contended: Counter,
}

#[derive(Default)]
struct OwnerLocks {
    targets: FastSet<LockTarget>,
    /// Accumulated-but-unpublished read-set targets (read-set batching).
    /// Disjoint from `targets`; every pending target is counted in the
    /// manager's presence filter. The promotion counters below span
    /// `targets` ∪ `pending`.
    pending: TxReadSet,
    /// Whether the two promotion counters below are being maintained. They
    /// are a pure function of `targets` ∪ `pending`, and no threshold can be
    /// exceeded while the owner holds at most `count_from` targets (the
    /// manager's smallest threshold), so they stay empty until then and are
    /// rebuilt from the sets at the crossing.
    counting: bool,
    tuples_per_page: FastMap<(RelId, PageNo), usize>,
    pages_per_rel: FastMap<RelId, usize>,
    /// Tombstone: set under this owner's mutex when the owner is released or
    /// consolidated. An acquisition racing with the release may still hold a
    /// reference to this record; the flag turns it into a no-op instead of
    /// resurrecting locks that would never be freed.
    released: bool,
    /// Counter increments not yet added to the manager's shared counters
    /// (see [`SireadLockManager::flush_tallies`]).
    tally: Tally,
}

/// Per-owner share of [`SireadLockManager::acquisitions`],
/// [`SireadLockManager::local_accumulated`] and
/// [`SireadLockManager::batches_published`].
#[derive(Default)]
struct Tally {
    acquisitions: u64,
    local_accumulated: u64,
    batches_published: u64,
}

impl OwnerLocks {
    /// Targets held, published and pending alike.
    fn held(&self) -> usize {
        self.targets.len() + self.pending.len()
    }

    /// Is `target` already covered by a held lock on it or on a coarser
    /// target (published or pending)? The one coverage test every
    /// acquisition runs.
    fn covers(&self, target: LockTarget) -> bool {
        let mut cur = Some(target);
        while let Some(t) = cur {
            if self.pending.contains(&t) || self.targets.contains(&t) {
                return true;
            }
            cur = t.parent();
        }
        false
    }
}

/// Shared reference to one owner's bookkeeping record.
type OwnerRef = Arc<Mutex<OwnerLocks>>;

/// A lock owner's own reference to its bookkeeping record, returned by
/// [`SireadLockManager::register_owner`]. Operations taking a handle reach the
/// record directly; the id-taking variants find the same record through the
/// owner directory first.
#[derive(Clone)]
pub struct OwnerHandle {
    id: OwnerId,
    locks: OwnerRef,
}

impl OwnerHandle {
    /// The owner's id.
    pub fn id(&self) -> OwnerId {
        self.id
    }
}

impl std::fmt::Debug for OwnerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OwnerHandle({})", self.id)
    }
}

/// Lock one owner's bookkeeping. Owner mutexes are held while acquiring
/// partition mutexes (which under sim spin-yield on contention), so a sim
/// thread can be parked at a yield point with an owner mutex held — peers
/// must take it cooperatively, never by OS-blocking on a parked holder.
fn lock_owner(ol_ref: &OwnerRef) -> MutexGuard<'_, OwnerLocks> {
    sim::lock_cooperatively(sim::Site::LockSpin, || ol_ref.try_lock(), || ol_ref.lock())
}

/// Result of checking a write against the SIREAD table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictCheck {
    /// Live (registered) owners holding a covering SIREAD lock, deduplicated.
    pub owners: Vec<OwnerId>,
    /// If summarized locks cover the target: the most recent commit sequence
    /// number among them. The SSI core compares it against the writer's snapshot
    /// to decide whether the unknown reader was concurrent (§6.2).
    pub old_committed_csn: Option<CommitSeqNo>,
}

/// Per-partition counter snapshot (diagnostics, `Database::stats_report`).
#[derive(Clone, Debug, Default)]
pub struct PartitionStats {
    /// Lock targets currently stored in the partition.
    pub locks: usize,
    /// Times the partition mutex was taken.
    pub taken: u64,
    /// Times the taker found the mutex held and had to block.
    pub contended: u64,
}

/// Guards for a set of partitions, locked in ascending index order.
struct MultiGuard<'a> {
    guards: Vec<(usize, MutexGuard<'a, PartitionMap>)>,
}

impl MultiGuard<'_> {
    /// The locked map for partition `idx` (must be one of the locked set).
    fn map(&mut self, idx: usize) -> &mut PartitionMap {
        let pos = self
            .guards
            .iter()
            .position(|(i, _)| *i == idx)
            .expect("partition not locked by this MultiGuard");
        &mut self.guards[pos].1
    }
}

/// The SIREAD-only predicate lock manager.
pub struct SireadLockManager {
    partitions: Box<[PartitionSlot]>,
    owners: RwLock<FastMap<OwnerId, OwnerRef>>,
    /// Presence filter over every pending (unpublished) read-set target,
    /// probed by writers before the partition table.
    filter: PresenceFilter,
    /// Exact count of table entries carrying a summarized csn. Maintained
    /// under the partition mutexes; lets the per-commit horizon sweep skip
    /// every partition mutex when nothing is summarized (the common case).
    summarized_targets: AtomicU64,
    config: SsiConfig,
    /// The smallest promotion threshold: an owner holding at most this many
    /// targets cannot exceed any of them, so its promotion counters are not
    /// maintained yet.
    count_from: usize,
    /// SIREAD lock acquisitions (after coverage/dedup filtering). Like
    /// `local_accumulated` and `batches_published`, exact once the acquiring
    /// transaction has finished (see [`SireadLockManager::flush_tallies`]).
    pub acquisitions: Counter,
    /// Granularity promotions performed (tuple→page and page→relation).
    pub promotions: Counter,
    /// Reads accumulated into a pending set without touching a partition mutex.
    pub local_accumulated: Counter,
    /// Pending batches published to the table (batch boundary or explicit
    /// flush: first own write, 2PC prepare).
    pub batches_published: Counter,
    /// Writer-side probes of the presence filter.
    pub filter_probes: Counter,
    /// Filter probes that hit (a pending reader may cover the write —
    /// an owner-directory walk follows).
    pub filter_hits: Counter,
    /// Pending batches force-published by a writer's filter hit.
    pub forced_publishes: Counter,
    /// Time (ns) spent spilling a pending read-set batch into the partition
    /// table, across all three publish triggers (batch boundary, first own
    /// write / 2PC prepare, writer force-publish).
    pub publish_ns: pgssi_common::Histogram,
}

/// Number of lock-table partitions. Fixed, as in PostgreSQL: an observatory
/// A/B of `1` against `16` (`readmostly-ssi` 164.0k vs 160.8k txn/s,
/// `scan-update-ssi` 22.9k vs 22.4k, 2 vCPU) could not tell them apart, so
/// the count is not a setting.
const PARTITIONS: usize = 16;

/// SplitMix64 finalizer: cheap, well-mixed 64-bit hash for partition choice.
#[inline]
pub(crate) fn spread(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SireadLockManager {
    /// New manager with the given promotion thresholds and read batch.
    pub fn new(config: SsiConfig) -> SireadLockManager {
        SireadLockManager {
            partitions: (0..PARTITIONS)
                .map(|_| PartitionSlot {
                    locks: Mutex::new(PartitionMap::default()),
                    taken: Counter::new(),
                    contended: Counter::new(),
                })
                .collect(),
            owners: RwLock::new(FastMap::default()),
            filter: PresenceFilter::new(PARTITIONS),
            summarized_targets: AtomicU64::new(0),
            count_from: config
                .promote_tuple_threshold
                .min(config.promote_page_threshold)
                .min(config.max_predicate_locks_per_txn),
            config,
            acquisitions: Counter::new(),
            promotions: Counter::new(),
            local_accumulated: Counter::new(),
            batches_published: Counter::new(),
            filter_probes: Counter::new(),
            filter_hits: Counter::new(),
            forced_publishes: Counter::new(),
            publish_ns: pgssi_common::Histogram::new(),
        }
    }

    /// Read-set batching enabled? (`read_batch <= 1` is the eager ablation.)
    fn batching(&self) -> bool {
        self.config.read_batch > 1
    }

    /// Partition index for `target`: relation targets hash by relation, page
    /// and tuple targets by (relation, page) — so a page and its tuples always
    /// share a partition.
    fn partition_of(&self, target: &LockTarget) -> usize {
        let key = match *target {
            LockTarget::Relation(r) => (r.0 as u64) << 32 | 0xFFFF_FFFF,
            LockTarget::Page(r, p) | LockTarget::Tuple(r, p, _) => (r.0 as u64) << 32 | p as u64,
        };
        (spread(key) % PARTITIONS as u64) as usize
    }

    /// Presence-filter address for `target`: its partition index plus a slot
    /// chosen by a secondary hash of the *exact* target (granularity and tuple
    /// slot included, unlike `partition_of`), so sibling targets rarely share
    /// a filter slot. Collisions only cost a wasted owner-directory walk.
    fn filter_slot_of(&self, target: &LockTarget) -> (usize, usize) {
        let key = match *target {
            LockTarget::Relation(r) => (r.0 as u64) << 32 | 0xFFFF_FFFF,
            LockTarget::Page(r, p) => (r.0 as u64) << 32 | p as u64,
            LockTarget::Tuple(r, p, s) => spread((r.0 as u64) << 32 | p as u64) ^ s as u64,
        };
        let slot = spread(key ^ 0x9e37_79b9_7f4a_7c15) % FILTER_SLOTS as u64;
        (self.partition_of(target), slot as usize)
    }

    /// Lock one partition, counting contention. Partition mutexes are held
    /// across multi-partition passes whose *other* acquisitions can
    /// spin-yield under sim, so they too must be taken cooperatively.
    fn lock_partition(&self, idx: usize) -> MutexGuard<'_, PartitionMap> {
        let slot = &self.partitions[idx];
        slot.taken.bump();
        match slot.locks.try_lock() {
            Some(g) => g,
            None => {
                slot.contended.bump();
                sim::lock_cooperatively(
                    sim::Site::LockSpin,
                    || slot.locks.try_lock(),
                    || slot.locks.lock(),
                )
            }
        }
    }

    /// Lock every partition any of `targets` hashes to, in ascending index
    /// order (the partition-level lock-order invariant).
    fn lock_targets<'a>(&'a self, targets: impl IntoIterator<Item = LockTarget>) -> MultiGuard<'a> {
        let mut idxs: Vec<usize> = targets.into_iter().map(|t| self.partition_of(&t)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        MultiGuard {
            guards: idxs
                .into_iter()
                .map(|i| (i, self.lock_partition(i)))
                .collect(),
        }
    }

    /// Lock all partitions in ascending order (rare whole-table operations).
    fn lock_all(&self) -> MultiGuard<'_> {
        MultiGuard {
            guards: (0..PARTITIONS)
                .map(|i| (i, self.lock_partition(i)))
                .collect(),
        }
    }

    /// The owner's bookkeeping record, if registered.
    fn owner_ref(&self, owner: OwnerId) -> Option<OwnerRef> {
        self.owners.read().get(&owner).cloned()
    }

    /// Every registered owner, for the three directory walks (a writer's
    /// filter hit, a page split, DDL promotion), copied out so that no
    /// owner mutex is taken under the directory lock.
    fn all_owners(&self) -> Vec<(OwnerId, OwnerRef)> {
        self.owners
            .read()
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect()
    }

    /// The handle of a registered owner (the directory lookup behind every
    /// id-taking entry point; `None` once the owner was released).
    fn owner_handle(&self, owner: OwnerId) -> Option<OwnerHandle> {
        let locks = self.owner_ref(owner)?;
        Some(OwnerHandle { id: owner, locks })
    }

    /// Register a lock owner (a serializable transaction) and return its
    /// handle (the existing one if the id is already registered).
    /// Acquisitions for unregistered or released owners are silently dropped
    /// — the owner may already have been released concurrently (e.g. the
    /// read-only safe-snapshot downgrade).
    pub fn register_owner(&self, owner: OwnerId) -> OwnerHandle {
        assert_ne!(owner, OLD_COMMITTED_OWNER, "dummy owner is implicit");
        let locks = Arc::clone(self.owners.write().entry(owner).or_default());
        OwnerHandle { id: owner, locks }
    }

    /// Take a SIREAD lock on `target` for the owner behind `owner`, touching
    /// only that owner's record and (batched mode) the filter word.
    ///
    /// No-ops if a coarser lock already covers the target, or if the owner
    /// has been released. May trigger granularity promotion when per-page /
    /// per-relation / per-owner thresholds are exceeded (§6 technique 2). In
    /// batched mode the target is accumulated in the owner's pending set — no
    /// partition mutex — and published when the batch fills.
    pub fn acquire_for(&self, owner: &OwnerHandle, target: LockTarget) {
        let mut ol = lock_owner(&owner.locks);
        if ol.released || ol.covers(target) {
            return;
        }
        let id = owner.id;
        ol.tally.acquisitions += 1;
        if self.batching() {
            // Accumulate locally. The filter count goes in before the read
            // hook returns (we hold only the owner mutex), so a writer whose
            // probe is ordered after this read by the storage latches cannot
            // miss it.
            let (fp, fs) = self.filter_slot_of(&target);
            self.filter.add(fp, fs);
            Self::count_insert(&mut ol, target);
            ol.pending.insert(target);
            ol.tally.local_accumulated += 1;
            self.maybe_promote(&mut ol, id, target);
            if ol.pending.len() >= self.config.read_batch {
                self.publish_pending_locked(&mut ol, id);
                ol.tally.batches_published += 1;
            }
        } else {
            {
                let mut part = self.lock_partition(self.partition_of(&target));
                Self::insert_locked(&mut part, &mut ol, id, target);
            }
            self.maybe_promote(&mut ol, id, target);
        }
    }

    /// [`SireadLockManager::acquire_for`] by owner id: dropped if the owner
    /// is not (or no longer) registered.
    pub fn acquire(&self, owner: OwnerId, target: LockTarget) {
        if let Some(h) = self.owner_handle(owner) {
            self.acquire_for(&h, target);
        }
    }

    /// Add the owner's accumulated counter tallies to the shared counters.
    /// The SSI core calls this once per transaction, before its commit
    /// returns; releasing or consolidating an owner flushes what is left. A
    /// reader of the shared counters therefore sees every acquisition of
    /// every *finished* transaction — which is all `StatsReport::delta` is
    /// ever asked about — while a running transaction's reads cost it no
    /// shared-counter traffic.
    pub fn flush_tallies(&self, owner: &OwnerHandle) {
        self.flush_tallies_locked(&mut lock_owner(&owner.locks));
    }

    fn flush_tallies_locked(&self, ol: &mut OwnerLocks) {
        let t = std::mem::take(&mut ol.tally);
        if t.acquisitions > 0 {
            self.acquisitions.add(t.acquisitions);
        }
        if t.local_accumulated > 0 {
            self.local_accumulated.add(t.local_accumulated);
        }
        if t.batches_published > 0 {
            self.batches_published.add(t.batches_published);
        }
    }

    /// Publish (spill) every pending target into the partition table. Caller
    /// holds the owner mutex. The table insertion completes — and releases its
    /// partition mutexes — *before* the filter counts drop, so a writer that
    /// misses a spilled target's filter slot is guaranteed to find it when its
    /// table probe acquires the partition mutex (see `readset.rs`). Promotion
    /// counters are untouched: pending targets were counted at accumulation.
    fn publish_pending_locked(&self, ol: &mut OwnerLocks, owner: OwnerId) {
        if ol.pending.is_empty() {
            return;
        }
        let span = self.publish_ns.start();
        let batch = ol.pending.drain();
        {
            let mut mg = self.lock_targets(batch.iter().copied());
            for &t in &batch {
                mg.map(self.partition_of(&t))
                    .entry(t)
                    .or_default()
                    .owners
                    .insert(owner);
                ol.targets.insert(t);
            }
        }
        for t in &batch {
            let (fp, fs) = self.filter_slot_of(t);
            self.filter.remove(fp, fs);
        }
        self.publish_ns.record_elapsed(span);
    }

    /// Publish the owner's pending read-set batch, if any. The SSI core calls
    /// this on the transaction's own first write (its read set must be in the
    /// table before peers probe it as a writer's victim) and at two-phase
    /// `PREPARE` (the persisted lock list must be complete). Returns the
    /// number of targets published.
    pub fn publish_pending_for(&self, owner: &OwnerHandle) -> usize {
        // Sim yield before any lock: callers (first own write, PREPARE,
        // prepared-txn recovery) hold nothing here, so a thread parked at
        // this point blocks nobody. This is the window in which a peer
        // writer's probe can race the spill — exactly the interleaving the
        // simulator wants to schedule.
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::SireadPublish);
        let mut ol = lock_owner(&owner.locks);
        if ol.released || ol.pending.is_empty() {
            return 0;
        }
        let n = ol.pending.len();
        self.publish_pending_locked(&mut ol, owner.id);
        ol.tally.batches_published += 1;
        n
    }

    /// [`SireadLockManager::publish_pending_for`] by owner id.
    pub fn publish_pending(&self, owner: OwnerId) -> usize {
        self.owner_handle(owner)
            .map_or(0, |h| self.publish_pending_for(&h))
    }

    /// Bump the promotion counters for a newly-tracked target. The counters
    /// deliberately span published and pending targets, so promotion
    /// thresholds fire at exactly the same points in batched and eager mode.
    fn count_insert(ol: &mut OwnerLocks, target: LockTarget) {
        if !ol.counting {
            return;
        }
        match target {
            LockTarget::Tuple(r, p, _) => {
                *ol.tuples_per_page.entry((r, p)).or_insert(0) += 1;
            }
            LockTarget::Page(r, _) => {
                *ol.pages_per_rel.entry(r).or_insert(0) += 1;
            }
            LockTarget::Relation(_) => {}
        }
    }

    /// Inverse of [`Self::count_insert`].
    fn count_remove(ol: &mut OwnerLocks, target: LockTarget) {
        if !ol.counting {
            return;
        }
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

    /// Insert `target` into a locked partition map and the owner's bookkeeping.
    /// Caller holds the owner mutex and the target's partition mutex.
    fn insert_locked(
        part: &mut PartitionMap,
        ol: &mut OwnerLocks,
        owner: OwnerId,
        target: LockTarget,
    ) {
        part.entry(target).or_default().owners.insert(owner);
        ol.targets.insert(target);
        Self::count_insert(ol, target);
    }

    /// Inverse of [`Self::insert_locked`], under the same locks.
    fn remove_locked(
        part: &mut PartitionMap,
        ol: &mut OwnerLocks,
        owner: OwnerId,
        target: LockTarget,
    ) {
        if let Some(h) = part.get_mut(&target) {
            h.owners.remove(&owner);
            if h.is_empty() {
                part.remove(&target);
            }
        }
        ol.targets.remove(&target);
        Self::count_remove(ol, target);
    }

    /// Drop `target` from the owner's pending set, its promotion counters, and
    /// the presence filter. Caller holds the owner mutex; no partition mutex
    /// is needed — the target was never published.
    fn drop_pending(&self, ol: &mut OwnerLocks, target: LockTarget) {
        ol.pending.remove(&target);
        Self::count_remove(ol, target);
        let (fp, fs) = self.filter_slot_of(&target);
        self.filter.remove(fp, fs);
    }

    fn maybe_promote(&self, ol: &mut OwnerLocks, owner: OwnerId, target: LockTarget) {
        if !ol.counting {
            if ol.held() <= self.count_from {
                return; // no threshold is reachable yet
            }
            // Crossing: rebuild the counters from the held sets.
            ol.counting = true;
            let held: Vec<LockTarget> = ol
                .targets
                .iter()
                .chain(ol.pending.iter())
                .copied()
                .collect();
            for t in held {
                Self::count_insert(ol, t);
            }
        }
        // Tuple locks on one page exceed threshold → one page lock.
        if let LockTarget::Tuple(r, p, _) = target {
            let count = ol.tuples_per_page.get(&(r, p)).copied().unwrap_or(0);
            if count > self.config.promote_tuple_threshold {
                self.promote_tuples_to_page(ol, owner, r, p);
            }
        }
        // Page locks on one relation exceed threshold → one relation lock.
        let rel = target.relation();
        let pages = ol.pages_per_rel.get(&rel).copied().unwrap_or(0);
        if pages > self.config.promote_page_threshold {
            self.promote_owner_to_relation(ol, owner, rel);
        }
        // Owner-wide cap → promote the busiest relation wholesale.
        if ol.held() > self.config.max_predicate_locks_per_txn {
            if let Some(busiest) = Self::busiest_relation(ol) {
                self.promote_owner_to_relation(ol, owner, busiest);
            }
        }
    }

    fn busiest_relation(ol: &OwnerLocks) -> Option<RelId> {
        let mut counts: FastMap<RelId, usize> = FastMap::default();
        for t in ol.targets.iter().chain(ol.pending.iter()) {
            if t.granularity() > 0 {
                *counts.entry(t.relation()).or_insert(0) += 1;
            }
        }
        counts.into_iter().max_by_key(|(_, c)| *c).map(|(r, _)| r)
    }

    /// Tuple→page promotion. The page target and every tuple on it share one
    /// partition by construction, so this locks at most one mutex — and none
    /// at all when every victim is still pending: the promoted page target
    /// then joins the pending set itself (the batch publishes the
    /// already-promoted form). "Coarse in before fine out" holds in both
    /// shapes, for the table and for the filter, so a concurrent writer's
    /// probe never sees a coverage gap.
    fn promote_tuples_to_page(
        &self,
        ol: &mut OwnerLocks,
        owner: OwnerId,
        rel: RelId,
        page: PageNo,
    ) {
        let published: Vec<LockTarget> = ol
            .targets
            .iter()
            .filter(|t| matches!(t, LockTarget::Tuple(r, p, _) if *r == rel && *p == page))
            .copied()
            .collect();
        let pending: Vec<LockTarget> = ol
            .pending
            .matching(|t| matches!(t, LockTarget::Tuple(r, p, _) if *r == rel && *p == page));
        let page_t = LockTarget::Page(rel, page);
        if published.is_empty() && self.batching() {
            let (fp, fs) = self.filter_slot_of(&page_t);
            self.filter.add(fp, fs);
            Self::count_insert(ol, page_t);
            ol.pending.insert(page_t);
            for v in pending {
                self.drop_pending(ol, v);
            }
        } else {
            {
                let mut part = self.lock_partition(self.partition_of(&page_t));
                // Coarse lock in before fine locks out, so coverage never lapses.
                Self::insert_locked(&mut part, ol, owner, page_t);
                for v in published {
                    Self::remove_locked(&mut part, ol, owner, v);
                }
            }
            // Pending victims drop their filter counts only after the page
            // lock is visible in the table.
            for v in pending {
                self.drop_pending(ol, v);
            }
        }
        self.promotions.bump();
        // Page count grew; the caller's relation-threshold check follows.
    }

    /// Page/tuple→relation promotion: locks every partition a published
    /// victim lives in plus the relation target's, all at once in ascending
    /// order — or stays entirely local when every victim is still pending.
    fn promote_owner_to_relation(&self, ol: &mut OwnerLocks, owner: OwnerId, rel: RelId) {
        let published: Vec<LockTarget> = ol
            .targets
            .iter()
            .filter(|t| t.relation() == rel && t.granularity() > 0)
            .copied()
            .collect();
        let pending: Vec<LockTarget> = ol
            .pending
            .matching(|t| t.relation() == rel && t.granularity() > 0);
        if published.is_empty() && pending.is_empty() {
            return;
        }
        let rel_t = LockTarget::Relation(rel);
        if published.is_empty() && self.batching() {
            if ol.pending.insert(rel_t) {
                let (fp, fs) = self.filter_slot_of(&rel_t);
                self.filter.add(fp, fs);
            }
            for v in pending {
                self.drop_pending(ol, v);
            }
        } else {
            {
                let mut mg = self.lock_targets(published.iter().copied().chain([rel_t]));
                Self::insert_locked(mg.map(self.partition_of(&rel_t)), ol, owner, rel_t);
                for v in published {
                    Self::remove_locked(mg.map(self.partition_of(&v)), ol, owner, v);
                }
            }
            for v in pending {
                self.drop_pending(ol, v);
            }
        }
        self.promotions.bump();
    }

    /// Check a write against SIREAD locks at every granularity, coarsest first
    /// (§5.2.1). `chain` must come from [`LockTarget::check_chain`]. All of the
    /// chain's partitions (at most two: the relation's and the page's) are held
    /// simultaneously, so a concurrent promotion can never hide a lock from the
    /// probe mid-move.
    ///
    /// In batched mode the presence filter is probed *before* the table: a
    /// hit force-publishes any pending batch covering the chain so the table
    /// probe that follows sees it. The filter-then-table order is load-bearing
    /// — a batch spilled concurrently decrements its filter slots only after
    /// the table insertion's partition mutex is released, so a writer cannot
    /// miss a read in both places (ordering proof in `readset.rs`).
    pub fn conflicting_holders(&self, chain: &[LockTarget], exclude: OwnerId) -> ConflictCheck {
        if self.batching() {
            self.filter_probes.bump();
            let hit = chain.iter().any(|t| {
                let (fp, fs) = self.filter_slot_of(t);
                self.filter.may_contain(fp, fs)
            });
            if hit {
                self.filter_hits.bump();
                self.force_publish_readers(chain, exclude);
            }
        }
        let mut mg = self.lock_targets(chain.iter().copied());
        let mut result = ConflictCheck::default();
        for t in chain {
            if let Some(h) = mg.map(self.partition_of(t)).get(t) {
                for &o in &h.owners {
                    // A target rarely has more than a couple of holders:
                    // linear dedup beats hashing them.
                    if o != exclude && !result.owners.contains(&o) {
                        result.owners.push(o);
                    }
                }
                if let Some(csn) = h.old_committed_csn {
                    result.old_committed_csn = Some(
                        result
                            .old_committed_csn
                            .map_or(csn, |c: CommitSeqNo| c.max(csn)),
                    );
                }
            }
        }
        result
    }

    /// A writer's filter probe hit: walk the owner directory and force-publish
    /// the pending batch of every owner whose unpublished read set covers an
    /// element of the writer's check chain, so the table probe that follows
    /// reports the rw-antidependency. No partition mutex is held during the
    /// walk (lock order: owner mutex before partition mutexes); an owner that
    /// spills or releases concurrently is simply found already empty. A reader
    /// that accumulates *after* the walk visited it is a read the storage
    /// latches ordered after this write — not ours to report.
    fn force_publish_readers(&self, chain: &[LockTarget], exclude: OwnerId) {
        for (o, ol_ref) in self.all_owners() {
            if o == exclude {
                continue;
            }
            let mut ol = lock_owner(&ol_ref);
            if ol.released || ol.pending.is_empty() {
                continue;
            }
            if ol.pending.covers_any(chain) {
                self.publish_pending_locked(&mut ol, o);
                self.forced_publishes.bump();
            }
        }
    }

    /// The most recent summarized (dummy-owned) csn covering any target in
    /// `chain`, with all chain partitions held at once. The SSI core uses this
    /// to re-check, under its graph lock, for §6.2 consolidation that raced
    /// ahead of a pre-graph-lock [`SireadLockManager::conflicting_holders`]
    /// probe.
    pub fn summarized_csn(&self, chain: &[LockTarget]) -> Option<CommitSeqNo> {
        let mut mg = self.lock_targets(chain.iter().copied());
        let mut max = None;
        for t in chain {
            if let Some(h) = mg.map(self.partition_of(t)).get(t) {
                max = max.max(h.old_committed_csn);
            }
        }
        max
    }

    /// Drop the owner's lock on a specific target (the write-lock-drop
    /// optimization, §7.3: a transaction that later writes a tuple may drop its
    /// own SIREAD lock on it — except inside subtransactions, which the caller
    /// enforces).
    pub fn release_target_for(&self, owner: &OwnerHandle, target: LockTarget) {
        let mut ol = lock_owner(&owner.locks);
        if ol.released {
            return;
        }
        if ol.pending.contains(&target) {
            // Never published: no table entry, no partition mutex.
            self.drop_pending(&mut ol, target);
            return;
        }
        if !ol.targets.contains(&target) {
            return;
        }
        let mut part = self.lock_partition(self.partition_of(&target));
        Self::remove_locked(&mut part, &mut ol, owner.id, target);
    }

    /// [`SireadLockManager::release_target_for`] by owner id.
    pub fn release_target(&self, owner: OwnerId, target: LockTarget) {
        if let Some(h) = self.owner_handle(owner) {
            self.release_target_for(&h, target);
        }
    }

    /// Release every lock `owner` holds and forget the owner (abort, RO-safe
    /// downgrade, or post-cleanup release). The owner mutex is held across the
    /// partition pass, so anyone who observes the tombstone afterwards also
    /// observes the lock table already cleaned.
    pub fn release_owner(&self, owner: OwnerId) {
        let Some(ol_ref) = self.owners.write().remove(&owner) else {
            return;
        };
        let mut ol = lock_owner(&ol_ref);
        ol.released = true;
        self.flush_tallies_locked(&mut ol);
        // A never-published batch dies without touching a single partition —
        // the common exit for a short read-only transaction under batching.
        for t in ol.pending.drain() {
            let (fp, fs) = self.filter_slot_of(&t);
            self.filter.remove(fp, fs);
        }
        let targets: Vec<LockTarget> = ol.targets.drain().collect();
        ol.tuples_per_page.clear();
        ol.pages_per_rel.clear();
        let mut mg = self.lock_targets(targets.iter().copied());
        for t in targets {
            let part = mg.map(self.partition_of(&t));
            if let Some(h) = part.get_mut(&t) {
                h.owners.remove(&owner);
                if h.is_empty() {
                    part.remove(&t);
                }
            }
        }
    }

    /// Summarize a committed owner (§6.2): every lock it holds is re-owned by the
    /// dummy [`OLD_COMMITTED_OWNER`], recording `commit_csn` as (at least) the
    /// most recent commit that held each target. The per-target csn lets later
    /// writers decide whether the unknown reader was concurrent. All affected
    /// partitions are held at once, so a concurrent probe sees either the live
    /// owner or the summarized csn — never neither; and the owner mutex is
    /// held across the whole pass, so any operation that synchronizes on it
    /// (e.g. [`SireadLockManager::on_page_split`]) observing the tombstone is
    /// guaranteed the csn fold has already completed.
    pub fn consolidate_owner(&self, owner: OwnerId, commit_csn: CommitSeqNo) {
        // The directory entry stays in place until the fold below completes:
        // a concurrent writer's filter hit may be walking the directory, and
        // removing the entry first would hide both the pending set *and* the
        // not-yet-folded csn from it.
        let Some(ol_ref) = self.owner_ref(owner) else {
            return;
        };
        {
            let mut ol = lock_owner(&ol_ref);
            if ol.released {
                return;
            }
            ol.released = true;
            self.flush_tallies_locked(&mut ol);
            let published: Vec<LockTarget> = ol.targets.drain().collect();
            let pending: Vec<LockTarget> = ol.pending.drain();
            ol.tuples_per_page.clear();
            ol.pages_per_rel.clear();
            {
                let mut mg = self.lock_targets(published.iter().chain(pending.iter()).copied());
                for &t in published.iter().chain(pending.iter()) {
                    let h = mg.map(self.partition_of(&t)).entry(t).or_default();
                    h.owners.remove(&owner);
                    if h.old_committed_csn.is_none() {
                        self.summarized_targets.fetch_add(1, Ordering::Relaxed);
                    }
                    h.old_committed_csn = Some(
                        h.old_committed_csn
                            .map_or(commit_csn, |c| c.max(commit_csn)),
                    );
                }
            }
            // Filter counts drop only after the csn fold is visible in the
            // table — same insert-then-decrement discipline as a spill.
            for t in &pending {
                let (fp, fs) = self.filter_slot_of(t);
                self.filter.remove(fp, fs);
            }
        }
        self.owners.write().remove(&owner);
    }

    /// Drop summarized (dummy-owned) locks whose recorded commit preceded `csn`
    /// — no active transaction can be concurrent with them anymore (§6.1).
    /// Partitions are swept one at a time; each removal is independent.
    pub fn drop_old_committed_before(&self, csn: CommitSeqNo) {
        // Fast path: the summarized-entry count is exact (every None↔Some
        // transition happens under a partition mutex), so when nothing is
        // summarized — the common case when cleanup keeps up — this
        // per-commit sweep takes no partition mutex at all. A relaxed read
        // racing a concurrent fold may skip one round; the next commit's
        // sweep picks the entry up.
        if self.summarized_targets.load(Ordering::Relaxed) == 0 {
            return;
        }
        for idx in 0..PARTITIONS {
            let mut part = self.lock_partition(idx);
            part.retain(|_, h| {
                if let Some(c) = h.old_committed_csn {
                    if c < csn {
                        h.old_committed_csn = None;
                        self.summarized_targets.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                !h.is_empty()
            });
        }
    }

    /// Copy all SIREAD locks on an index page that split to the new right page
    /// (PostgreSQL's `PredicateLockPageSplit`), so gap coverage survives. The
    /// index layer holds its page latch across the split, so no new lock on the
    /// old page can race with the copy.
    pub fn on_page_split(&self, rel: RelId, old_page: PageNo, new_page: PageNo) {
        let old_t = LockTarget::Page(rel, old_page);
        let new_t = LockTarget::Page(rel, new_page);
        let holders: Vec<OwnerId> = {
            let part = self.lock_partition(self.partition_of(&old_t));
            match part.get(&old_t) {
                Some(h) => h.owners.iter().copied().collect(),
                // In eager mode, no entry means no live holder and no
                // summarized csn — and any in-flight consolidation of a holder
                // would still show the holder here (the fold replaces it
                // atomically). In batched mode a holder (or a just-folded csn)
                // may exist only in some owner's pending set, so the walk and
                // the csn re-read below must still run.
                None if !self.batching() => return,
                None => Vec::new(),
            }
        };
        for o in holders {
            // Owner lock before partition lock, per the lock order; an owner
            // released in between is simply skipped (its locks no longer
            // matter — and if it was *consolidated*, its csn is folded into the
            // old page before the tombstone becomes visible, so the csn copy
            // below picks it up). Direct insert: split copies must not trigger
            // promotion (they must keep covering the gap precisely).
            let Some(ol_ref) = self.owner_ref(o) else {
                continue;
            };
            let mut ol = lock_owner(&ol_ref);
            if ol.released || ol.targets.contains(&new_t) {
                continue;
            }
            let mut part = self.lock_partition(self.partition_of(&new_t));
            Self::insert_locked(&mut part, &mut ol, o, new_t);
        }
        if self.batching() {
            // Unpublished read sets cover index gaps too: copy pending
            // old-page targets into their owners' pending sets. The copy
            // stays pending (the filter keeps it writer-visible), exactly as
            // the published copy stays published.
            for (_, ol_ref) in self.all_owners() {
                let mut ol = lock_owner(&ol_ref);
                if ol.released || !ol.pending.contains(&old_t) {
                    continue;
                }
                if ol.targets.contains(&new_t) || ol.pending.contains(&new_t) {
                    continue;
                }
                let (fp, fs) = self.filter_slot_of(&new_t);
                self.filter.add(fp, fs);
                Self::count_insert(&mut ol, new_t);
                ol.pending.insert(new_t);
            }
        }
        // Copy the summarized csn *after* the owner loop, re-reading it with
        // both pages' partitions held at once: a holder consolidated while the
        // loop ran was either copied first (the fold then covers the new page
        // too, since the copy is in its target set) or skipped via the
        // tombstone — in which case the fold into the old page has already
        // completed (consolidate_owner holds the owner mutex throughout), and
        // this re-read transfers it. The stale pre-loop value would miss it.
        let mut mg = self.lock_targets([old_t, new_t]);
        let old_csn = mg
            .map(self.partition_of(&old_t))
            .get(&old_t)
            .and_then(|h| h.old_committed_csn);
        if let Some(csn) = old_csn {
            let h = mg.map(self.partition_of(&new_t)).entry(new_t).or_default();
            if h.old_committed_csn.is_none() {
                self.summarized_targets.fetch_add(1, Ordering::Relaxed);
            }
            h.old_committed_csn = Some(h.old_committed_csn.map_or(csn, |c| c.max(csn)));
        }
    }

    /// Promote every owner's page/tuple locks on `rel` to relation granularity:
    /// used when DDL invalidates physical addressing — table rewrites move tuples,
    /// index drops invalidate gap locks (§5.2.1). `replacement_rel` is the
    /// relation the promoted lock should name (for an index drop, the heap
    /// relation; otherwise `rel` itself). Owners are promoted one at a time;
    /// the summarized-lock fold at the end holds every partition at once so the
    /// csn is never invisible at both granularities.
    pub fn promote_relation(&self, rel: RelId, replacement_rel: RelId) {
        let repl_t = LockTarget::Relation(replacement_rel);
        for (o, ol_ref) in self.all_owners() {
            let mut ol = lock_owner(&ol_ref);
            if ol.released {
                continue;
            }
            let victims: Vec<LockTarget> = ol
                .targets
                .iter()
                .filter(|t| t.relation() == rel && t.granularity() > 0)
                .copied()
                .collect();
            let pending_victims: Vec<LockTarget> = ol
                .pending
                .matching(|t| t.relation() == rel && t.granularity() > 0);
            if victims.is_empty() && pending_victims.is_empty() {
                continue;
            }
            // DDL is rare: always publish the promoted relation lock rather
            // than keeping it pending.
            {
                let mut mg = self.lock_targets(victims.iter().copied().chain([repl_t]));
                Self::insert_locked(mg.map(self.partition_of(&repl_t)), &mut ol, o, repl_t);
                for v in victims {
                    Self::remove_locked(mg.map(self.partition_of(&v)), &mut ol, o, v);
                }
            }
            if ol.pending.remove(&repl_t) {
                // The replacement relation target was itself pending (possible
                // on an index drop, where it names the heap relation) and has
                // just been published above — retire its filter count.
                let (fp, fs) = self.filter_slot_of(&repl_t);
                self.filter.remove(fp, fs);
            }
            for v in pending_victims {
                self.drop_pending(&mut ol, v);
            }
            self.promotions.bump();
        }
        // Summarized locks on the relation get folded into a relation-level
        // dummy lock as well.
        let mut mg = self.lock_all();
        let mut max_csn: Option<CommitSeqNo> = None;
        for (_, part) in mg.guards.iter_mut() {
            let stale: Vec<LockTarget> = part
                .iter()
                .filter(|(t, h)| {
                    t.relation() == rel && t.granularity() > 0 && h.old_committed_csn.is_some()
                })
                .map(|(t, _)| *t)
                .collect();
            for t in stale {
                if let Some(h) = part.get_mut(&t) {
                    max_csn = max_csn.max(h.old_committed_csn);
                    h.old_committed_csn = None;
                    self.summarized_targets.fetch_sub(1, Ordering::Relaxed);
                    if h.is_empty() {
                        part.remove(&t);
                    }
                }
            }
        }
        if let Some(csn) = max_csn {
            let h = mg
                .map(self.partition_of(&repl_t))
                .entry(repl_t)
                .or_default();
            if h.old_committed_csn.is_none() {
                self.summarized_targets.fetch_add(1, Ordering::Relaxed);
            }
            h.old_committed_csn = Some(h.old_committed_csn.map_or(csn, |c| c.max(csn)));
        }
    }

    /// Targets currently held by `owner`, published and pending alike
    /// (two-phase commit persistence, tests).
    pub fn held_targets(&self, owner: OwnerId) -> Vec<LockTarget> {
        self.owner_ref(owner)
            .map(|r| {
                let ol = lock_owner(&r);
                ol.targets
                    .iter()
                    .chain(ol.pending.iter())
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of locks held by `owner`, published and pending alike.
    pub fn owner_lock_count(&self, owner: OwnerId) -> usize {
        self.owner_ref(owner)
            .map(|r| lock_owner(&r).held())
            .unwrap_or(0)
    }

    /// Number of `owner`'s targets still pending (unpublished) — tests, stats.
    pub fn owner_pending_count(&self, owner: OwnerId) -> usize {
        self.owner_ref(owner)
            .map(|r| lock_owner(&r).pending.len())
            .unwrap_or(0)
    }

    /// Total pending count across the presence filter (leak assertions: zero
    /// whenever no transaction has an unpublished batch).
    pub fn filter_pending_total(&self) -> u64 {
        self.filter.total()
    }

    /// Total number of lock targets in the table (bounded-memory assertions).
    pub fn total_lock_count(&self) -> usize {
        let mg = self.lock_all();
        mg.guards.iter().map(|(_, p)| p.len()).sum()
    }

    /// Per-partition counter snapshot, in partition-index order.
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.partitions
            .iter()
            .map(|slot| PartitionStats {
                locks: sim::lock_cooperatively(
                    sim::Site::LockSpin,
                    || slot.locks.try_lock(),
                    || slot.locks.lock(),
                )
                .len(),
                taken: slot.taken.get(),
                contended: slot.contended.get(),
            })
            .collect()
    }

    /// Total partition-mutex contention events across the table.
    pub fn contention_total(&self) -> u64 {
        self.partitions.iter().map(|s| s.contended.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SireadLockManager {
        SireadLockManager::new(SsiConfig::default())
    }

    fn tiny_mgr() -> SireadLockManager {
        SireadLockManager::new(SsiConfig {
            promote_tuple_threshold: 2,
            promote_page_threshold: 2,
            max_predicate_locks_per_txn: 100,
            ..SsiConfig::default()
        })
    }

    const R: RelId = RelId(1);

    #[test]
    fn acquire_and_detect_conflict_at_each_granularity() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 5));
        let chain = LockTarget::Tuple(R, 0, 5).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
        // Different tuple on the same page: no conflict.
        let other = LockTarget::Tuple(R, 0, 6).check_chain();
        assert!(m.conflicting_holders(&other, 2).owners.is_empty());
        // Writer is the reader itself: excluded.
        assert!(m.conflicting_holders(&chain, 1).owners.is_empty());
    }

    #[test]
    fn page_lock_covers_tuples() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(R, 3));
        let chain = LockTarget::Tuple(R, 3, 0).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
    }

    #[test]
    fn covered_acquisition_is_a_noop() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Relation(R));
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.acquire(1, LockTarget::Page(R, 9));
        assert_eq!(m.owner_lock_count(1), 1, "relation lock covers everything");
    }

    #[test]
    fn tuple_locks_promote_to_page() {
        let m = tiny_mgr();
        m.register_owner(1);
        for s in 0..3 {
            m.acquire(1, LockTarget::Tuple(R, 0, s));
        }
        let held = m.held_targets(1);
        assert_eq!(held, vec![LockTarget::Page(R, 0)]);
        assert!(m.promotions.get() >= 1);
        // Old tuples still covered via the page lock.
        let chain = LockTarget::Tuple(R, 0, 1).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
    }

    #[test]
    fn page_locks_promote_to_relation() {
        let m = tiny_mgr();
        m.register_owner(1);
        for p in 0..3 {
            m.acquire(1, LockTarget::Page(R, p));
        }
        assert_eq!(m.held_targets(1), vec![LockTarget::Relation(R)]);
    }

    #[test]
    fn owner_cap_promotes_busiest_relation() {
        let m = SireadLockManager::new(SsiConfig {
            promote_tuple_threshold: 1000,
            promote_page_threshold: 1000,
            max_predicate_locks_per_txn: 5,
            ..SsiConfig::default()
        });
        m.register_owner(1);
        for s in 0..4 {
            m.acquire(1, LockTarget::Tuple(R, s as PageNo, 0));
        }
        m.acquire(1, LockTarget::Tuple(RelId(2), 0, 0));
        // Sixth lock exceeds the cap of 5; relation 1 (4 locks) is promoted.
        m.acquire(1, LockTarget::Tuple(RelId(2), 1, 0));
        let held = m.held_targets(1);
        assert!(held.contains(&LockTarget::Relation(R)), "{held:?}");
        assert!(m.owner_lock_count(1) <= 5);
    }

    #[test]
    fn release_owner_clears_table() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.acquire(1, LockTarget::Page(R, 1));
        m.release_owner(1);
        assert_eq!(m.total_lock_count(), 0);
        let chain = LockTarget::Tuple(R, 0, 0).check_chain();
        assert!(m.conflicting_holders(&chain, 2).owners.is_empty());
    }

    #[test]
    fn release_target_write_lock_drop_optimization() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.release_target(1, LockTarget::Tuple(R, 0, 0));
        assert_eq!(m.owner_lock_count(1), 0);
        // Releasing an unheld target is harmless.
        m.release_target(1, LockTarget::Tuple(R, 0, 1));
    }

    #[test]
    fn consolidation_keeps_conflicts_detectable_with_csn() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.consolidate_owner(1, CommitSeqNo(10));
        let chain = LockTarget::Tuple(R, 0, 0).check_chain();
        let check = m.conflicting_holders(&chain, 2);
        assert!(check.owners.is_empty());
        assert_eq!(check.old_committed_csn, Some(CommitSeqNo(10)));
    }

    #[test]
    fn consolidation_records_max_csn_per_target() {
        let m = mgr();
        m.register_owner(1);
        m.register_owner(2);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.acquire(2, LockTarget::Tuple(R, 0, 0));
        m.consolidate_owner(1, CommitSeqNo(10));
        m.consolidate_owner(2, CommitSeqNo(7));
        let check = m.conflicting_holders(&LockTarget::Tuple(R, 0, 0).check_chain(), 3);
        assert_eq!(check.old_committed_csn, Some(CommitSeqNo(10)), "max wins");
    }

    #[test]
    fn old_committed_cleanup_by_horizon() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.consolidate_owner(1, CommitSeqNo(10));
        m.drop_old_committed_before(CommitSeqNo(10));
        assert_eq!(m.total_lock_count(), 1, "csn 10 is not < 10");
        m.drop_old_committed_before(CommitSeqNo(11));
        assert_eq!(m.total_lock_count(), 0);
    }

    #[test]
    fn page_split_copies_locks() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(R, 4));
        m.on_page_split(R, 4, 9);
        let chain = LockTarget::Tuple(R, 9, 0).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
        assert_eq!(m.owner_lock_count(1), 2);
    }

    #[test]
    fn page_split_copies_summarized_csn() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(R, 4));
        m.consolidate_owner(1, CommitSeqNo(3));
        m.on_page_split(R, 4, 9);
        let check = m.conflicting_holders(&LockTarget::Page(R, 9).check_chain(), 2);
        assert_eq!(check.old_committed_csn, Some(CommitSeqNo(3)));
    }

    #[test]
    fn ddl_promotion_moves_fine_locks_to_relation() {
        let m = mgr();
        m.register_owner(1);
        m.register_owner(2);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.acquire(2, LockTarget::Page(R, 3));
        m.promote_relation(R, R);
        assert_eq!(m.held_targets(1), vec![LockTarget::Relation(R)]);
        assert_eq!(m.held_targets(2), vec![LockTarget::Relation(R)]);
    }

    #[test]
    fn index_drop_promotes_to_heap_relation() {
        let m = mgr();
        let index_rel = RelId(11);
        let heap_rel = RelId(1);
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(index_rel, 0));
        m.promote_relation(index_rel, heap_rel);
        assert_eq!(m.held_targets(1), vec![LockTarget::Relation(heap_rel)]);
        // A heap write now conflicts even though the index is gone.
        let chain = LockTarget::Tuple(heap_rel, 7, 7).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
    }

    #[test]
    fn multiple_holders_reported_once_each() {
        let m = mgr();
        for o in 1..=3 {
            m.register_owner(o);
            m.acquire(o, LockTarget::Tuple(R, 0, 0));
            m.acquire(o, LockTarget::Page(R, 0));
        }
        let mut owners = m
            .conflicting_holders(&LockTarget::Tuple(R, 0, 0).check_chain(), 99)
            .owners;
        owners.sort();
        assert_eq!(owners, vec![1, 2, 3]);
    }

    #[test]
    fn page_and_its_tuples_share_a_partition() {
        let m = mgr();
        for p in 0..32 {
            let page = m.partition_of(&LockTarget::Page(R, p));
            for s in 0..8 {
                assert_eq!(page, m.partition_of(&LockTarget::Tuple(R, p, s)));
            }
        }
    }

    #[test]
    fn targets_spread_across_partitions() {
        let m = mgr();
        let used: std::collections::HashSet<usize> = (0..256)
            .map(|p| m.partition_of(&LockTarget::Page(R, p)))
            .collect();
        assert!(
            used.len() > 8,
            "pages hash to only {} partitions",
            used.len()
        );
    }

    #[test]
    fn acquire_after_release_is_a_noop() {
        let m = mgr();
        m.register_owner(1);
        m.release_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        assert_eq!(m.total_lock_count(), 0, "released owner cannot re-acquire");
    }

    #[test]
    fn partition_stats_count_taken_mutexes() {
        // Eager mode: each acquisition takes its partition mutex immediately.
        let m = SireadLockManager::new(SsiConfig {
            read_batch: 1,
            ..SsiConfig::default()
        });
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        let stats = m.partition_stats();
        assert_eq!(stats.len(), PARTITIONS);
        assert!(stats.iter().map(|s| s.taken).sum::<u64>() > 0);
        assert_eq!(stats.iter().map(|s| s.locks).sum::<usize>(), 1);
        assert_eq!(m.contention_total(), 0, "single thread never contends");
    }

    #[test]
    fn batched_reads_stay_local_until_boundary() {
        let m = SireadLockManager::new(SsiConfig {
            read_batch: 4,
            ..SsiConfig::default()
        });
        let h = m.register_owner(1);
        for s in 0..3 {
            m.acquire_for(&h, LockTarget::Tuple(R, 0, s));
        }
        assert_eq!(
            m.total_lock_count(),
            0,
            "below the boundary nothing is published"
        );
        assert_eq!(m.owner_pending_count(1), 3);
        assert_eq!(m.owner_lock_count(1), 3);
        assert_eq!(m.local_accumulated.get(), 0, "tallied in the owner record");
        m.flush_tallies(&h);
        assert_eq!(m.local_accumulated.get(), 3);
        // The fourth read fills the batch and spills everything at once.
        m.acquire_for(&h, LockTarget::Tuple(R, 1, 0));
        assert_eq!(m.total_lock_count(), 4);
        assert_eq!(m.owner_pending_count(1), 0);
        m.flush_tallies(&h);
        assert_eq!(m.batches_published.get(), 1);
        assert_eq!(m.acquisitions.get(), 4);
        assert_eq!(m.filter_pending_total(), 0);
    }

    #[test]
    fn writer_filter_hit_forces_pending_publication() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 5));
        assert_eq!(m.total_lock_count(), 0);
        let check = m.conflicting_holders(&LockTarget::Tuple(R, 0, 5).check_chain(), 2);
        assert_eq!(check.owners, vec![1]);
        assert!(m.filter_probes.get() >= 1);
        assert!(m.filter_hits.get() >= 1);
        assert_eq!(m.forced_publishes.get(), 1);
        assert_eq!(m.owner_pending_count(1), 0, "batch was force-published");
    }

    #[test]
    fn explicit_publish_pending_flushes_batch() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(R, 2));
        assert_eq!(m.publish_pending(1), 1);
        assert_eq!(m.total_lock_count(), 1);
        assert_eq!(m.publish_pending(1), 0, "second flush finds nothing");
        assert_eq!(m.filter_pending_total(), 0);
    }

    #[test]
    fn filter_clears_when_pending_batches_resolve() {
        let m = mgr();
        m.register_owner(1);
        m.register_owner(2);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        m.acquire(2, LockTarget::Tuple(R, 7, 3));
        m.release_owner(1);
        m.publish_pending(2);
        assert_eq!(m.filter_pending_total(), 0);
        m.release_target(2, LockTarget::Tuple(R, 7, 3));
        assert_eq!(m.owner_lock_count(2), 0);
    }

    #[test]
    fn eager_mode_skips_filter_machinery() {
        let m = SireadLockManager::new(SsiConfig {
            read_batch: 1,
            ..SsiConfig::default()
        });
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0));
        assert_eq!(m.total_lock_count(), 1, "published immediately");
        let _ = m.conflicting_holders(&LockTarget::Tuple(R, 0, 0).check_chain(), 2);
        assert_eq!(m.filter_probes.get(), 0);
        m.release_owner(1);
        assert_eq!(m.local_accumulated.get(), 0);
        assert_eq!(m.acquisitions.get(), 1);
    }

    #[test]
    fn mixed_published_pending_promotion_keeps_coverage() {
        let m = SireadLockManager::new(SsiConfig {
            promote_tuple_threshold: 4,
            read_batch: 3,
            ..SsiConfig::default()
        });
        m.register_owner(1);
        // The first three tuples spill at the batch bound (published)...
        for s in 0..3 {
            m.acquire(1, LockTarget::Tuple(R, 0, s));
        }
        assert_eq!(m.total_lock_count(), 3);
        // ...two more stay pending; the fifth crosses the tuple threshold and
        // promotes a mix of published and pending victims into one page lock.
        for s in 3..5 {
            m.acquire(1, LockTarget::Tuple(R, 0, s));
        }
        assert_eq!(m.held_targets(1), vec![LockTarget::Page(R, 0)]);
        let check = m.conflicting_holders(&LockTarget::Tuple(R, 0, 4).check_chain(), 2);
        assert_eq!(check.owners, vec![1]);
        assert_eq!(m.filter_pending_total(), 0);
    }

    #[test]
    fn consolidation_folds_pending_targets() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Tuple(R, 0, 0)); // stays pending
        m.consolidate_owner(1, CommitSeqNo(5));
        let check = m.conflicting_holders(&LockTarget::Tuple(R, 0, 0).check_chain(), 2);
        assert_eq!(check.old_committed_csn, Some(CommitSeqNo(5)));
        assert_eq!(m.filter_pending_total(), 0);
        m.drop_old_committed_before(CommitSeqNo(6));
        assert_eq!(m.total_lock_count(), 0);
    }

    #[test]
    fn horizon_sweep_skips_partitions_when_nothing_summarized() {
        let m = mgr();
        let before: u64 = m.partition_stats().iter().map(|s| s.taken).sum();
        m.drop_old_committed_before(CommitSeqNo(100));
        let after: u64 = m.partition_stats().iter().map(|s| s.taken).sum();
        assert_eq!(before, after, "empty sweep takes no partition mutex");
    }

    #[test]
    fn page_split_copies_pending_locks() {
        let m = mgr();
        m.register_owner(1);
        m.acquire(1, LockTarget::Page(R, 4)); // stays pending
        m.on_page_split(R, 4, 9);
        assert_eq!(m.owner_lock_count(1), 2);
        assert_eq!(m.owner_pending_count(1), 2, "the copy stays pending too");
        // A write to the new page finds the pending copy via the filter.
        let chain = LockTarget::Tuple(R, 9, 0).check_chain();
        assert_eq!(m.conflicting_holders(&chain, 2).owners, vec![1]);
    }
}
