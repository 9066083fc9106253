//! Transaction-local read sets and the shared presence filter (read-set
//! batching).
//!
//! Under SSI every read takes a SIREAD lock, and before batching every one of
//! those acquisitions locked a shared lock-table partition mutex — the dominant
//! per-read cost once the table itself is partitioned. Batching restructures
//! the read path around two pieces that live here:
//!
//! * [`TxReadSet`] — the *pending* (unpublished) portion of one transaction's
//!   read set. It is owned by the transaction's per-owner bookkeeping record
//!   and guarded only by that owner's mutex, which in the common case is
//!   touched by no thread but the owning one: accumulating a read is a
//!   transaction-local operation. Pending targets are published ("spilled")
//!   into the partitioned table in batches — at the batch-size boundary
//!   ([`pgssi_common::SsiConfig::read_batch`]), on the transaction's own first
//!   write, at two-phase `PREPARE`, and when a writer's filter probe forces it.
//!
//! * [`PresenceFilter`] — the writer-side safety net. A writer checking a
//!   target chain must not miss a read that is still sitting in some pending
//!   set, so every pending insertion counts into a shared per-partition array
//!   of relaxed atomic counters (a counting filter keyed by a secondary hash
//!   of the exact target). The filter has **no false negatives**: a pending
//!   target's counter is incremented before the read completes and is only
//!   decremented *after* the target has either been published to the partition
//!   table or ceased to matter (release). A writer that sees a zero counter
//!   for every element of its check chain can therefore trust the partition
//!   table alone; a non-zero counter (hit) sends it through the owner
//!   directory to force the matching pending batches out.
//!
//! ## Why relaxed ordering is enough
//!
//! The filter's increments and the writer's loads use `Relaxed` ordering; the
//! required happens-before comes from the same place the eager path got it:
//! the storage latches. A reader records its read targets while it holds the
//! page latch (or tree lock) it read under, and a writer calls `on_write`
//! after acquiring that same latch — so a read that truly preceded a write is
//! separated from the writer's probe by a latch release/acquire pair, which
//! makes the relaxed increment visible to the probe. Reads and writes that are
//! genuinely concurrent at the data level were never ordered in the eager
//! design either (the MVCC-visibility event path covers the
//! writer-came-first direction).
//!
//! For the publish race (pending bit cleared vs. table entry inserted), the
//! discipline is: **insert into the partition table first, decrement the
//! filter after** — and writers probe **the filter first, the table second**.
//! A writer that misses the filter bit for a spilled target can then only
//! acquire the partition mutex after the spill's insertion was released, so
//! the table probe finds it (see the proof sketch in DESIGN.md §6).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use pgssi_common::LockTarget;

/// Hasher for the lock manager's own maps. Their keys — [`LockTarget`]s,
/// `(relation, page)` pairs, relation and owner ids — are a few small
/// integers the engine itself assigned (physical addresses and dense
/// counters, never bytes from outside the program), so SipHash's flooding
/// resistance buys nothing here and costs most of a read's bookkeeping.
/// Each field is folded in with one rotate-xor-multiply; `finish` runs the
/// SplitMix64 finalizer so the table's bucket index (low bits) and control
/// byte (high bits) both see every input bit.
#[derive(Default, Clone, Copy)]
pub(crate) struct TargetHasher(u64);

impl TargetHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for TargetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.fold(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        crate::siread::spread(self.0)
    }
}

/// `HashMap` keyed through [`TargetHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<TargetHasher>>;
/// `HashSet` keyed through [`TargetHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<TargetHasher>>;

/// Number of counting-filter slots per lock-table partition. A secondary hash
/// of the exact target picks one slot; collisions only cause false positives
/// (a wasted owner-directory walk), never false negatives.
pub const FILTER_SLOTS: usize = 64;

/// The pending (accumulated-but-unpublished) part of one transaction's read
/// set. Stored inside the owner's SIREAD bookkeeping record and guarded by the
/// owner's mutex; the granularity-promotion counters stay in the owner record
/// and span published + pending targets, so promotion thresholds fire at
/// exactly the same points as the eager path.
#[derive(Default, Debug)]
pub struct TxReadSet {
    targets: FastSet<LockTarget>,
}

impl TxReadSet {
    /// Add a target. Returns `false` if it was already pending.
    pub fn insert(&mut self, t: LockTarget) -> bool {
        self.targets.insert(t)
    }

    /// Remove a target. Returns `true` if it was pending.
    pub fn remove(&mut self, t: &LockTarget) -> bool {
        self.targets.remove(t)
    }

    /// Is this exact target pending?
    pub fn contains(&self, t: &LockTarget) -> bool {
        self.targets.contains(t)
    }

    /// Number of pending targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterate the pending targets (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &LockTarget> {
        self.targets.iter()
    }

    /// Drain every pending target (publication, release).
    pub fn drain(&mut self) -> Vec<LockTarget> {
        self.targets.drain().collect()
    }

    /// Pending targets matching `pred` (promotion victim selection).
    pub fn matching(&self, mut pred: impl FnMut(&LockTarget) -> bool) -> Vec<LockTarget> {
        self.targets.iter().filter(|t| pred(t)).copied().collect()
    }

    /// Does any element of a writer's check chain appear in this pending set?
    /// The chain already enumerates every granularity a conflicting lock could
    /// be held at, so exact-membership tests suffice.
    pub fn covers_any(&self, chain: &[LockTarget]) -> bool {
        chain.iter().any(|t| self.targets.contains(t))
    }
}

/// One partition's share of the counting filter, cache-line aligned so
/// neighbouring partitions' counters never false-share.
#[repr(align(64))]
struct FilterPartition {
    slots: [AtomicU64; FILTER_SLOTS],
}

impl FilterPartition {
    fn new() -> FilterPartition {
        FilterPartition {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Shared counting presence filter over all pending read sets, one slot array
/// per lock-table partition. All operations are relaxed atomics — see the
/// module docs for why that is sufficient.
pub struct PresenceFilter {
    partitions: Box<[FilterPartition]>,
}

impl PresenceFilter {
    /// New filter for `partitions` lock-table partitions.
    pub fn new(partitions: usize) -> PresenceFilter {
        PresenceFilter {
            partitions: (0..partitions.max(1))
                .map(|_| FilterPartition::new())
                .collect(),
        }
    }

    /// Count a pending target into `(partition, slot)`.
    pub fn add(&self, partition: usize, slot: usize) {
        self.partitions[partition].slots[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Remove a pending target's count from `(partition, slot)`.
    pub fn remove(&self, partition: usize, slot: usize) {
        let prev = self.partitions[partition].slots[slot].fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "presence-filter underflow");
    }

    /// Might any pending target be counted in `(partition, slot)`? `false` is
    /// authoritative (no false negatives); `true` may be a collision.
    pub fn may_contain(&self, partition: usize, slot: usize) -> bool {
        self.partitions[partition].slots[slot].load(Ordering::Relaxed) > 0
    }

    /// Total pending count across the filter (tests, leak assertions).
    pub fn total(&self) -> u64 {
        self.partitions
            .iter()
            .flat_map(|p| p.slots.iter())
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::RelId;

    const R: RelId = RelId(1);

    #[test]
    fn readset_insert_remove_cover() {
        let mut rs = TxReadSet::default();
        let t = LockTarget::Tuple(R, 0, 5);
        assert!(rs.insert(t));
        assert!(!rs.insert(t), "duplicate insert is a no-op");
        assert!(rs.contains(&t));
        assert_eq!(rs.len(), 1);
        assert!(rs.covers_any(&t.check_chain()));
        assert!(!rs.covers_any(&LockTarget::Tuple(R, 0, 6).check_chain()));
        assert!(rs.remove(&t));
        assert!(rs.is_empty());
    }

    #[test]
    fn readset_page_entry_hits_tuple_chain() {
        let mut rs = TxReadSet::default();
        rs.insert(LockTarget::Page(R, 3));
        // A write to any tuple on page 3 probes the page target in its chain.
        assert!(rs.covers_any(&LockTarget::Tuple(R, 3, 9).check_chain()));
        assert!(!rs.covers_any(&LockTarget::Tuple(R, 4, 9).check_chain()));
    }

    #[test]
    fn readset_matching_and_drain() {
        let mut rs = TxReadSet::default();
        rs.insert(LockTarget::Tuple(R, 0, 0));
        rs.insert(LockTarget::Tuple(R, 0, 1));
        rs.insert(LockTarget::Page(R, 1));
        let tuples = rs.matching(|t| t.granularity() == 2);
        assert_eq!(tuples.len(), 2);
        let all = rs.drain();
        assert_eq!(all.len(), 3);
        assert!(rs.is_empty());
    }

    #[test]
    fn filter_counts_up_and_down() {
        let f = PresenceFilter::new(4);
        assert!(!f.may_contain(2, 7));
        f.add(2, 7);
        f.add(2, 7);
        assert!(f.may_contain(2, 7));
        assert!(!f.may_contain(2, 8));
        assert!(!f.may_contain(1, 7));
        f.remove(2, 7);
        assert!(f.may_contain(2, 7), "count of 2 survives one removal");
        f.remove(2, 7);
        assert!(!f.may_contain(2, 7));
        assert_eq!(f.total(), 0);
    }
}
