//! A page-structured B+-tree keyed by composite [`Key`]s.
//!
//! Entries are `(Key, TupleId)` pairs sorted lexicographically; duplicate keys are
//! allowed (uniqueness is an engine-level, MVCC-aware check), so internal separator
//! keys carry the full `(Key, TupleId)` pair and descents are exact even when one
//! key's duplicates span several leaves. Leaves are linked for range scans. Pages
//! never merge (deletes leave pages sparse), matching PostgreSQL B+-trees closely
//! enough for predicate-lock purposes — the paper's lock manager handles page
//! *splits* (locks are copied to the new page) but relies on relation promotion for
//! page combines, which we therefore never perform.
//!
//! Page numbers identify lock targets, so they are stable for the life of the tree
//! and are reported by every operation:
//! * [`BTreeIndex::range`] returns the leaf pages visited — the gap locks a reader
//!   needs for phantom protection;
//! * [`BTreeIndex::insert`] returns the leaf the entry landed on and, if that leaf
//!   split, the `(old, new)` pair the lock manager must copy locks across.
//!
//! Concurrency: one tree-wide `RwLock`. Operations are short (microseconds) and the
//! engine's own latching dominates; a lock-coupling protocol would complicate split
//! reporting for no benefit at this scale.

use std::ops::Bound;

use parking_lot::RwLock;
use pgssi_common::{Key, PageNo, RelId, TupleId};

/// Maximum entries per leaf / keys per internal node.
const ORDER: usize = 32;

/// Internal separator: the full entry identity, so descents are exact.
type Sep = (Key, TupleId);

#[derive(Debug)]
enum Node {
    Internal {
        /// `children[i]` holds entries `< keys[i]`; `children[keys.len()]` the rest.
        keys: Vec<Sep>,
        children: Vec<PageNo>,
    },
    Leaf {
        entries: Vec<(Key, TupleId)>,
        next: Option<PageNo>,
    },
}

struct Tree {
    nodes: Vec<Node>,
    root: PageNo,
}

/// Result of an insert: where the entry went, and whether a leaf split occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Leaf page now containing the new entry.
    pub leaf: PageNo,
    /// `(old_page, new_page)` if a leaf split happened during this insert. SIREAD
    /// locks held on `old_page` must be copied to `new_page`
    /// (PostgreSQL's `PredicateLockPageSplit`).
    pub leaf_split: Option<(PageNo, PageNo)>,
}

/// Result of a range scan: matching entries plus the leaf pages visited.
#[derive(Clone, Debug, Default)]
pub struct RangeScan {
    /// Matching `(key, tid)` entries in key order.
    pub entries: Vec<(Key, TupleId)>,
    /// Every leaf page examined, including the page covering an empty gap — these
    /// are the pages a serializable reader takes SIREAD locks on.
    pub leaf_pages: Vec<PageNo>,
}

/// A B+-tree index over one relation's rows.
pub struct BTreeIndex {
    rel: RelId,
    tree: RwLock<Tree>,
}

const MIN_TID: TupleId = TupleId { page: 0, slot: 0 };
const MAX_TID: TupleId = TupleId {
    page: u32::MAX,
    slot: u16::MAX,
};

impl BTreeIndex {
    /// Empty index identified (for lock targets) by relation id `rel`.
    pub fn new(rel: RelId) -> BTreeIndex {
        BTreeIndex {
            rel,
            tree: RwLock::new(Tree {
                nodes: vec![Node::Leaf {
                    entries: Vec::new(),
                    next: None,
                }],
                root: 0,
            }),
        }
    }

    /// The index's relation id (targets for its page locks).
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of entries (counts duplicates).
    pub fn len(&self) -> usize {
        let tree = self.tree.read();
        tree.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { entries, .. } => entries.len(),
                Node::Internal { .. } => 0,
            })
            .sum()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `(key, tid)`. Duplicates (same key, different tid) are allowed;
    /// re-inserting an identical `(key, tid)` pair is a no-op.
    pub fn insert(&self, key: Key, tid: TupleId) -> InsertOutcome {
        let mut tree = self.tree.write();
        let root = tree.root;
        let mut tracker = SplitTracker::default();
        let result = insert_rec(&mut tree, root, key, tid, &mut tracker);
        if let Some((sep, right)) = result {
            // Root split: grow the tree by one level.
            let old_root = tree.root;
            tree.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            tree.root = (tree.nodes.len() - 1) as PageNo;
        }
        InsertOutcome {
            leaf: tracker.landed.expect("insert must land somewhere"),
            leaf_split: tracker.leaf_split,
        }
    }

    /// Descend to the leaf that would hold the entry `(key, tid)`.
    fn descend(tree: &Tree, key: &Key, tid: TupleId) -> PageNo {
        let mut page = tree.root;
        loop {
            match &tree.nodes[page as usize] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|sep| (&sep.0, &sep.1) <= (key, &tid));
                    page = children[idx];
                }
                Node::Leaf { .. } => return page,
            }
        }
    }

    /// Remove `(key, tid)` if present (index vacuum). Returns whether an entry was
    /// removed. Pages are never merged.
    pub fn remove(&self, key: &Key, tid: TupleId) -> bool {
        let mut tree = self.tree.write();
        let page = Self::descend(&tree, key, tid);
        let Node::Leaf { entries, .. } = &mut tree.nodes[page as usize] else {
            unreachable!("descent ends at a leaf");
        };
        match entries.binary_search_by(|(k, t)| (k, t).cmp(&(key, &tid))) {
            Ok(pos) => {
                entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Exact-key lookup. Equivalent to `range(Included(key), Included(key))`.
    pub fn search(&self, key: &Key) -> RangeScan {
        self.range_hooked(Bound::Included(key), Bound::Included(key), &mut |_| {})
    }

    /// Scan the key range given by the bounds, returning matches and the leaf pages
    /// visited. An empty result still reports the leaf covering the gap, which is
    /// what makes phantom detection work (paper §5.2.1).
    pub fn range(&self, lo: Bound<Key>, hi: Bound<Key>) -> RangeScan {
        self.range_hooked(lo.as_ref(), hi.as_ref(), &mut |_| {})
    }

    /// [`BTreeIndex::range`] with an `on_leaf` hook invoked for every visited
    /// leaf **while the tree lock is held**. Serializable readers acquire their
    /// gap (page) SIREAD locks inside the hook: any insert is serialized behind
    /// the tree lock, so it either happened before this scan (and the scan sees
    /// the entry — MVCC-side conflict) or its conflict check runs after the
    /// lock is in place (lock-side conflict). The hook must not block.
    pub fn range_hooked(
        &self,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
        on_leaf: &mut dyn FnMut(PageNo),
    ) -> RangeScan {
        let tree = self.tree.read();
        let mut scan = RangeScan::default();

        // Descend to the leaf where the first in-range entry would live.
        let mut page = match lo {
            Bound::Included(k) => Self::descend(&tree, k, MIN_TID),
            Bound::Excluded(k) => Self::descend(&tree, k, MAX_TID),
            Bound::Unbounded => {
                let mut p = tree.root;
                loop {
                    match &tree.nodes[p as usize] {
                        Node::Internal { children, .. } => p = children[0],
                        Node::Leaf { .. } => break p,
                    }
                }
            }
        };

        let in_lo = |k: &Key| match lo {
            Bound::Included(b) => k >= b,
            Bound::Excluded(b) => k > b,
            Bound::Unbounded => true,
        };
        let in_hi = |k: &Key| match hi {
            Bound::Included(b) => k <= b,
            Bound::Excluded(b) => k < b,
            Bound::Unbounded => true,
        };

        loop {
            scan.leaf_pages.push(page);
            on_leaf(page);
            let Node::Leaf { entries, next } = &tree.nodes[page as usize] else {
                unreachable!("descent ends at a leaf");
            };
            let mut past_hi = false;
            // Entries are sorted by `(key, tid)`, so those below the lower
            // bound form a prefix: skip it by binary search.
            let start = entries.partition_point(|(k, _)| !in_lo(k));
            for (k, tid) in &entries[start..] {
                if !in_hi(k) {
                    past_hi = true;
                    break;
                }
                scan.entries.push((k.clone(), *tid));
            }
            if past_hi {
                break;
            }
            match next {
                Some(n) => page = *n,
                None => break,
            }
        }
        scan
    }

    /// All entries in key order (full index scan). Reports every leaf page.
    pub fn scan_all(&self) -> RangeScan {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Total number of pages (internal + leaf) allocated.
    pub fn page_count(&self) -> usize {
        self.tree.read().nodes.len()
    }
}

#[derive(Default)]
struct SplitTracker {
    landed: Option<PageNo>,
    leaf_split: Option<(PageNo, PageNo)>,
}

/// Recursive insert; returns `Some((separator, new_page))` when `page` split.
fn insert_rec(
    tree: &mut Tree,
    page: PageNo,
    key: Key,
    tid: TupleId,
    tracker: &mut SplitTracker,
) -> Option<(Sep, PageNo)> {
    match &mut tree.nodes[page as usize] {
        Node::Leaf { entries, .. } => {
            match entries.binary_search_by(|(k, t)| (k, t).cmp(&(&key, &tid))) {
                Ok(_) => {
                    tracker.landed = Some(page);
                    None // identical (key, tid) already present
                }
                Err(pos) => {
                    entries.insert(pos, (key, tid));
                    if entries.len() <= ORDER {
                        tracker.landed = Some(page);
                        None
                    } else {
                        // Leaf split: right half moves to a fresh page.
                        let mid = entries.len() / 2;
                        let right_entries = entries.split_off(mid);
                        let sep = right_entries[0].clone();
                        let landed_right = pos >= mid;
                        let new_page = tree.nodes.len() as PageNo;
                        let Node::Leaf { next, .. } = &mut tree.nodes[page as usize] else {
                            unreachable!();
                        };
                        let old_next = *next;
                        *next = Some(new_page);
                        tree.nodes.push(Node::Leaf {
                            entries: right_entries,
                            next: old_next,
                        });
                        tracker.landed = Some(if landed_right { new_page } else { page });
                        tracker.leaf_split = Some((page, new_page));
                        Some((sep, new_page))
                    }
                }
            }
        }
        Node::Internal { keys, children } => {
            let idx = keys.partition_point(|sep| (&sep.0, &sep.1) <= (&key, &tid));
            let child = children[idx];
            let (sep, new_child) = insert_rec(tree, child, key, tid, tracker)?;
            let Node::Internal { keys, children } = &mut tree.nodes[page as usize] else {
                unreachable!();
            };
            keys.insert(idx, sep);
            children.insert(idx + 1, new_child);
            if keys.len() <= ORDER {
                None
            } else {
                // Internal split: middle key moves up.
                let mid = keys.len() / 2;
                let up = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // remove `up`
                let right_children = children.split_off(mid + 1);
                let new_page = tree.nodes.len() as PageNo;
                tree.nodes.push(Node::Internal {
                    keys: right_keys,
                    children: right_children,
                });
                Some((up, new_page))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::row;

    fn tid(n: u32) -> TupleId {
        TupleId::new(n / 64, (n % 64) as u16)
    }

    fn int_key(i: i64) -> Key {
        row![i]
    }

    #[test]
    fn insert_search_remove_roundtrip() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..100 {
            idx.insert(int_key(i), tid(i as u32));
        }
        assert_eq!(idx.len(), 100);
        let hit = idx.search(&int_key(42));
        assert_eq!(hit.entries, vec![(int_key(42), tid(42))]);
        assert!(!hit.leaf_pages.is_empty());
        assert!(idx.remove(&int_key(42), tid(42)));
        assert!(!idx.remove(&int_key(42), tid(42)));
        assert!(idx.search(&int_key(42)).entries.is_empty());
        assert_eq!(idx.len(), 99);
    }

    #[test]
    fn miss_still_reports_gap_page() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..10 {
            idx.insert(int_key(i * 10), tid(i as u32));
        }
        let scan = idx.search(&int_key(55));
        assert!(scan.entries.is_empty());
        assert_eq!(
            scan.leaf_pages.len(),
            1,
            "the gap's covering leaf is locked"
        );
    }

    #[test]
    fn range_scan_matches_and_orders() {
        let idx = BTreeIndex::new(RelId(10));
        for i in (0..200).rev() {
            idx.insert(int_key(i), tid(i as u32));
        }
        let scan = idx.range(Bound::Included(int_key(50)), Bound::Excluded(int_key(60)));
        let keys: Vec<i64> = scan
            .entries
            .iter()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, (50..60).collect::<Vec<_>>());
    }

    #[test]
    fn excluded_lower_bound_skips_duplicates() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..5 {
            idx.insert(int_key(1), tid(i));
            idx.insert(int_key(2), tid(10 + i));
        }
        let scan = idx.range(Bound::Excluded(int_key(1)), Bound::Unbounded);
        assert_eq!(scan.entries.len(), 5);
        for (k, _) in &scan.entries {
            assert_eq!(k[0].as_int(), Some(2));
        }
    }

    #[test]
    fn unbounded_scan_returns_everything() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..500 {
            idx.insert(int_key((i * 37) % 500), tid(i as u32));
        }
        let scan = idx.scan_all();
        assert_eq!(scan.entries.len(), 500);
        let keys: Vec<i64> = scan
            .entries
            .iter()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(scan.leaf_pages.len() > 1, "tree must actually have split");
    }

    #[test]
    fn duplicates_share_a_key() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..5 {
            idx.insert(int_key(7), tid(i));
        }
        assert_eq!(idx.search(&int_key(7)).entries.len(), 5);
        assert!(idx.remove(&int_key(7), tid(3)));
        assert_eq!(idx.search(&int_key(7)).entries.len(), 4);
    }

    #[test]
    fn duplicate_key_tid_insert_is_noop() {
        let idx = BTreeIndex::new(RelId(10));
        idx.insert(int_key(1), tid(1));
        idx.insert(int_key(1), tid(1));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn splits_are_reported() {
        let idx = BTreeIndex::new(RelId(10));
        let mut saw_split = false;
        for i in 0..(ORDER as i64 + 1) {
            let out = idx.insert(int_key(i), tid(i as u32));
            if let Some((old, new)) = out.leaf_split {
                saw_split = true;
                assert_ne!(old, new);
                assert!(out.leaf == old || out.leaf == new);
            }
        }
        assert!(saw_split, "ORDER+1 inserts must split the root leaf");
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let idx = BTreeIndex::new(RelId(10));
        for w in 0..3i64 {
            for d in 0..3i64 {
                idx.insert(row![w, d], tid((w * 3 + d) as u32));
            }
        }
        // All districts of warehouse 1.
        let scan = idx.range(
            Bound::Included(row![1, i64::MIN]),
            Bound::Included(row![1, i64::MAX]),
        );
        assert_eq!(scan.entries.len(), 3);
        for (k, _) in &scan.entries {
            assert_eq!(k[0].as_int(), Some(1));
        }
    }

    /// The property that makes SSI phantom detection work: if a reader scanned a
    /// range and a writer later inserts a key inside that range, the insert lands on
    /// a leaf page the reader's scan reported — or on a page split off from one,
    /// which the lock manager handles by copying locks.
    #[test]
    fn phantom_insert_lands_on_scanned_or_split_page() {
        let idx = BTreeIndex::new(RelId(10));
        for i in 0..300 {
            idx.insert(int_key(i * 2), tid(i as u32)); // even keys
        }
        let scan = idx.range(Bound::Included(int_key(100)), Bound::Included(int_key(200)));
        let mut locked: Vec<PageNo> = scan.leaf_pages.clone();
        // Insert odd keys into the scanned range; track splits like the engine does.
        for (j, i) in (101..200).step_by(2).enumerate() {
            let out = idx.insert(int_key(i), tid(1000 + j as u32));
            if let Some((old, new)) = out.leaf_split {
                if locked.contains(&old) {
                    locked.push(new);
                }
            }
            assert!(
                locked.contains(&out.leaf),
                "insert of {i} landed on unlocked page {} (locked: {:?})",
                out.leaf,
                locked
            );
        }
    }

    #[test]
    fn remove_finds_duplicates_across_page_boundaries() {
        let idx = BTreeIndex::new(RelId(10));
        // Enough duplicates of one key to span multiple leaves.
        for i in 0..(ORDER as u32 * 3) {
            idx.insert(int_key(5), tid(i));
        }
        for i in 0..(ORDER as u32 * 3) {
            assert!(idx.remove(&int_key(5), tid(i)), "tid {i} must be found");
        }
        assert!(idx.is_empty());
    }
}
