//! A grow-only table whose cells are each written once and read without locks.
//!
//! Commit-log segments and heap pages are both created once, never moved and
//! never dropped before their owner, and both sit under every visibility check.
//! A lookup here is two loads of cells that are never written again, so readers
//! on different cores share the cache lines instead of trading them (which a
//! reader-writer lock around a `Vec<Arc<_>>` makes them do, twice per lookup).

use std::sync::OnceLock;

const LEAF_BITS: usize = 10;
const LEAF_SIZE: usize = 1 << LEAF_BITS;
const LEAVES: usize = 1 << 12;

type Leaf<T> = Box<[OnceLock<T>]>;

fn cells<C>(n: usize) -> Box<[OnceLock<C>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Table of up to 2^22 cells, indexed from zero.
pub(crate) struct OnceTable<T> {
    leaves: Box<[OnceLock<Leaf<T>>]>,
}

impl<T> OnceTable<T> {
    pub(crate) fn new() -> OnceTable<T> {
        OnceTable {
            leaves: cells(LEAVES),
        }
    }

    /// The cell at `index`, if it has been created.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        let leaf = self.leaves.get(index >> LEAF_BITS)?.get()?;
        leaf[index & (LEAF_SIZE - 1)].get()
    }

    /// The cell at `index`, created with `make` if this is its first use.
    /// Panics past the table's capacity.
    pub(crate) fn get_or_init(&self, index: usize, make: impl FnOnce() -> T) -> &T {
        let leaf = self
            .leaves
            .get(index >> LEAF_BITS)
            .expect("OnceTable capacity exceeded")
            .get_or_init(|| cells(LEAF_SIZE));
        leaf[index & (LEAF_SIZE - 1)].get_or_init(make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_appear_once_and_stay_put() {
        let t: OnceTable<u64> = OnceTable::new();
        assert!(t.get(0).is_none());
        assert!(t.get(usize::MAX).is_none());
        let far = 3 * LEAF_SIZE + 7;
        let first = t.get_or_init(far, || 1) as *const u64;
        assert_eq!(*t.get_or_init(far, || 2), 1, "second init is ignored");
        assert_eq!(t.get(far).map(|c| c as *const u64), Some(first));
        assert!(t.get(far - 1).is_none());
    }
}
