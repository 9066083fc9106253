//! Model-based property tests: the B+-tree must behave exactly like an ordered map
//! of `(Key, TupleId)` pairs, and its gap-lock reporting must satisfy the phantom
//! coverage property the SSI lock manager depends on.

use std::collections::BTreeSet;
use std::ops::Bound;

use pgssi_common::{row, Key, PageNo, RelId, TupleId};
use pgssi_index::BTreeIndex;
use proptest::prelude::*;

fn key(i: i64) -> Key {
    row![i]
}

fn tid(n: u32) -> TupleId {
    TupleId::new(n / 64, (n % 64) as u16)
}

#[derive(Clone, Debug)]
enum Op {
    Insert(i64, u32),
    Remove(i64, u32),
    Search(i64),
    Range(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-50i64..50, 0u32..100).prop_map(|(k, t)| Op::Insert(k, t)),
        1 => (-50i64..50, 0u32..100).prop_map(|(k, t)| Op::Remove(k, t)),
        1 => (-50i64..50).prop_map(Op::Search),
        1 => (-50i64..50, -50i64..50).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let idx = BTreeIndex::new(RelId(1));
        let mut model: BTreeSet<(Key, TupleId)> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(k, t) => {
                    idx.insert(key(k), tid(t));
                    model.insert((key(k), tid(t)));
                }
                Op::Remove(k, t) => {
                    let removed = idx.remove(&key(k), tid(t));
                    let model_removed = model.remove(&(key(k), tid(t)));
                    prop_assert_eq!(removed, model_removed);
                }
                Op::Search(k) => {
                    let got: Vec<_> = idx.search(&key(k)).entries;
                    let want: Vec<_> = model
                        .iter()
                        .filter(|(mk, _)| *mk == key(k))
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Range(lo, hi) => {
                    let got: Vec<_> = idx
                        .range(Bound::Included(key(lo)), Bound::Included(key(hi)))
                        .entries;
                    let want: Vec<_> = model
                        .iter()
                        .filter(|(mk, _)| *mk >= key(lo) && *mk <= key(hi))
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(idx.len(), model.len());
        }
        // Final full-scan equivalence.
        let all: Vec<_> = idx.scan_all().entries;
        let want: Vec<_> = model.iter().cloned().collect();
        prop_assert_eq!(all, want);
    }

    /// Phantom coverage: after scanning a range, any later insert into that range
    /// must land on a scanned leaf page or on a page split off from one (the lock
    /// manager copies locks on splits, so that page counts as covered).
    #[test]
    fn phantom_coverage_property(
        preload in proptest::collection::btree_set(-1000i64..1000, 0..300),
        lo in -500i64..0,
        width in 1i64..500,
        inserts in proptest::collection::vec(-500i64..500, 1..80),
    ) {
        let hi = lo + width;
        let idx = BTreeIndex::new(RelId(1));
        for (n, k) in preload.iter().enumerate() {
            idx.insert(key(*k), tid(n as u32));
        }
        let scan = idx.range(Bound::Included(key(lo)), Bound::Included(key(hi)));
        let mut locked: BTreeSet<PageNo> = scan.leaf_pages.iter().copied().collect();
        for (n, k) in inserts.iter().enumerate() {
            let out = idx.insert(key(*k), tid(10_000 + n as u32));
            if let Some((old, new)) = out.leaf_split {
                if locked.contains(&old) {
                    locked.insert(new);
                }
            }
            if *k >= lo && *k <= hi {
                prop_assert!(
                    locked.contains(&out.leaf),
                    "phantom insert {} landed on unlocked page {}",
                    k,
                    out.leaf
                );
            }
        }
    }
}
