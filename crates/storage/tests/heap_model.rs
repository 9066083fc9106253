//! Model-based test of the slot-reusing heap.
//!
//! Slot reuse, redirect stubs and `xmin`-validated hops may change *where* a
//! version lives and how a reader gets to it, never *what* a snapshot sees. A
//! proptest drives insert / update / delete (committed, aborted, or left open) and
//! prune-with-reuse against a reference that knows nothing about pages: the
//! committed row values at the moment each retained snapshot was taken. It
//! asserts that
//!
//! * every retained snapshot reads exactly its reference rows before and after
//!   every prune — by chain walk from each root *and* by page scan, which must
//!   also agree with each other on the version's location;
//! * the page count of a steadily updated table stays within a fixed multiple of
//!   its live rows (4 × the pages the rows alone would fill), however many
//!   updates it has taken.

use std::collections::BTreeMap;

use pgssi_common::{row, RelId, Row, Snapshot, TupleId, TxnId, Value};
use pgssi_storage::{Heap, LockOutcome, SingleXid, TxnManager, TxnStatus, TUPLES_PER_PAGE};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Fate {
    Commit,
    Abort,
    /// Leave the transaction open; a later `Finish` decides.
    Open,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(Fate),
    Update(usize, Fate),
    Delete(usize, Fate),
    /// Commit (`true`) or abort the i-th open transaction.
    Finish(usize, bool),
    /// Retain a snapshot together with what it must read from now on.
    Snapshot,
    /// Drop the i-th retained snapshot.
    Release(usize),
    Prune,
}

fn fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        6 => Just(Fate::Commit),
        2 => Just(Fate::Abort),
        2 => Just(Fate::Open),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => fate().prop_map(Op::Insert),
        8 => (0usize..64, fate()).prop_map(|(i, f)| Op::Update(i, f)),
        1 => (0usize..64, fate()).prop_map(|(i, f)| Op::Delete(i, f)),
        3 => (0usize..8, any::<bool>()).prop_map(|(i, c)| Op::Finish(i, c)),
        2 => Just(Op::Snapshot),
        1 => (0usize..8).prop_map(Op::Release),
        3 => Just(Op::Prune),
    ]
}

/// What an open transaction will do to the reference when it commits.
struct Pending {
    xid: TxnId,
    row: usize,
    /// New value, or `None` for a delete.
    value: Option<i64>,
}

struct Retained {
    reader: TxnId,
    snapshot: Snapshot,
    /// Row number → value, for the rows this snapshot sees.
    expect: BTreeMap<usize, i64>,
}

struct World {
    heap: Heap,
    tm: TxnManager,
    /// Root of every row ever inserted (row number = index).
    roots: Vec<TupleId>,
    /// The reference: committed value of each live row.
    committed: BTreeMap<usize, i64>,
    open: Vec<Pending>,
    retained: Vec<Retained>,
    next_value: i64,
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("int column")
}

impl World {
    fn new() -> World {
        World {
            heap: Heap::new(RelId(1)),
            tm: TxnManager::new(),
            roots: Vec::new(),
            committed: BTreeMap::new(),
            open: Vec::new(),
            retained: Vec::new(),
            next_value: 0,
        }
    }

    fn fresh_value(&mut self) -> i64 {
        self.next_value += 1;
        self.next_value
    }

    fn locked(&self, row: usize) -> bool {
        self.open.iter().any(|p| p.row == row)
    }

    fn settle(&mut self, pending: Pending, fate: Fate) {
        match fate {
            Fate::Commit => {
                self.tm.commit(&[pending.xid]);
                match pending.value {
                    Some(v) => self.committed.insert(pending.row, v),
                    None => self.committed.remove(&pending.row),
                };
            }
            Fate::Abort => self.tm.abort(&[pending.xid]),
            Fate::Open => self.open.push(pending),
        }
    }

    fn insert(&mut self, fate: Fate) {
        let xid = self.tm.begin();
        let (row_no, value) = (self.roots.len(), self.fresh_value());
        let root = self.heap.insert(row![row_no as i64, value], xid);
        self.roots.push(root);
        self.settle(
            Pending {
                xid,
                row: row_no,
                value: Some(value),
            },
            fate,
        );
    }

    /// Update (`delete == false`) or delete the latest committed version of
    /// `row`, as a fresh transaction.
    fn write(&mut self, row: usize, delete: bool, fate: Fate) {
        if !self.committed.contains_key(&row) || self.locked(row) {
            return;
        }
        let xid = self.tm.begin();
        let snap = self.tm.snapshot();
        let own = SingleXid(xid);
        let read = self
            .heap
            .read_chain(self.roots[row], &snap, self.tm.clog(), &own, &mut |_| {});
        let (tid, _) = read.visible.expect("committed row is visible");
        assert_eq!(
            self.heap.try_lock_tuple(tid, xid, self.tm.clog(), &own),
            Some(LockOutcome::Locked)
        );
        let value = if delete {
            None
        } else {
            let v = self.fresh_value();
            self.heap.append_version(tid, row![row as i64, v], xid);
            Some(v)
        };
        self.settle(Pending { xid, row, value }, fate);
    }

    fn retain_snapshot(&mut self) {
        if self.retained.len() < 8 {
            let reader = self.tm.begin();
            self.retained.push(Retained {
                reader,
                snapshot: self.tm.snapshot(),
                expect: self.committed.clone(),
            });
        }
    }

    fn release(&mut self, i: usize) {
        if !self.retained.is_empty() {
            let r = self.retained.remove(i % self.retained.len());
            self.tm.commit_readonly(&[r.reader]);
        }
    }

    /// What `r` reads, by chain walk and by page scan; the two must agree.
    fn read_all(&self, r: &Retained) -> BTreeMap<usize, i64> {
        let own = SingleXid(r.reader);
        let clog = self.tm.clog();
        let mut scanned: BTreeMap<usize, (TupleId, i64)> = BTreeMap::new();
        self.heap.scan_visible(
            &r.snapshot,
            clog,
            &own,
            &mut |_| {},
            &mut |tid, row: &Row| {
                let dup = scanned.insert(int(&row[0]) as usize, (tid, int(&row[1])));
                assert!(dup.is_none(), "page scan saw two versions of one row");
            },
        );
        let mut walked: BTreeMap<usize, (TupleId, i64)> = BTreeMap::new();
        for (row_no, &root) in self.roots.iter().enumerate() {
            let read = self
                .heap
                .read_chain(root, &r.snapshot, clog, &own, &mut |_| {});
            if let Some((tid, row)) = read.visible {
                assert_eq!(int(&row[0]) as usize, row_no, "chain led to another row");
                walked.insert(row_no, (tid, int(&row[1])));
            }
        }
        assert_eq!(walked, scanned, "chain walk and page scan disagree");
        walked.into_iter().map(|(k, (_, v))| (k, v)).collect()
    }

    fn check_retained(&self, when: &str) {
        for (i, r) in self.retained.iter().enumerate() {
            assert_eq!(self.read_all(r), r.expect, "snapshot {i} {when}");
        }
    }

    fn prune(&mut self) {
        self.check_retained("before prune");
        let horizon = self
            .retained
            .iter()
            .map(|r| r.snapshot.csn)
            .min()
            .unwrap_or_else(|| self.tm.snapshot().csn);
        let out = self.heap.prune(self.tm.clog(), horizon);
        for root in &out.killed_roots {
            assert!(self.heap.with_tuple(*root, |t| t.dead).unwrap());
        }
        self.check_retained("after prune");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshots_read_the_same_rows_whatever_prune_frees(
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let mut w = World::new();
        for _ in 0..4 {
            w.insert(Fate::Commit);
        }
        for op in ops {
            match op {
                Op::Insert(f) => w.insert(f),
                Op::Update(i, f) => w.write(i % w.roots.len(), false, f),
                Op::Delete(i, f) => w.write(i % w.roots.len(), true, f),
                Op::Finish(i, commit) => {
                    if !w.open.is_empty() {
                        let p = w.open.remove(i % w.open.len());
                        w.settle(p, if commit { Fate::Commit } else { Fate::Abort });
                    }
                }
                Op::Snapshot => w.retain_snapshot(),
                Op::Release(i) => w.release(i),
                Op::Prune => w.prune(),
            }
        }
        // Settle everything, and the latest state must be what a new snapshot
        // reads once all the garbage is gone.
        while let Some(p) = w.open.pop() {
            w.settle(p, Fate::Abort);
        }
        w.retain_snapshot();
        w.prune();
        while !w.retained.is_empty() {
            w.release(0);
        }
        w.retain_snapshot();
        w.prune();
        prop_assert!(w.roots.iter().all(|r| {
            w.tm.status(w.heap.with_tuple(*r, |t| t.xmin).unwrap()) != TxnStatus::InProgress
        }));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn page_count_is_bounded_by_live_rows_not_by_history(
        rows in 64usize..256,
        every in 16usize..64,
        stride in 1usize..1000,
    ) {
        let mut w = World::new();
        for _ in 0..rows {
            w.insert(Fate::Commit);
        }
        let fresh_pages = rows.div_ceil(TUPLES_PER_PAGE);
        let mut row = 0;
        for n in 1..=100 * rows {
            row = (row + stride) % rows;
            w.write(row, false, Fate::Commit);
            if n % every == 0 {
                w.prune();
            }
        }
        // A stub and a live version per row, `every` versions awaiting the next
        // prune: under three slots a row, on pages that are never given back.
        prop_assert!(
            w.heap.page_count() <= 4 * fresh_pages,
            "{} pages for {} rows ({} pages when fresh) after {} updates",
            w.heap.page_count(), rows, fresh_pages, 100 * rows
        );
        w.retain_snapshot();
        prop_assert_eq!(w.read_all(&w.retained[0]).len(), rows);
    }
}
