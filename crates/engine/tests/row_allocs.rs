//! Allocation counts on the read path. A row or key of up to four values is
//! held inline (`pgssi_common::value::INLINE_VALUES`), so copying one out of
//! the heap or building one for a probe never calls the allocator.
//!
//! This is its own test binary because it installs a counting global
//! allocator. Counts are per thread, so other tests and any engine
//! background thread do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pgssi_common::{row, Row};
use pgssi_engine::{BeginOptions, Database, IsolationLevel, TableDef};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread is exiting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs; the counter is a
// thread-local `Cell` with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The fewest allocations of three runs, so a one-time lazy initialisation
/// does not count.
fn fewest(mut run: impl FnMut() -> u64) -> u64 {
    (0..3).map(|_| run()).min().unwrap()
}

fn load(db: &Database, def: TableDef, rows: impl Iterator<Item = Row>) {
    let name = def.name.clone();
    db.create_table(def).unwrap();
    let mut t = db.begin(IsolationLevel::Serializable);
    for r in rows {
        t.insert(&name, r).unwrap();
    }
    t.commit().unwrap();
}

/// Allocations of one SERIALIZABLE READ ONLY `scan` call (not its begin or
/// commit).
fn scan_allocs(db: &Database, table: &str, expect: usize) -> u64 {
    fewest(|| {
        let opts = BeginOptions::new(IsolationLevel::Serializable).read_only();
        let mut t = db.begin_with(opts).unwrap();
        let (rows, n) = counted(|| t.scan(table).unwrap());
        assert_eq!(rows.len(), expect);
        t.commit().unwrap();
        n
    })
}

#[test]
fn serializable_scan_makes_no_allocation_per_row() {
    let db = Database::open();
    for (name, n) in [("small", 10), ("big", 1_000)] {
        load(
            &db,
            TableDef::new(name, &["k", "v"], vec![0]),
            (0..n).map(|k| row![k, 2 * k]),
        );
    }
    let small = scan_allocs(&db, "small", 10);
    let big = scan_allocs(&db, "big", 1_000);
    // The result buffer doubles from 16 to 1 024 slots: six regrowths, plus
    // slack for the conflict-event buffer's.
    assert!(
        big <= small + 12,
        "scan of 1 000 rows made {big} allocations, of 10 rows {small}: rows are being allocated one by one"
    );
}

/// A point read through a one-column key on a two-column table, against the
/// same read through a five-column key on a six-column table. Only the wide
/// read spills, and only four values: the key the caller builds, the copy of
/// it in the B+-tree's search result, its `key_of` projection and the row
/// copied out. So the difference is exactly four: the narrow read allocates no
/// `Vec` for a key or a row.
#[test]
fn narrow_point_read_allocates_no_key_or_row() {
    let db = Database::open();
    load(
        &db,
        TableDef::new("narrow", &["k", "v"], vec![0]),
        (0..100).map(|k| row![k, k]),
    );
    load(
        &db,
        TableDef::new("wide", &["a", "b", "c", "d", "e", "v"], vec![0, 1, 2, 3, 4]),
        (0..100).map(|k| row![k, 0, 0, 0, 0, k]),
    );
    let mut t = db.begin(IsolationLevel::Serializable);
    let narrow = fewest(|| {
        let (got, n) = counted(|| t.get("narrow", &row![42]).unwrap());
        assert_eq!(got, Some(row![42, 42]));
        n
    });
    let wide = fewest(|| {
        let (got, n) = counted(|| t.get("wide", &row![42, 0, 0, 0, 0]).unwrap());
        assert_eq!(got, Some(row![42, 0, 0, 0, 0, 42]));
        n
    });
    t.commit().unwrap();
    assert_eq!(
        wide.checked_sub(narrow),
        Some(4),
        "narrow get made {narrow} allocations, wide get {wide}"
    );
}
