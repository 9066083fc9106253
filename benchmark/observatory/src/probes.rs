//! Fixed-work, single-threaded probes of the lower crates' public
//! functions, shaped like the workload (rows, reads per transaction, scan
//! length). They bound what a faster layer can save per transaction.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{IndexProbe, LockProbe, RouteProbe};
use crate::driver::Env;
use crate::gen::{Workload, SHARDS};

const BATCHES: usize = 5;
const ITERS: u64 = 20_000;

/// Median over [`BATCHES`] batches of the mean time of `f`, in ns.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

#[derive(Default)]
pub struct Probes {
    pub begin_snapshot_ns: f64,
    pub point_search_ns: f64,
    pub range_ns_per_row: f64,
    pub insert_ns: f64,
    pub acquire_release_ns_per_target: f64,
    pub conflict_check_hit_ns: f64,
    pub conflict_check_miss_ns: f64,
    pub route_ns: f64,
}

pub fn run(env: &Env, w: &Workload) -> Probes {
    let rows = w.rows as u64;
    let key = |i: u64| (i.wrapping_mul(7_919) % rows) as i64;

    let begin_snapshot_ns = ns_per_iter(ITERS, |_| {
        black_box(env.begin_snapshot_finish());
    });

    // Index: build a tree of the workload's size, in key order as the bulk
    // load does, then search it.
    let mut index = IndexProbe::empty();
    let insert_ns = ns_per_iter(rows, |i| {
        if i == 0 {
            index = IndexProbe::empty();
        }
        index.insert(i as i64);
    });
    let point_search_ns = ns_per_iter(ITERS, |i| {
        black_box(index.point(key(i)));
    });
    let scan_len = rows.min(1_000);
    let range_ns = ns_per_iter(ITERS / 100, |i| {
        black_box(index.range(key(i).min((rows - scan_len) as i64), scan_len as i64));
    });

    let targets = w.reads_per_txn;
    let mut locks = LockProbe::new(targets);
    let acquire_ns = ns_per_iter((ITERS / targets as u64).max(20), |_| {
        locks.acquire_release(targets);
    });
    let conflict_check_hit_ns = ns_per_iter(ITERS, |_| {
        black_box(locks.conflict_check_hit());
    });
    let conflict_check_miss_ns = ns_per_iter(ITERS, |_| {
        black_box(locks.conflict_check_miss());
    });

    let router = RouteProbe::new(SHARDS);
    let route_ns = ns_per_iter(ITERS, |i| {
        black_box(router.route(key(i)));
    });

    Probes {
        begin_snapshot_ns,
        point_search_ns,
        range_ns_per_row: range_ns / scan_len as f64,
        insert_ns,
        acquire_release_ns_per_target: acquire_ns / targets as f64,
        conflict_check_hit_ns,
        conflict_check_miss_ns,
        route_ns,
    }
}
