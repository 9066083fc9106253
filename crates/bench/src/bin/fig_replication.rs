//! §8.4 WAL-follower serializability: safe-query staleness and replication
//! lag with the follower deciding snapshot safety locally from shipped
//! commit-order/conflict metadata.
//!
//! Serializable read/write writers keep the master busy while one replica
//! continuously catches up and runs serializable read-only queries on its
//! latest safe snapshot. Reported per run:
//!
//! * **safe snapshots** derived, and how many of them the §7.2 marker
//!   protocol would have had to wait for (their commit had a serializable
//!   read/write transaction in flight — under overlapping writers, many);
//! * **mean safe-query staleness** in commits (master's commit frontier minus
//!   the safe snapshot's csn at query start);
//! * **mean replication lag** in records per catch-up, the cost side of §8.4
//!   (more records shipped per commit).
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_replication \
//!     [-- --duration-ms 800 --writers 4 --rows 256 --stats]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use pgssi_bench::args::BenchArgs;
use pgssi_common::{row, EngineConfig};
use pgssi_engine::{Database, IsolationLevel, Replica, TableDef};

fn main() {
    let args = BenchArgs::parse();
    let duration = args.duration_or(800);
    let writers = args.usize_or("--writers", 4);
    let rows = args.value_or("--rows", 256) as i64;
    println!(
        "WAL-follower serializability (§8.4): {writers} serializable writers, {rows} rows, \
         {duration:?}"
    );

    let db = Database::new(EngineConfig {
        trace: args.trace(),
        ..EngineConfig::default()
    });
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    {
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        for k in 0..rows {
            t.insert("kv", row![k, 0]).unwrap();
        }
        t.commit().unwrap();
    }
    let replica = Replica::connect(&db);
    replica.catch_up();

    let stop = AtomicBool::new(false);
    let safe_queries = AtomicU64::new(0);
    let safe_waits = AtomicU64::new(0);
    let staleness_sum = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..writers {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut x = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = ((x >> 33) % rows as u64) as i64;
                    let b = ((x >> 13) % rows as u64) as i64;
                    let mut t = db.begin(IsolationLevel::Serializable);
                    let ok = (|| {
                        let cur = t.get("kv", &row![a])?.and_then(|r| r[1].as_int());
                        t.update("kv", &row![b], row![b, cur.unwrap_or(0) + 1])?;
                        Ok::<_, pgssi_common::Error>(())
                    })();
                    match ok {
                        Ok(()) => {
                            let _ = t.commit();
                        }
                        Err(_) => {
                            if !t.is_finished() {
                                t.rollback();
                            }
                        }
                    }
                    iter += 1;
                    // An occasional breather: a quiescent commit now and
                    // then, so not every candidate is born pending.
                    if iter.is_multiple_of(64) {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            });
        }
        {
            let db = db.clone();
            let replica = &replica;
            let stop = &stop;
            let (safe_queries, safe_waits, staleness_sum) =
                (&safe_queries, &safe_waits, &staleness_sum);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    replica.catch_up();
                    match replica.begin_safe_query() {
                        Some(mut q) => {
                            let staleness = db
                                .txn_manager()
                                .frontier()
                                .0
                                .saturating_sub(q.snapshot().csn.0);
                            let _ = q.get("kv", &row![0]);
                            q.commit().unwrap();
                            safe_queries.fetch_add(1, Ordering::Relaxed);
                            staleness_sum.fetch_add(staleness, Ordering::Relaxed);
                        }
                        None => {
                            safe_waits.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    replica.catch_up();

    let report = db.stats_report();
    let queries = safe_queries.load(Ordering::Relaxed);
    let waits = safe_waits.load(Ordering::Relaxed);
    let mean_staleness = if queries == 0 {
        f64::NAN
    } else {
        staleness_sum.load(Ordering::Relaxed) as f64 / queries as f64
    };
    println!("\n{:>24}: {}", "commits", report.commits);
    println!("{:>24}: {}", "safe queries served", queries);
    println!("{:>24}: {}", "safe-query waits", waits);
    println!("{:>24}: {}", "safe snapshots", report.repl_safe_local);
    println!(
        "{:>24}: {}",
        "marker waits avoided", report.repl_marker_waits_avoided
    );
    println!(
        "{:>24}: {}",
        "unsafe candidates", report.repl_unsafe_candidates
    );
    println!(
        "{:>24}: {:.2} commits",
        "mean safe staleness", mean_staleness
    );
    println!(
        "{:>24}: {:.2} records ({} records total)",
        "mean replication lag",
        report.repl_mean_lag(),
        report.repl_records
    );

    args.print_stats("fig_replication", &db);
    args.print_latency("fig_replication", &db);

    println!("\nexpected shape: many safe snapshots are marker waits avoided, and safe-query");
    println!("staleness stays within a few commits of the head — the follower decides safety");
    println!("from shipped §8.4 metadata instead of waiting for a quiescent commit.");
}
