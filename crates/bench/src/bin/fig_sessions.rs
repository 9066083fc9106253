//! Session scaling: committed transactions per second as the number of
//! *logical sessions* sweeps 16 → 1024 over a fixed worker-thread count, on
//! the SIBENCH read-mostly mix (90% four-point-read transactions, 10%
//! single-key blind updates) under SSI.
//!
//! This is the repo's client-shape figure. The paper's evaluation (§8.2) runs
//! hundreds of mostly-idle DBT-2 terminals against PostgreSQL's
//! backend-per-connection model; `pgssi-server` reproduces that shape by
//! multiplexing sessions onto a small worker pool, and this binary measures
//! what it costs: every transaction travels the wire protocol
//! (`BEGIN`/`GET`/`PUT`/`COMMIT` lines), pipelined per transaction so
//! sessions never hold row locks across a scheduling boundary. By default the
//! terminals speak over in-process duplex channels; with `--tcp` each
//! terminal is a real `TcpClient` socket against the server's TCP front-end,
//! so the sweep additionally pays kernel socket wakeups and line framing.
//!
//! The sweep leans on the transaction manager: begins draw txids from
//! per-shard blocks and snapshots clone an epoch-cached snapshot, so
//! `begin`+`snapshot` do not serialize on one mutex (`--stats` prints the
//! snapshot-cache hit rate).
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_sessions \
//!     [-- --duration-ms 400 --workers 16 --max-sessions 1024 --rows 1024 \
//!         --tcp --stats]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgssi_bench::args::BenchArgs;
use pgssi_bench::harness::{seed_for, Mode};
use pgssi_bench::sibench::Sibench;
use pgssi_common::{EngineConfig, ServerConfig};
use pgssi_server::{Server, TcpClient, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One driver-side terminal: composes pipelined transactions against its
/// session and tallies outcomes. A handful of driver threads each pace many
/// terminals — the server, not the driver, is the thing under test. The
/// transport is either an in-process [`pgssi_server::SessionHandle`] or a
/// [`TcpClient`] socket, behind the same [`Transport`] trait.
struct Terminal {
    handle: Box<dyn Transport>,
    rng: SmallRng,
    /// Responses still expected for the in-flight pipelined transaction.
    pending: usize,
}

impl Terminal {
    /// Pipeline the next transaction without waiting for responses.
    fn fire(&mut self, rows: i64) {
        if self.rng.gen_range(0..10) == 0 {
            let k = self.rng.gen_range(0..rows);
            let v = self.rng.gen_range(0..1_000_000);
            self.handle.send("BEGIN").expect("send");
            self.handle.send(&format!("PUT si {k} {v}")).expect("send");
            self.handle.send("COMMIT").expect("send");
            self.pending = 3;
        } else {
            self.handle.send("BEGIN").expect("send");
            for _ in 0..4 {
                let k = self.rng.gen_range(0..rows);
                self.handle.send(&format!("GET si {k}")).expect("send");
            }
            self.handle.send("COMMIT").expect("send");
            self.pending = 6;
        }
    }

    /// Drain any arrived responses; returns `Some(committed)` when the
    /// in-flight transaction completed.
    fn poll(&mut self) -> Option<bool> {
        let mut last = None;
        while self.pending > 0 {
            match self.handle.try_recv().expect("session alive") {
                Some(resp) => {
                    self.pending -= 1;
                    last = Some(resp);
                }
                None => return None,
            }
        }
        last.map(|r| r == "OK")
    }
}

fn run_sweep_cell(
    connect: &(dyn Fn() -> Box<dyn Transport> + Sync),
    sessions: usize,
    rows: i64,
    duration: Duration,
    seed: u64,
) -> (u64, u64, Duration) {
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // A few driver threads pace all terminals; each owns a disjoint slice.
    let drivers = sessions.clamp(1, 4);
    let start = Instant::now();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        for d in 0..drivers {
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let stop = Arc::clone(&stop);
            let mine = (sessions / drivers) + usize::from(d < sessions % drivers);
            scope.spawn(move || {
                let mut terminals: Vec<Terminal> = (0..mine)
                    .map(|t| Terminal {
                        handle: connect(),
                        rng: SmallRng::seed_from_u64(seed_for(seed, d * 4096 + t)),
                        pending: 0,
                    })
                    .collect();
                for t in &mut terminals {
                    t.fire(rows);
                }
                while !stop.load(Ordering::Relaxed) {
                    let mut progressed = false;
                    for t in &mut terminals {
                        if let Some(ok) = t.poll() {
                            if ok {
                                committed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                            t.fire(rows);
                            progressed = true;
                        }
                    }
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
                // Drain in-flight transactions so the next sweep cell starts
                // with idle sessions (handles drop here and close them).
                for t in &mut terminals {
                    while t.pending > 0 {
                        if t.handle.recv().is_err() {
                            break;
                        }
                        t.pending -= 1;
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        // Measure up to the stop flag, not past the drain joins below: the
        // commit counters freeze at stop, and the drain backlog grows with
        // the session count, which would tilt the sweep's tail downward.
        elapsed = start.elapsed();
    });
    (
        committed.load(Ordering::Relaxed),
        aborted.load(Ordering::Relaxed),
        elapsed,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let duration = args.duration_or(400);
    let workers = args.usize_or("--workers", ServerConfig::default().workers);
    let max_sessions = args.usize_or("--max-sessions", 1024);
    let rows = args.value_or("--rows", 1024) as i64;
    let tcp = args.flag("--tcp");

    let mut sweep: Vec<usize> = vec![16, 64, 256, 1024];
    sweep.retain(|s| *s <= max_sessions.max(1));
    if sweep.is_empty() {
        sweep.push(max_sessions.max(1));
    }

    let bench = Sibench { table_size: rows };
    let config = EngineConfig {
        trace: args.trace(),
        ..Mode::Ssi.config()
    };
    let shards = config.txn.id_shards;
    let db = bench.setup_with(config);
    let server = Arc::new(Server::new(
        db,
        ServerConfig {
            workers,
            // Headroom: sweep cells reconnect fresh terminals each round.
            max_sessions: max_sessions + 64,
            ..ServerConfig::default()
        },
    ));
    let front = if tcp {
        Some(server.listen("127.0.0.1:0").expect("bind TCP front-end"))
    } else {
        None
    };
    let connect: Box<dyn Fn() -> Box<dyn Transport> + Sync> = match &front {
        Some(front) => {
            let addr = front.local_addr();
            Box::new(move || Box::new(TcpClient::connect(addr).expect("connect")) as _)
        }
        None => {
            let server = Arc::clone(&server);
            Box::new(move || Box::new(server.connect().expect("session capacity")) as _)
        }
    };

    let wire = if tcp { "TCP sockets" } else { "in-process" };
    println!("Session scaling: SSI read-mostly mix over the pgssi-server wire protocol");
    println!(
        "table: {rows} rows; {workers} workers; {shards} txid shards; {duration:?} per cell; \
         transport: {wire}\n"
    );
    println!(
        "{:>10}  {:>10}  {:>9}  {:>10}  {:>13}",
        "sessions", "txn/s", "aborts", "snap-hit%", "worker-parks"
    );

    for &sessions in &sweep {
        // Let the pool reap the previous cell's closed sessions before
        // connecting a fresh (larger) fleet against the session cap.
        while server.live_sessions() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = server.db().stats_report();
        let (committed, aborted, elapsed) =
            run_sweep_cell(connect.as_ref(), sessions, rows, duration, 42);
        let after = server.db().stats_report();
        let hits = after.txn_snapshot_hits - before.txn_snapshot_hits;
        let rebuilds = after.txn_snapshot_full_rebuilds - before.txn_snapshot_full_rebuilds;
        let hit_rate = if hits + rebuilds == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (hits + rebuilds) as f64
        };
        println!(
            "{sessions:>10}  {:>10.0}  {aborted:>9}  {hit_rate:>9.1}%  {:>13}",
            committed as f64 / elapsed.as_secs_f64(),
            after.session_worker_parks - before.session_worker_parks,
        );
    }

    println!("\nexpected shape: throughput holds (or grows into the worker budget) as");
    println!("sessions far exceed workers — the pool multiplexes idle sessions for free,");
    println!("and the sharded txid allocator + incrementally-maintained snapshot keep");
    println!("begin/snapshot off any single mutex (snap-hit% should sit at ~100,");
    println!("since only cold starts walk the shards). --tcp adds a");
    println!("per-message socket round trip but the curve's shape should survive it.");

    args.print_stats("SSI", server.db().shard(0));
    args.print_latency("SSI", server.db().shard(0));
    if let Some(front) = front {
        front.shutdown();
    }
}
