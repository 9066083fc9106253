//! Deferrable-transaction latency probe (paper §8.4).
//!
//! While a DBT-2++ load runs, repeatedly start a `SERIALIZABLE READ ONLY,
//! DEFERRABLE` transaction and measure how long it waits for a safe snapshot.
//! The paper reports a median of 1.98 s with p90 ≤ 6 s and max ≤ 20 s against
//! its disk-bound testbed; the comparable quantity here is the wait expressed
//! in units of the mean read/write transaction duration, since safe-snapshot
//! waits are bounded by concurrent transaction lifetimes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pgssi_engine::{BeginOptions, IsolationLevel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dbt2::{Dbt2, Dbt2Config};
use crate::harness::{seed_for, Mode};

/// Result of the latency probe.
#[derive(Debug)]
pub struct DeferrableReport {
    /// Safe-snapshot wait per probe.
    pub waits: Vec<Duration>,
    /// Mean duration of the background read/write transactions.
    pub mean_txn: Duration,
    /// Background transactions committed during the probe window.
    pub load_committed: u64,
}

impl DeferrableReport {
    fn percentile(&self, p: f64) -> Duration {
        let mut sorted = self.waits.clone();
        sorted.sort();
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    }

    /// Median wait.
    pub fn median(&self) -> Duration {
        self.percentile(0.5)
    }

    /// 90th-percentile wait.
    pub fn p90(&self) -> Duration {
        self.percentile(0.9)
    }

    /// Maximum wait.
    pub fn max(&self) -> Duration {
        *self.waits.iter().max().unwrap()
    }
}

/// Run `probes` deferrable transactions against a `threads`-wide DBT-2++ load.
pub fn run_probe(
    config: Dbt2Config,
    threads: usize,
    probes: usize,
    pause: Duration,
) -> DeferrableReport {
    let bench = Dbt2 { config };
    let db = bench.setup(Mode::Ssi);
    run_probe_on(&bench, &db, threads, probes, pause)
}

/// [`run_probe`] against an existing database (lets callers keep the handle
/// for a post-run `stats_report`).
pub fn run_probe_on(
    bench: &Dbt2,
    db: &pgssi_engine::Database,
    threads: usize,
    probes: usize,
    pause: Duration,
) -> DeferrableReport {
    let stop = AtomicBool::new(false);
    let committed = std::sync::atomic::AtomicU64::new(0);
    let txn_nanos = std::sync::atomic::AtomicU64::new(0);

    let mut waits = Vec::with_capacity(probes);
    std::thread::scope(|scope| {
        for th in 0..threads {
            let bench = &bench;
            let db = &db;
            let stop = &stop;
            let committed = &committed;
            let txn_nanos = &txn_nanos;
            scope.spawn(move || {
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut rng = SmallRng::seed_from_u64(
                        seed_for(99, th).wrapping_add(iter.wrapping_mul(31)),
                    );
                    let start = Instant::now();
                    if bench.one_txn(db, Mode::Ssi, &mut rng) {
                        committed.fetch_add(1, Ordering::Relaxed);
                        txn_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    iter += 1;
                }
            });
        }

        // Probe thread: the §8.4 loop — begin deferrable, run a trivial query,
        // commit, pause, repeat.
        for _ in 0..probes {
            let started = Instant::now();
            let txn = db
                .begin_with(BeginOptions::new(IsolationLevel::Serializable).deferrable())
                .expect("deferrable begin");
            waits.push(started.elapsed());
            let mut txn = txn;
            let _ = txn.get("warehouse", &pgssi_common::row![0i64]);
            let _ = txn.commit();
            std::thread::sleep(pause);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let n = committed.load(Ordering::Relaxed);
    DeferrableReport {
        waits,
        mean_txn: Duration::from_nanos(
            txn_nanos
                .load(Ordering::Relaxed)
                .checked_div(n)
                .unwrap_or(0),
        ),
        load_committed: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_always_obtains_safe_snapshots() {
        let config = Dbt2Config {
            warehouses: 1,
            districts: 2,
            customers: 10,
            items: 30,
            read_only_fraction: 0.1,
            think_time: Duration::ZERO,
            keying_time: Duration::ZERO,
            trace: false,
        };
        let report = run_probe(config, 2, 5, Duration::from_millis(5));
        assert_eq!(report.waits.len(), 5, "no probe may starve");
        assert!(report.load_committed > 0, "load must run during probes");
        assert!(report.median() <= report.p90());
        assert!(report.p90() <= report.max());
    }
}
