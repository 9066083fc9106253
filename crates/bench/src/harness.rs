//! Shared measurement harness: isolation modes, fixed-duration multi-threaded
//! runs, and result formatting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pgssi_common::{EngineConfig, SsiConfig};
use pgssi_engine::IsolationLevel;

/// The isolation modes compared in the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Snapshot isolation (PostgreSQL REPEATABLE READ) — the baseline every
    /// figure normalizes to.
    Si,
    /// SSI with both read-only optimizations (the paper's SERIALIZABLE).
    Ssi,
    /// SSI with the read-only optimizations disabled — the
    /// "SSI (no r/o opt.)" series of Figures 4 and 5a.
    SsiNoRoOpt,
    /// Strict two-phase locking baseline.
    S2pl,
}

impl Mode {
    /// All four series, in the paper's presentation order.
    pub const ALL: [Mode; 4] = [Mode::Si, Mode::Ssi, Mode::SsiNoRoOpt, Mode::S2pl];

    /// The three series used where the paper omits the no-r/o-opt line (6).
    pub const MAIN: [Mode; 3] = [Mode::Si, Mode::Ssi, Mode::S2pl];

    /// Column label as printed by the harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Si => "SI",
            Mode::Ssi => "SSI",
            Mode::SsiNoRoOpt => "SSI(no r/o)",
            Mode::S2pl => "S2PL",
        }
    }

    /// Engine isolation level this mode runs transactions at.
    pub fn isolation(self) -> IsolationLevel {
        match self {
            Mode::Si => IsolationLevel::RepeatableRead,
            Mode::Ssi | Mode::SsiNoRoOpt => IsolationLevel::Serializable,
            Mode::S2pl => IsolationLevel::Serializable2pl,
        }
    }

    /// Engine configuration (disables the read-only optimizations for the
    /// ablation series).
    pub fn config(self) -> EngineConfig {
        let ssi = match self {
            Mode::SsiNoRoOpt => SsiConfig::without_read_only_opt(),
            _ => SsiConfig::default(),
        };
        EngineConfig {
            ssi,
            ..EngineConfig::default()
        }
    }
}

/// Outcome of one timed run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted with retryable errors (serialization failures,
    /// deadlocks).
    pub aborted: u64,
    /// Wall-clock measurement window.
    pub elapsed: Duration,
}

impl RunResult {
    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of attempts that ended in a retryable abort.
    pub fn failure_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }
}

/// Drive `work` from `threads` workers for `duration`, counting commits and
/// retryable aborts. `work(thread_id, iteration)` returns `Ok(true)` for a
/// commit, `Ok(false)`/`Err` for an abort that should be retried by moving on.
pub fn run_for(
    threads: usize,
    duration: Duration,
    work: impl Fn(usize, u64) -> bool + Sync,
) -> RunResult {
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for th in 0..threads {
            let stop = &stop;
            let committed = &committed;
            let aborted = &aborted;
            let work = &work;
            scope.spawn(move || {
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if work(th, iter) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    iter += 1;
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    RunResult {
        committed: committed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

/// Print one normalized table row: `label` then each mode's throughput as a
/// fraction of the first (SI) column, matching the paper's normalized plots.
pub fn print_normalized_row(label: &str, results: &[(Mode, RunResult)]) {
    let base = results
        .iter()
        .find(|(m, _)| *m == Mode::Si)
        .map(|(_, r)| r.tps())
        .unwrap_or(1.0);
    print!("{label:>10}");
    for (_, r) in results {
        print!("  {:>12.3}", r.tps() / base.max(1e-9));
    }
    print!("  |");
    for (_, r) in results {
        print!("  {:>9.0}", r.tps());
    }
    println!();
}

/// Print the table header matching [`print_normalized_row`].
pub fn print_header(first_col: &str, modes: &[Mode]) {
    print!("{first_col:>10}");
    for m in modes {
        print!("  {:>12}", m.label());
    }
    print!("  |");
    for m in modes {
        print!("  {:>9}", m.label());
    }
    println!("  (normalized to SI | raw txn/s)");
}

/// Per-thread deterministic RNG seed.
pub fn seed_for(base: u64, thread: usize) -> u64 {
    base ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Append one JSON record (a single line) to `path`, creating the file on
/// first use. Benchmark binaries use this to grow machine-readable run
/// trajectories (`BENCH_cluster.json`, one run record per line) without
/// pulling in a JSON dependency.
pub fn append_json_record(path: &str, record: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{record}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_engine::Database;

    #[test]
    fn modes_map_to_isolation_levels() {
        assert_eq!(Mode::Si.isolation(), IsolationLevel::RepeatableRead);
        assert_eq!(Mode::Ssi.isolation(), IsolationLevel::Serializable);
        assert_eq!(Mode::SsiNoRoOpt.isolation(), IsolationLevel::Serializable);
        assert_eq!(Mode::S2pl.isolation(), IsolationLevel::Serializable2pl);
        assert!(!Mode::SsiNoRoOpt.config().ssi.enable_read_only_opt);
        assert!(Mode::Ssi.config().ssi.enable_read_only_opt);
    }

    #[test]
    fn run_for_counts_commits_and_aborts() {
        let r = run_for(2, Duration::from_millis(50), |_th, iter| iter % 3 != 0);
        assert!(r.committed > 0);
        assert!(r.aborted > 0);
        let expected = r.aborted as f64 / (r.committed + r.aborted) as f64;
        assert!((r.failure_rate() - expected).abs() < 1e-9);
        assert!(r.tps() > 0.0);
    }

    #[test]
    fn json_records_append_line_by_line() {
        let path = std::env::temp_dir().join(format!(
            "pgssi_bench_json_{}_{}.json",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let path = path.to_str().unwrap().to_string();
        append_json_record(&path, r#"{"a":1}"#).unwrap();
        append_json_record(&path, r#"{"a":2}"#).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"a\":1}\n{\"a\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn database_opens_per_mode() {
        for m in Mode::ALL {
            let db = Database::new(m.config());
            let _ = db.begin(m.isolation());
        }
    }
}
