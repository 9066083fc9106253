//! Shared benchmark CLI: every `src/bin/` figure binary parses the same
//! `--duration-ms N` / `--stats` / `--json` / `--foo 1,4,16` conventions, so
//! the parsing lives here once instead of once per binary.

use std::time::Duration;

use pgssi_common::stats::fmt_ns;
use pgssi_engine::{Database, LatencyReport};

/// Parsed argv for a figure binary. Construct with [`BenchArgs::parse`] in
/// `main`, then pull typed flags off it.
pub struct BenchArgs {
    argv: Vec<String>,
}

impl BenchArgs {
    /// Capture this process's argv.
    pub fn parse() -> BenchArgs {
        BenchArgs {
            argv: std::env::args().collect(),
        }
    }

    /// Build from an explicit argv (tests).
    pub fn from_vec(argv: Vec<String>) -> BenchArgs {
        BenchArgs { argv }
    }

    /// Parse `--name N`.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Parse `--name N` with a default.
    pub fn value_or(&self, name: &str, default: u64) -> u64 {
        self.value(name).unwrap_or(default)
    }

    /// Parse `--name N` as a `usize` with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.value(name).map(|v| v as usize).unwrap_or(default)
    }

    /// Parse `--duration-ms N` (the universal run-length knob).
    pub fn duration_or(&self, default_ms: u64) -> Duration {
        Duration::from_millis(self.value_or("--duration-ms", default_ms))
    }

    /// True if the standalone flag `name` appears.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// The raw argv, for the occasional binary-specific positional convention
    /// (e.g. fig5's bare `disk` / `--config disk`, which it refuses).
    pub fn raw(&self) -> &[String] {
        &self.argv
    }

    /// Parse `--name 1,4,16,64`-style comma-separated sweep lists (a single
    /// value is a one-element list). `None` if the flag is absent or nothing
    /// parses, so callers can supply their default sweep.
    pub fn list(&self, name: &str) -> Option<Vec<u64>> {
        let raw = self
            .argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))?;
        let vals: Vec<u64> = raw
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals)
        }
    }

    /// True if `--json` was passed (machine-readable trajectory output).
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// Print the database's aggregated [`pgssi_engine::StatsReport`] when the
    /// binary was invoked with `--stats`. Every figure binary calls this after
    /// its final (or per-mode) run.
    pub fn print_stats(&self, label: &str, db: &Database) {
        if self.flag("--stats") {
            println!("\n[{label}] aggregated stats:");
            println!("{}", db.stats_report());
        }
    }

    /// True if `--trace` was passed: the value of [`pgssi_common::EngineConfig::trace`]
    /// (per-transaction event ring).
    pub fn trace(&self) -> bool {
        self.flag("--trace")
    }

    /// Print a percentile table for the run's latency histograms when
    /// `--latency` was passed (recording is always on; the flag only
    /// controls the report). Skips histograms with no samples.
    pub fn print_latency(&self, label: &str, db: &Database) {
        if !self.flag("--latency") {
            return;
        }
        let report = db.latency_report();
        println!("\n[{label}] latency percentiles:");
        println!(
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "n", "p50", "p95", "p99", "max"
        );
        for name in LatencyReport::NAMES {
            let Some(h) = report.get(name) else { continue };
            if h.count() == 0 {
                continue;
            }
            // repl_catchup counts records-behind, not nanoseconds.
            let f = |v: u64| {
                if name == "repl_catchup" {
                    v.to_string()
                } else {
                    fmt_ns(v)
                }
            };
            println!(
                "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                f(h.percentile(50.0)),
                f(h.percentile(95.0)),
                f(h.percentile(99.0)),
                f(h.max())
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> BenchArgs {
        BenchArgs::from_vec(raw.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_parsing() {
        let a = args(&["x", "--threads", "8", "--duration-ms", "250"]);
        assert_eq!(a.value("--threads"), Some(8));
        assert_eq!(a.value_or("--duration-ms", 99), 250);
        assert_eq!(a.value("--nope"), None);
        assert_eq!(a.value_or("--nope", 7), 7);
        assert_eq!(a.usize_or("--threads", 1), 8);
        assert_eq!(a.duration_or(400), Duration::from_millis(250));
        assert_eq!(args(&["x"]).duration_or(400), Duration::from_millis(400));
    }

    #[test]
    fn list_parses_sweeps_and_single_values() {
        let a = args(&["x", "--shards", "1,2,4", "--cross-pct", "20"]);
        assert_eq!(a.list("--shards"), Some(vec![1, 2, 4]));
        assert_eq!(a.list("--cross-pct"), Some(vec![20]));
        assert_eq!(a.list("--nope"), None);
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["x", "--stats", "--json"]);
        assert!(a.flag("--stats"));
        assert!(a.json());
        assert!(!a.flag("--nope"));
        assert!(!args(&["x"]).json());
    }

    #[test]
    fn trace_flag() {
        // Tracing defaults off.
        assert!(!args(&["x"]).trace());
        assert!(args(&["x", "--trace"]).trace());
    }
}
