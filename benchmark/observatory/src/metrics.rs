//! The metric names the benchmark emits, and the result line.
//!
//! `BENCHMARK.json` repeats these tables; `benchmark/check_manifest.py`
//! fails if the two ever disagree.

/// `(name, unit, better, bound)`: the bound is the share of the parent's
/// median by which the metric may worsen. The 95th percentile varies more
/// from run to run than the other three, and a set-up lasts only a second,
/// so those two get wider bounds (`benchmark/README.md` has the spreads the
/// bounds were set from).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("tps", "1/s", "higher", 0.15),
    ("lat_p50_us", "us", "lower", 0.15),
    ("lat_p95_us", "us", "lower", 0.20),
    ("cpu_us_per_commit", "us", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`, grouped by layer (= crate).
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("storage.begin_snapshot_ns", "ns", "lower"),
    ("storage.snapshot_hit_share", "share", "higher"),
    ("storage.vacuum_ms_per_kcommit", "ms", "lower"),
    ("storage.versions_pruned_per_kcommit", "count", "lower"),
    ("storage.row_lock_wait_p95_us", "us", "lower"),
    ("index.point_search_ns", "ns", "lower"),
    ("index.range_ns_per_row", "ns", "lower"),
    ("index.insert_ns", "ns", "lower"),
    ("lockmgr.acquire_release_ns_per_target", "ns", "lower"),
    ("lockmgr.conflict_check_hit_ns", "ns", "lower"),
    ("lockmgr.conflict_check_miss_ns", "ns", "lower"),
    ("lockmgr.acquires_per_commit", "count", "lower"),
    ("lockmgr.partition_mutex_per_commit", "count", "lower"),
    ("lockmgr.partition_contended_share", "share", "lower"),
    ("lockmgr.promotions_per_kcommit", "count", "lower"),
    ("lockmgr.publish_p95_us", "us", "lower"),
    ("core.commit_order_p50_us", "us", "lower"),
    ("core.commit_order_p95_us", "us", "lower"),
    ("core.conflicts_flagged_per_kcommit", "count", "lower"),
    ("core.dangerous_structures_per_kcommit", "count", "lower"),
    ("core.aborts_per_kcommit", "count", "lower"),
    ("core.retries_per_kcommit", "count", "lower"),
    ("core.safe_snapshots_per_kcommit", "count", "higher"),
    ("core.summarized_per_kcommit", "count", "lower"),
    ("engine.begin_p50_us", "us", "lower"),
    ("engine.get_p50_us", "us", "lower"),
    ("engine.scan_p50_us", "us", "lower"),
    ("engine.update_p50_us", "us", "lower"),
    ("engine.commit_ro_p50_us", "us", "lower"),
    ("engine.commit_rw_p50_us", "us", "lower"),
    ("engine.commit_rw_p95_us", "us", "lower"),
    ("engine.wal_bytes_per_commit", "bytes", "lower"),
    ("engine.wal_syncs_per_commit", "count", "lower"),
    ("engine.wal_sync_waits_per_commit", "count", "lower"),
    ("engine.fsync_wait_p50_us", "us", "lower"),
    ("engine.fsync_wait_p95_us", "us", "lower"),
    ("engine.checkpoint_ms", "ms", "lower"),
    ("engine.reopen_ms_per_krecord", "ms", "lower"),
    ("engine.route_ns", "ns", "lower"),
    ("engine.cluster_local_txn_p50_us", "us", "lower"),
    ("engine.cluster_cross_txn_p50_us", "us", "lower"),
    ("engine.cluster_cross_share", "share", "lower"),
    ("engine.cluster_cross_aborts_per_kcommit", "count", "lower"),
    ("engine.cluster_spared_per_kcommit", "count", "lower"),
    ("server.send_us_per_txn", "us", "lower"),
    ("server.wait_us_per_txn", "us", "lower"),
    ("server.requests_per_commit", "count", "lower"),
    ("server.worker_parks_per_kcommit", "count", "lower"),
    ("server.lock_wakeups_per_kcommit", "count", "lower"),
    ("process.rss_peak_mb", "MiB", "lower"),
    ("process.trace_overhead_share", "share", "lower"),
    ("client.lat_p99_us", "us", "lower"),
    ("client.lat_max_us", "us", "lower"),
    ("client.txn_self_us", "us", "lower"),
];

/// Named values of one run, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Why the run is not correct; empty when every check passed.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Context that is not a metric: sample counts, digests, filesystems.
    pub notes: Vec<(&'static str, String)>,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .expect("every emitted metric is in a table")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|&(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(v),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Minimal JSON string escaping for notes and problems.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
