//! `observatory`: the repository's one benchmark.
//!
//! ```text
//! observatory --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! observatory --list | --self-test
//! ```
//!
//! One run builds a workload's inputs from the seed, sets the system up,
//! runs closed-loop clients against it, checks the outputs, and prints every
//! metric by name with its unit; the last line of standard output is the
//! result object `benchmark/README.md` describes. `--trace 0` (the default)
//! is the gated run and reports the end-to-end metrics; `--trace 1` is the
//! separate traced run and reports the per-layer metrics.

mod api;
mod driver;
mod gen;
mod metrics;
mod probes;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use api::{Level, Res};
use driver::{ClientResult, Env, Plan, SLICES};
use gen::{Top, Workload, WORKLOADS};
use metrics::{json_string, Metrics, Outcome, END_TO_END, PER_LAYER};
use trace::{percentile, SpanStats};

/// Set-ups per gated run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Logical transactions per client in each pass of the traced run.
const TRACE_TXNS: u64 = 50_000;
/// No pass of fixed work may run longer than this.
const FIXED_WORK_CAP_S: f64 = 60.0;
/// The stationarity guard: the share by which the last quarter of the window
/// may commit less than the first. Without vacuum the read-mostly mix loses
/// three quarters of its rate in 8 s. With it, heap growth (slots are never
/// reused) costs the write-only workloads up to 4% across a 10 s window; the
/// rest is the box, on which the outer quarters of ordinary windows differed
/// by -7% to +15% in a quiet hour and by -19% to +26% in a noisy one.
const MAX_DECAY: f64 = 0.20;
/// A window that fails the guard is measured once more, and the run fails if
/// the second fails too. A lost vacuum decays every window. A neighbour's
/// burst that begins inside one (-17% to -28% between the outer quarters,
/// five windows in sixty one afternoon) has settled or passed by the next.
const MAX_WINDOWS: usize = 2;
/// Generator streams: the warm-up never replays the measured keys.
const WARMUP_PASS: u64 = 0;
const MEASURED_PASS: u64 = 1;
const TAIL_PASS: u64 = 2;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    /// `min(nproc, 4)` and [`TRACE_TXNS`]; only the self-test runs smaller.
    clients: usize,
    trace_txns: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: observatory --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
         observatory --list | --self-test\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> (Options, Option<&'static str>) {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: None,
        clients: sys::nproc().min(4),
        trace_txns: TRACE_TXNS,
    };
    let mut mode = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        args.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    fn num<T: std::str::FromStr>(s: &str) -> T {
        s.parse().unwrap_or_else(|_| usage())
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = value(&mut i).to_string(),
            "--seed" => o.seed = num(value(&mut i)),
            "--seconds" => o.seconds = num(value(&mut i)),
            "--out" => o.out = Some(PathBuf::from(value(&mut i))),
            "--trace" => {
                o.traced = match value(&mut i) {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--list" => mode = Some("list"),
            "--self-test" => mode = Some("self-test"),
            _ => usage(),
        }
        i += 1;
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
        usage();
    }
    (o, mode)
}

/// Where the durable workload keeps its WAL: `/dev/shm` when a directory can
/// be made there, else `.bench_tmp` in the working directory. Device sync
/// time on the sandbox's shared disk varies by tens of percent from run to
/// run, which would drown the engine's commit path the workload is there to
/// measure; on tmpfs a sync costs a system call and nothing else. The
/// directory is per process and removed when the run ends.
fn wal_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let name = format!("observatory-wal-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        if std::fs::create_dir_all(&shm).is_ok() {
            shm
        } else {
            Path::new(".bench_tmp").join(name)
        }
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// A set-up system plus what the checks need to remember about it.
struct Bench<'a> {
    w: &'a Workload,
    o: &'a Options,
    /// `None` only while the durable workload is between handles.
    env: Option<Env>,
    /// Acknowledged increments per key since the load.
    acks: Vec<u64>,
    problems: Vec<String>,
}

impl<'a> Bench<'a> {
    /// Open or create, load, start and connect, then the fixed-work warm-up:
    /// everything `setup_s` covers.
    fn set_up(w: &'a Workload, o: &'a Options) -> Res<Bench<'a>> {
        let env = Env::open(w, o.clients, wal_dir())?;
        let mut b = Bench {
            w,
            o,
            env: Some(env),
            acks: vec![0; w.rows as usize],
            problems: Vec::new(),
        };
        b.pass(
            WARMUP_PASS,
            Plan {
                txns: Some(w.warmup_txns),
                seconds: FIXED_WORK_CAP_S,
                traced: false,
            },
        );
        Ok(b)
    }

    fn env(&self) -> &Env {
        self.env.as_ref().expect("the environment is open")
    }

    fn problem(&mut self, what: String) {
        eprintln!("observatory: {}: CHECK FAILED: {what}", self.w.name);
        self.problems.push(what);
    }

    /// Run one pass and keep its acknowledgements and failures.
    fn pass(&mut self, pass: u64, plan: Plan) -> Vec<ClientResult> {
        let results = self
            .env()
            .run(self.w, self.o.clients, self.o.seed, pass, plan);
        for r in &results {
            for (total, &n) in self.acks.iter_mut().zip(&r.acks) {
                *total += n as u64;
            }
        }
        if let Some(msg) = results.iter().find_map(|r| r.first_failure.clone()) {
            let failed: u64 = results.iter().map(|r| r.failed).sum();
            self.problem(format!(
                "{failed} logical transactions failed, first: {msg}"
            ));
        }
        results
    }

    /// The requested isolation level is the applied level.
    fn check_write_skew(&mut self) {
        for (level, expect) in [(Level::Serializable, 1), (Level::RepeatableRead, 0)] {
            match self.env().write_skew_aborts(level) {
                Ok(n) if n == expect => {}
                Ok(n) => self.problem(format!(
                    "write skew at {level:?}: {n} aborts, expected {expect}"
                )),
                Err(e) => self.problem(format!("write skew at {level:?}: {e:?}")),
            }
        }
    }

    /// Every key holds exactly its acknowledged increments.
    fn check_counters(&mut self, pairs: Res<Vec<(i64, i64)>>, what: &str) {
        let pairs = match pairs {
            Ok(p) => p,
            Err(e) => return self.problem(format!("{what}: cannot read the table: {e:?}")),
        };
        if pairs.len() != self.acks.len() {
            return self.problem(format!(
                "{what}: {} rows, expected {}",
                pairs.len(),
                self.acks.len()
            ));
        }
        let wrong = pairs
            .iter()
            .filter(|&&(k, v)| self.acks.get(k as usize).is_none_or(|&a| a as i64 != v))
            .count();
        if wrong > 0 {
            self.problem(format!(
                "{what}: {wrong} keys differ from their acknowledged increments"
            ));
        }
    }

    /// The checks that compare a pass's counters with what clients saw.
    fn check_after_pass(&mut self, results: &[ClientResult], counts: &api::Counts) {
        let committed: u64 = results.iter().map(|r| r.committed).sum();
        match self.w.top {
            Top::Wire => {
                if counts.commits != committed {
                    self.problem(format!(
                        "clients saw {committed} commits, the engine counted {}",
                        counts.commits
                    ));
                }
            }
            Top::Cluster => {
                let resolved = counts.cluster_cross_commits + counts.cluster_cross_aborts;
                if counts.cluster_enlistments != resolved {
                    self.problem(format!(
                        "{} coordinator enlistments, {resolved} cross-shard commits + aborts",
                        counts.cluster_enlistments
                    ));
                }
            }
            Top::Engine | Top::Durable => {}
        }
        if self.w.level == Level::RepeatableRead && counts.siread_acquisitions != 0 {
            self.problem(format!(
                "{} SIREAD acquisitions at REPEATABLE READ",
                counts.siread_acquisitions
            ));
        }
    }

    /// Final state against acknowledgements; for the durable workload, after
    /// dropping the handle without a checkpoint and recovering. Returns the
    /// recovery time and the records it replayed.
    fn check_final_state(&mut self) -> (f64, u64) {
        match self.w.top {
            Top::Wire => (0.0, 0),
            Top::Engine | Top::Cluster => {
                let pairs = self.env().table_contents();
                self.check_counters(pairs, "final state");
                (0.0, 0)
            }
            Top::Durable => {
                let t = Instant::now();
                match self.env.take().expect("the environment is open").reopen() {
                    Ok((env, replayed)) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        self.check_counters(env.table_contents(), "after reopen");
                        self.env = Some(env);
                        (ms, replayed)
                    }
                    Err(e) => {
                        self.problem(format!("reopen failed: {e:?}"));
                        (0.0, 0)
                    }
                }
            }
        }
    }

    fn finish(self) -> Vec<String> {
        if let Some(env) = self.env {
            env.close();
        }
        let _ = std::fs::remove_dir_all(wal_dir());
        self.problems
    }
}

fn failed_outcome(e: api::Fail) -> Outcome {
    Outcome {
        problems: vec![format!("set-up failed: {e:?}")],
        attempted: 1,
        failed: 1,
        metrics: Metrics::default(),
        notes: Vec::new(),
    }
}

fn sorted_latencies(results: &[ClientResult]) -> Vec<u64> {
    let mut all: Vec<u64> = results
        .iter()
        .flat_map(|r| r.lat_ns.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// The gated run: [`SETUPS`] set-ups, then one measured window, tracing off.
fn gated(w: &Workload, o: &Options) -> Outcome {
    let mut setup_s = Vec::new();
    let mut problems = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down outside the timed region.
        if let Some(b) = bench.take() {
            problems.extend(Bench::finish(b));
        }
        let t = Instant::now();
        match Bench::set_up(w, o) {
            Ok(b) => bench = Some(b),
            Err(e) => return failed_outcome(e),
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut b = bench.expect("SETUPS > 0");
    b.check_write_skew();

    // Attempted and failed transactions of a window that was measured again.
    let mut discarded = (0, 0);
    let mut windows = 0;
    let (results, cpu_s, per_slice) = loop {
        windows += 1;
        let before = b.env().stats();
        let cpu0 = sys::cpu_seconds();
        let results = b.pass(
            MEASURED_PASS,
            Plan {
                txns: None,
                seconds: o.seconds,
                traced: false,
            },
        );
        let cpu_s = sys::cpu_seconds() - cpu0;
        let counts = b.env().stats().since(&before);
        b.check_after_pass(&results, &counts);

        let per_slice: Vec<u64> = (0..SLICES)
            .map(|s| results.iter().map(|r| r.slices[s]).sum())
            .collect();
        let quarter = SLICES / 4;
        let first: u64 = per_slice[..quarter].iter().sum();
        let last: u64 = per_slice[SLICES - quarter..].iter().sum();
        if last as f64 >= (1.0 - MAX_DECAY) * first as f64 {
            break (results, cpu_s, per_slice);
        }
        let what = format!(
            "window {windows} not stationary: {last} commits in the last quarter, {first} in the first"
        );
        if windows == MAX_WINDOWS {
            b.problem(what);
            break (results, cpu_s, per_slice);
        }
        eprintln!("observatory: {}: {what}; measuring again", w.name);
        for r in &results {
            discarded.0 += r.committed + r.failed;
            discarded.1 += r.failed;
        }
    };
    b.check_final_state();
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let lat = sorted_latencies(&results);

    let metrics = Metrics(vec![
        ("tps", per_slice.iter().sum::<u64>() as f64 / o.seconds),
        ("lat_p50_us", us(percentile(&lat, 50.0))),
        ("lat_p95_us", us(percentile(&lat, 95.0))),
        ("cpu_us_per_commit", cpu_s * 1e6 / committed.max(1) as f64),
        ("setup_s", median(setup_s)),
    ]);
    problems.extend(b.finish());
    let notes = vec![
        ("latency_samples", lat.len().to_string()),
        ("windows", windows.to_string()),
        ("commits_per_slice", format!("{per_slice:?}")),
        (
            "retries",
            results.iter().map(|r| r.retries).sum::<u64>().to_string(),
        ),
    ];
    Outcome {
        problems,
        attempted: discarded.0 + committed + failed,
        failed: discarded.1 + failed,
        metrics,
        notes,
    }
}

/// Sum over clients of each client's own commit rate, so a client that
/// finishes its fixed work early does not dilute the rate.
fn fixed_work_tps(results: &[ClientResult]) -> f64 {
    results
        .iter()
        .map(|r| r.committed as f64 / (r.elapsed_ns as f64 / 1e9))
        .sum()
}

/// What the traced run found beyond its metrics.
struct Traced {
    outcome: Outcome,
    /// Digest of the inputs the clients were given.
    input_digest: u64,
}

/// The traced run: one set-up, the fixed work untraced, the same work traced,
/// then the probes. Reports the per-layer metrics.
fn traced(w: &Workload, o: &Options) -> Traced {
    let fixed = |traced| Plan {
        txns: Some(o.trace_txns),
        seconds: o.seconds / 2.0,
        traced,
    };
    let mut b = match Bench::set_up(w, o) {
        Ok(b) => b,
        Err(e) => {
            return Traced {
                outcome: failed_outcome(e),
                input_digest: 0,
            }
        }
    };
    b.check_write_skew();
    let input_digest = b
        .env()
        .input_digest(w, o.clients, o.seed, MEASURED_PASS, o.trace_txns);
    let untraced_tps = fixed_work_tps(&b.pass(MEASURED_PASS, fixed(false)));

    let before = b.env().stats();
    let results = b.pass(MEASURED_PASS, fixed(true));
    let counts = b.env().stats().since(&before);
    b.check_after_pass(&results, &counts);

    // Durable only: one timed checkpoint, then a tail of commits for the
    // reopen to replay.
    let mut checkpoint_ms = 0.0;
    if let Some(Env::Durable { db, .. }) = &b.env {
        let t = Instant::now();
        if let Err(e) = db.checkpoint() {
            b.problem(format!("checkpoint failed: {e:?}"));
        }
        checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        b.pass(
            TAIL_PASS,
            Plan {
                txns: Some(o.trace_txns / 10 + 1),
                seconds: o.seconds / 2.0,
                traced: false,
            },
        );
    }
    let layer = b.env().layer();
    let (reopen_ms, replayed) = b.check_final_state();
    // A failed reopen leaves nothing to probe; the problem is recorded.
    let probes = b
        .env
        .as_ref()
        .map(|env| probes::run(env, w))
        .unwrap_or_default();

    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let kc = committed as f64 / 1_000.0;
    let per_k = |n: u64| if kc > 0.0 { n as f64 / kc } else { 0.0 };
    let lat = sorted_latencies(&results);
    let mut spans = SpanStats::default();
    for r in &results {
        spans.absorb(&r.spans);
    }
    spans.sort();
    let per_txn_us = |ns: u64| us(ns) / spans.txns.max(1) as f64;
    let p50 = |v: &[u64]| us(percentile(v, 50.0));
    let cluster = w.top == Top::Cluster;

    let (local, cross): (&[u64], &[u64]) = if cluster {
        (&spans.txn_one_write, &spans.txn_two_writes)
    } else {
        (&[], &[])
    };
    let metrics = Metrics(vec![
        ("storage.begin_snapshot_ns", probes.begin_snapshot_ns),
        (
            "storage.snapshot_hit_share",
            ratio(
                counts.snapshot_hits,
                counts.snapshot_hits + counts.snapshot_rebuilds,
            ),
        ),
        (
            "storage.vacuum_ms_per_kcommit",
            per_k(results.iter().map(|r| r.vacuum_ns).sum()) / 1e6,
        ),
        (
            "storage.versions_pruned_per_kcommit",
            per_k(results.iter().map(|r| r.versions_pruned).sum()),
        ),
        (
            "storage.row_lock_wait_p95_us",
            us(counts.row_lock_wait_p95_ns),
        ),
        ("index.point_search_ns", probes.point_search_ns),
        ("index.range_ns_per_row", probes.range_ns_per_row),
        ("index.insert_ns", probes.insert_ns),
        (
            "lockmgr.acquire_release_ns_per_target",
            probes.acquire_release_ns_per_target,
        ),
        (
            "lockmgr.conflict_check_hit_ns",
            probes.conflict_check_hit_ns,
        ),
        (
            "lockmgr.conflict_check_miss_ns",
            probes.conflict_check_miss_ns,
        ),
        (
            "lockmgr.acquires_per_commit",
            ratio(counts.siread_acquisitions, committed),
        ),
        (
            "lockmgr.partition_mutex_per_commit",
            ratio(counts.partition_taken, committed),
        ),
        (
            "lockmgr.partition_contended_share",
            ratio(counts.partition_contended, counts.partition_taken),
        ),
        (
            "lockmgr.promotions_per_kcommit",
            per_k(counts.siread_promotions),
        ),
        ("lockmgr.publish_p95_us", us(counts.siread_publish_p95_ns)),
        ("core.commit_order_p50_us", us(counts.commit_order_p50_ns)),
        ("core.commit_order_p95_us", us(counts.commit_order_p95_ns)),
        (
            "core.conflicts_flagged_per_kcommit",
            per_k(counts.conflicts_flagged),
        ),
        (
            "core.dangerous_structures_per_kcommit",
            per_k(counts.dangerous_structures),
        ),
        ("core.aborts_per_kcommit", per_k(counts.aborts)),
        ("core.retries_per_kcommit", per_k(retries)),
        (
            "core.safe_snapshots_per_kcommit",
            per_k(counts.safe_snapshots),
        ),
        ("core.summarized_per_kcommit", per_k(counts.summarized)),
        ("engine.begin_p50_us", p50(&spans.begin)),
        ("engine.get_p50_us", p50(&spans.get)),
        ("engine.scan_p50_us", p50(&spans.scan)),
        ("engine.update_p50_us", p50(&spans.update)),
        ("engine.commit_ro_p50_us", p50(&spans.commit_ro)),
        ("engine.commit_rw_p50_us", p50(&spans.commit_rw)),
        (
            "engine.commit_rw_p95_us",
            us(percentile(&spans.commit_rw, 95.0)),
        ),
        (
            "engine.wal_bytes_per_commit",
            ratio(counts.wal_bytes, committed),
        ),
        (
            "engine.wal_syncs_per_commit",
            ratio(counts.wal_syncs, committed),
        ),
        (
            "engine.wal_sync_waits_per_commit",
            ratio(counts.wal_sync_waits, committed),
        ),
        ("engine.fsync_wait_p50_us", us(counts.fsync_wait_p50_ns)),
        ("engine.fsync_wait_p95_us", us(counts.fsync_wait_p95_ns)),
        ("engine.checkpoint_ms", checkpoint_ms),
        (
            "engine.reopen_ms_per_krecord",
            if replayed > 0 {
                reopen_ms / (replayed as f64 / 1e3)
            } else {
                0.0
            },
        ),
        ("engine.route_ns", probes.route_ns),
        ("engine.cluster_local_txn_p50_us", p50(local)),
        ("engine.cluster_cross_txn_p50_us", p50(cross)),
        (
            "engine.cluster_cross_share",
            ratio(
                counts.cluster_cross_commits,
                counts.cluster_single_commits + counts.cluster_cross_commits,
            ),
        ),
        (
            "engine.cluster_cross_aborts_per_kcommit",
            per_k(counts.cluster_cross_aborts),
        ),
        (
            "engine.cluster_spared_per_kcommit",
            per_k(counts.cluster_spared),
        ),
        ("server.send_us_per_txn", per_txn_us(spans.send_ns)),
        ("server.wait_us_per_txn", per_txn_us(spans.recv_ns)),
        (
            "server.requests_per_commit",
            ratio(counts.session_requests, committed),
        ),
        (
            "server.worker_parks_per_kcommit",
            per_k(counts.worker_parks),
        ),
        (
            "server.lock_wakeups_per_kcommit",
            per_k(counts.lock_wakeups),
        ),
        ("process.rss_peak_mb", sys::rss_peak_mb()),
        (
            "process.trace_overhead_share",
            1.0 - fixed_work_tps(&results) / untraced_tps,
        ),
        ("client.lat_p99_us", us(percentile(&lat, 99.0))),
        ("client.lat_max_us", us(lat.last().copied().unwrap_or(0))),
        ("client.txn_self_us", per_txn_us(spans.self_ns)),
    ]);
    let mut notes = vec![
        ("latency_samples", lat.len().to_string()),
        (
            "spans",
            results
                .iter()
                .map(|r| r.spans.len())
                .sum::<usize>()
                .to_string(),
        ),
        ("untraced_tps", format!("{untraced_tps:.1}")),
        ("input_digest", format!("{input_digest:016x}")),
    ];
    if let Some(dir) = &o.out {
        let path = dir.join(format!("trace-{}.jsonl", w.name));
        match trace::write_jsonl(&path, layer, results.iter().flat_map(|r| &r.spans)) {
            Ok(()) => notes.push(("trace_file", path.display().to_string())),
            Err(e) => b.problem(format!("cannot write {}: {e}", path.display())),
        }
    }
    Traced {
        outcome: Outcome {
            problems: b.finish(),
            attempted: committed + failed,
            failed,
            metrics,
            notes,
        },
        input_digest,
    }
}

/// Where the record says the run happened.
fn context_json(w: &Workload, o: &Options, traced: bool) -> String {
    let wal_fs = match w.top {
        Top::Durable => sys::fs_type(wal_dir()),
        _ => "none".to_string(),
    };
    format!(
        "\"workload\": {}, \"mode\": \"{}\", \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"clients\": {}, \"revision\": {}, \"wal_fs\": {}",
        json_string(w.name),
        mode_name(traced),
        o.seed,
        o.seconds,
        sys::nproc(),
        o.clients,
        json_string(&std::env::var("OBSERVATORY_REV").unwrap_or_else(|_| "unknown".into())),
        json_string(&wal_fs),
    )
}

fn mode_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "gated"
    }
}

/// Print one run for people, keep its record, and print the result line last.
fn report(w: &Workload, o: &Options, traced: bool, out: &Outcome) {
    println!("# {} ({}), seed {}", w.name, mode_name(traced), o.seed);
    for &(name, v) in &out.metrics.0 {
        let unit = metrics::unit_of(name);
        println!("{name:<44} {v:>16.4} {unit}");
    }
    for (k, v) in &out.notes {
        println!("  {k}: {v}");
    }
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_string(p)).collect();
    let record = format!(
        "{{{}, \"notes\": {{{}}}, \"problems\": [{}], \"result\": {}}}",
        context_json(w, o, traced),
        notes.join(", "),
        problems.join(", "),
        out.result_json()
    );
    if let Some(dir) = &o.out {
        let name = format!("{}-{}.json", w.name, mode_name(traced));
        if let Err(e) = std::fs::write(dir.join(&name), record + "\n") {
            eprintln!("observatory: cannot write {name}: {e}");
        }
    }
    println!("{}", out.result_json());
}

fn run_all(o: &Options) -> bool {
    let mut ok = true;
    let mut cpu_us = Vec::new();
    let mut cross = (0.0, 0.0);
    for w in &WORKLOADS {
        let g = gated(w, o);
        report(w, o, false, &g);
        let t = traced(w, o).outcome;
        report(w, o, true, &t);
        ok &= g.correct() && t.correct();
        cpu_us.push((w.name, g.metrics.get("cpu_us_per_commit").unwrap_or(0.0)));
        if w.top == Top::Cluster {
            cross = (
                t.metrics
                    .get("engine.cluster_local_txn_p50_us")
                    .unwrap_or(0.0),
                t.metrics
                    .get("engine.cluster_cross_txn_p50_us")
                    .unwrap_or(0.0),
            );
        }
    }
    let cost = |name: &str| {
        cpu_us
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, us)| us)
    };
    let (si, ssi, wire) = (
        cost("readmostly-si"),
        cost("readmostly-ssi"),
        cost("wire-tcp"),
    );
    println!("# cost ladder: gated cpu_us_per_commit of one read-mostly transaction");
    println!("readmostly-si   {si:>10.2}");
    println!("readmostly-ssi  {ssi:>10.2}   (+{:.2} for SSI)", ssi - si);
    println!(
        "wire-tcp        {wire:>10.2}   (+{:.2} for the server)",
        wire - ssi
    );
    println!(
        "cluster-cross   local {:.2} -> cross {:.2} us   (+{:.2} for 2PC; traced latency p50)",
        cross.0,
        cross.1,
        cross.1 - cross.0
    );
    ok
}

/// Two traced passes with one seed and one client must see the same inputs
/// and the same counts; another seed must change the inputs.
fn self_test(o: &Options) -> bool {
    const COUNTS: [&str; 4] = [
        "lockmgr.acquires_per_commit",
        "engine.wal_bytes_per_commit",
        "server.requests_per_commit",
        "engine.cluster_cross_share",
    ];
    let mut ok = true;
    for w in &WORKLOADS {
        let run = |seed| {
            traced(
                w,
                &Options {
                    workload: w.name.to_string(),
                    seed,
                    seconds: 60.0,
                    traced: true,
                    clients: 1,
                    trace_txns: 5_000,
                    out: None,
                },
            )
        };
        let (a, b, c) = (run(o.seed), run(o.seed), run(o.seed + 1));
        let mut bad = Vec::new();
        if a.input_digest != b.input_digest {
            bad.push("inputs differ between two runs of one seed".to_string());
        }
        if a.input_digest == c.input_digest {
            bad.push("another seed gave the same inputs".to_string());
        }
        for name in COUNTS {
            let (x, y) = (a.outcome.metrics.get(name), b.outcome.metrics.get(name));
            if x != y {
                bad.push(format!("{name}: {x:?} then {y:?}"));
            }
        }
        for t in [&a, &b, &c] {
            bad.extend(t.outcome.problems.iter().cloned());
        }
        println!(
            "self-test {:<16} {}",
            w.name,
            if bad.is_empty() {
                "ok".to_string()
            } else {
                bad.join("; ")
            }
        );
        ok &= bad.is_empty();
    }
    ok
}

fn list() {
    let quote = json_string;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.0),
                quote(m.1),
                quote(m.2),
                m.3
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.0),
                quote(m.1),
                quote(m.2)
            )
        })
        .collect();
    println!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        end_to_end.join(", "),
        per_layer.join(", ")
    );
}

fn main() {
    let (o, mode) = parse_args();
    if let Some(dir) = &o.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("observatory: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let ok = match (mode, o.workload.as_str()) {
        (Some("list"), _) => {
            list();
            true
        }
        (Some(_), _) => self_test(&o),
        (None, "all") => run_all(&o),
        (None, name) => {
            let Some(w) = gen::workload(name) else {
                usage()
            };
            let out = if o.traced {
                traced(w, &o).outcome
            } else {
                gated(w, &o)
            };
            report(w, &o, o.traced, &out);
            out.correct()
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
