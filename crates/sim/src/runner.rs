//! Dispatch and reporting: run `(scenario, seed)` pairs and fold the results
//! into a compact, replayable report.

use std::sync::Once;

use pgssi_common::sim;

use crate::scenario::{self, Outcome};

/// Scenarios in the default sweep. `pivot` is excluded: without the emulated
/// race it is a (useful but slower) subset of `mix`'s checks, and regression
/// tests drive it explicitly with the race enabled.
pub const SCENARIOS: &[&str] = &["mix", "crash", "repl", "pool", "cluster"];

/// Default workload scale (multiplies per-thread transaction counts).
pub const DEFAULT_SCALE: u32 = 1;

/// One `(scenario, seed)` execution, flattened for reporting.
pub struct SeedOutcome {
    pub scenario: &'static str,
    pub seed: u64,
    /// Invariant violations; empty = passed.
    pub violations: Vec<String>,
    /// Scheduling decisions taken (a cheap fingerprint of the schedule).
    pub steps: u64,
    /// Virtual time consumed, nanoseconds.
    pub vnow_ns: u64,
    /// The fault plan that was in force.
    pub plan: String,
    /// Formatted tail of the event trace (only populated on failure).
    pub trace_tail: Vec<String>,
}

impl SeedOutcome {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render a failure for the console: the replay command line first, since
    /// that is what the reader will paste.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FAIL scenario={} seed={} (replay: sim_ssi --scenario {} --seed {})\n",
            self.scenario, self.seed, self.scenario, self.seed
        ));
        out.push_str(&format!(
            "  plan: {}\n  steps: {} (vtime {} ms)\n",
            self.plan,
            self.steps,
            self.vnow_ns / 1_000_000
        ));
        for v in &self.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        if !self.trace_tail.is_empty() {
            out.push_str("  trace tail:\n");
            for line in &self.trace_tail {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// How many trace events to keep in a failure report.
const TRACE_TAIL: usize = 40;

fn flatten(scenario: &'static str, seed: u64, outcome: Outcome) -> SeedOutcome {
    let Outcome {
        run,
        violations,
        plan,
    } = outcome;
    let trace_tail = if violations.is_empty() {
        Vec::new()
    } else {
        let skip = run.trace.len().saturating_sub(TRACE_TAIL);
        run.trace[skip..].iter().map(|e| e.to_string()).collect()
    };
    SeedOutcome {
        scenario,
        seed,
        violations,
        steps: run.steps,
        vnow_ns: run.vnow_ns,
        plan: plan.describe(),
        trace_tail,
    }
}

/// Run one scenario under one seed. `emulate` re-enables the gated historical
/// race in `pivot`; the other scenarios ignore it.
pub fn run_scenario(name: &str, seed: u64, scale: u32, emulate: bool) -> SeedOutcome {
    quiet_sim_panics();
    match name {
        "mix" => flatten("mix", seed, scenario::mix(seed, scale)),
        "crash" => flatten("crash", seed, scenario::crash(seed, scale)),
        "repl" => flatten("repl", seed, scenario::repl(seed, scale)),
        "pool" => flatten("pool", seed, scenario::pool(seed, scale)),
        "cluster" => flatten("cluster", seed, scenario::cluster(seed, scale)),
        "pivot" => flatten("pivot", seed, scenario::pivot(seed, scale, emulate)),
        other => {
            panic!("unknown scenario {other:?} (have: mix, crash, repl, pool, cluster, pivot)")
        }
    }
}

/// Suppress panic *printing* from sim threads, process-wide. Injected crashes
/// legitimately panic committing threads; the scheduler captures the payloads
/// into `SimRun::panics`, so the default hook's backtrace spew is pure noise
/// across a thousand-seed sweep. Non-sim threads keep the default hook.
pub fn quiet_sim_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if sim::is_sim_thread() {
                return;
            }
            default(info);
        }));
    });
}
