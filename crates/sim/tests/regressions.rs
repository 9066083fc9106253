//! Simulation-harness regression suite: pinned seeds for the historical
//! races, determinism and fault-soundness guarantees, and clean sweeps.
//!
//! Seeds pinned here were once failing (or demonstrate a planted bug via an
//! emulation gate) and must stay pinned even after the underlying code moves:
//! the point is that `(scenario, seed)` remains a stable replay artifact.

use pgssi_sim::{run_scenario, scenario, SCENARIOS};

/// Same seed twice → byte-identical schedule. This is the property every
/// other test leans on: a failing seed printed by a sweep replays exactly.
#[test]
fn same_seed_replays_byte_identical() {
    pgssi_sim::runner::quiet_sim_panics();
    for (name, seed) in [
        ("mix", 3u64),
        ("crash", 7),
        ("repl", 5),
        ("cluster", 4),
        ("pivot", 2),
        ("pool", 31),
    ] {
        let go = |name: &str| match name {
            "mix" => scenario::mix(seed, 1),
            "crash" => scenario::crash(seed, 1),
            "repl" => scenario::repl(seed, 1),
            "cluster" => scenario::cluster(seed, 1),
            "pool" => scenario::pool(seed, 1),
            _ => scenario::pivot(seed, 1, false),
        };
        let a = go(name);
        let b = go(name);
        assert_eq!(
            a.run.steps, b.run.steps,
            "{name}/{seed}: step counts differ"
        );
        assert_eq!(
            a.run.vnow_ns, b.run.vnow_ns,
            "{name}/{seed}: virtual clocks differ"
        );
        let ta: Vec<String> = a.run.trace.iter().map(|e| e.to_string()).collect();
        let tb: Vec<String> = b.run.trace.iter().map(|e| e.to_string()).collect();
        assert_eq!(ta, tb, "{name}/{seed}: traces differ");
    }
}

/// `pool` seed 31 replayed two ways while writers walked a `RandomState`
/// owner directory to force-publish readers; one pair can agree by chance.
#[test]
fn pool_seed_31_replays_byte_identical_ten_times() {
    pgssi_sim::runner::quiet_sim_panics();
    let replay = || {
        let o = scenario::pool(31, 1);
        let trace: Vec<String> = o.run.trace.iter().map(|e| e.to_string()).collect();
        (o.run.steps, o.run.vnow_ns, trace)
    };
    let first = replay();
    for run in 1..10 {
        let again = replay();
        assert!(
            again == first,
            "run {run}: steps, virtual clock or trace differ"
        );
    }
}

/// Different seeds must actually explore different schedules (otherwise the
/// sweep is 64 copies of one interleaving).
#[test]
fn different_seeds_differ() {
    let a = scenario::mix(0, 1);
    let b = scenario::mix(1, 1);
    let ta: Vec<String> = a.run.trace.iter().map(|e| e.to_string()).collect();
    let tb: Vec<String> = b.run.trace.iter().map(|e| e.to_string()).collect();
    assert_ne!(ta, tb, "seeds 0 and 1 produced identical mix schedules");
}

/// PR 4's pivot-precommit race, re-enabled behind its gate: the pivot's
/// precommit lands between a concurrent T3's commit-CSN assignment and the
/// fold of that CSN into the pivot's bound, so skipping the commit-time
/// re-check lets a three-way rw-antidependency cycle commit. Seed 0 is the
/// pinned reproduction; the checker must report a serialization-graph cycle.
#[test]
fn pivot_emulation_reproduces_precommit_race() {
    let out = run_scenario("pivot", 0, 1, true);
    assert!(
        out.violations.iter().any(|v| v.contains("cycle")),
        "emulated pivot race not detected on pinned seed 0: {:?}",
        out.violations
    );
}

/// With the real (gated-off) code, the same choreography must be broken by
/// the order-mutex-authoritative commit-time pivot re-check on every seed.
#[test]
fn pivot_clean_without_emulation() {
    for seed in 0..16 {
        let out = run_scenario("pivot", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "pivot seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// The §8.4 atomic-capture invariant (every serializable read/write racer in
/// flight when a commit record was captured is named in its `concurrent_rw`
/// and in progress in its snapshot) holds on every seed. No emulation gate
/// proves this checker live; a hand mutation does — moving the capture in
/// `WalStream::publish_commit` out of the commit-order section turns every
/// seed red (CHANGES.md, PR 17).
#[test]
fn repl_capture_is_atomic() {
    for seed in 0..16 {
        let out = run_scenario("repl", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "repl seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// An in-memory database keeps no log, and with the log go its
/// `durable-append` / `wal-append` yield points — interleavings inside the
/// commit path that the `cluster` scenario needs: they are the window between
/// a branch's PREPARE and the append of its record where, while PREPARE read
/// its conflict facts in one step and marked the branch conservative in a
/// later one, an rw edge could land in neither net. The scenario therefore
/// asks for a log explicitly; this pins that it still does, and that the
/// twelve seeds of 0..4096 that window turned red stay green now that facts
/// and marking are one step.
#[test]
fn cluster_keeps_its_append_yields_and_prepare_window_seeds_are_green() {
    let trace: Vec<String> = scenario::cluster(4, 1)
        .run
        .trace
        .iter()
        .map(|e| e.to_string())
        .collect();
    for site in ["durable-append", "wal-append"] {
        assert!(
            trace
                .iter()
                .any(|l| l.contains("yield") && l.contains(site)),
            "cluster trace has no {site} yield: the scenario lost its log"
        );
    }
    for seed in [
        11u64, 110, 265, 714, 1193, 1237, 1610, 1659, 2781, 3216, 3428, 3889,
    ] {
        let out = run_scenario("cluster", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "cluster seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// The residue the PREPARE fix leaves: a cross-shard transaction has no
/// single commit point or snapshot. Here W = `c2/1` read k3 on shard 1 and
/// wrote k1 on shard 0, and R = `c1/4` read k1 on shard 0 and wrote k3 on
/// shard 1. On shard 0, R read k1 at snapshot 2, which does not see W's
/// commit there (CSN 2). On shard 1, W's writeless branch committed at CSN 6,
/// the frontier R's branch took its snapshot at before overwriting k3. Each
/// shard holds one of the two rw edges, so neither sees a pivot, and the
/// merged graph has the 2-cycle `c2/1 -rw s1/k3-> c1/4 -rw s0/k1-> c2/1`.
/// Pinned red so it cannot turn green by a schedule shift; re-find it with
/// `sim_ssi --scenario cluster --seeds 0..65536` if it moves, and re-pin it
/// green when cross-shard commit and snapshot skew are closed.
#[test]
fn cluster_seed_31202_stays_red_until_cross_shard_skew_is_closed() {
    let out = run_scenario("cluster", 31202, 1, false);
    assert!(
        out.violations.iter().any(|v| v.contains("cycle")),
        "cluster seed 31202 no longer reports the merged-graph cycle; if \
         cross-shard skew was fixed, re-pin it as a passing seed: {:?}",
        out.violations
    );
}

/// Two more cross-shard-skew seeds from the 0..65536 sweep, pinned red like
/// 31202 so a schedule shift cannot hide them.
#[test]
fn cluster_seeds_18637_and_39284_stay_red_until_cross_shard_skew_is_closed() {
    for seed in [18637, 39284] {
        let out = run_scenario("cluster", seed, 1, false);
        assert!(
            out.violations.iter().any(|v| v.contains("cycle")),
            "cluster seed {seed} no longer reports the merged-graph cycle; if \
             cross-shard skew was fixed, re-pin it as a passing seed: {:?}",
            out.violations
        );
    }
}

/// `pool` seed 2974 (plan `drop-wake 50‰`, 490 steps): client 3's first
/// transaction fails COMMIT with "doomed transaction reached commit", though
/// the scenario's clients use disjoint keys, so no serialization failure
/// should be possible. The cause is not diagnosed; a page-grain gap-lock
/// edge on the empty table's single leaf is one candidate. Pinned red so a
/// schedule shift cannot hide it: re-find it with `sim_ssi --seeds 0..8192`
/// if it moves, and re-pin it green once the false conflict is explained and
/// removed.
#[test]
fn pool_seed_2974_stays_red_until_its_false_conflict_is_explained() {
    let out = run_scenario("pool", 2974, 1, false);
    assert!(
        out.violations
            .iter()
            .any(|v| v.contains("doomed transaction reached commit")),
        "pool seed 2974 no longer reports the doomed commit; if the false \
         conflict was removed, re-pin it as a passing seed: {:?}",
        out.violations
    );
}

/// Crash fault-soundness: every crash seed reboots the engine from the
/// surviving bytes and the scenario itself compares recovery against an
/// independent prefix-replay oracle plus the acked ⊆ recovered guarantee.
/// Seed 2 is pinned: its plan fails the first sync, which once fired during
/// scenario *setup* (before the scheduler started) and panicked the harness
/// instead of a simulated thread — fault arming must exclude setup.
#[test]
fn crash_seeds_are_fault_sound() {
    for seed in 0..16 {
        let out = run_scenario("crash", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "crash seed {seed} failed fault soundness: {:?}",
            out.violations
        );
    }
}

/// Mix seeds 1, 10, 11 are pinned: their drop-wakeup plans leave the final
/// finishes writeless, and the snapshot oracle once demanded exact xip
/// equality — stricter than the engine's documented contract, which lets
/// the maintained snapshot keep clog-finalized writeless ids until the next
/// writing finish filters them.
#[test]
fn mix_writeless_finish_seeds_stay_clean() {
    for seed in [1u64, 10, 11] {
        let out = run_scenario("mix", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "mix seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// A fresh slice of the default sweep, in-process (the CI sweep runs the
/// binary over 0..64; this keeps `cargo test` self-contained).
#[test]
fn default_sweep_slice_passes() {
    for &name in SCENARIOS {
        for seed in 0..8 {
            let out = run_scenario(name, seed, 1, false);
            assert!(
                out.violations.is_empty(),
                "{name} seed {seed} failed: {:?}\n{}",
                out.violations,
                out.report()
            );
        }
    }
}

/// The `mix` scenario's DEFERRABLE reader must actually park on the
/// safe-snapshot wait on some seeds — otherwise the sweep no longer
/// schedules the register-then-sleep window of the gated safety notify
/// (`SsiManager::wake_safety_waiters`), and a lost wake-up there would go
/// unseen. With that notify deleted, every seed whose reader parks reports
/// "slept to the safe-snapshot deadline" (seed 0 is one).
#[test]
fn mix_parks_a_deferrable_reader() {
    let parked = (0..8u64)
        .filter(|&seed| {
            scenario::mix(seed, 1).run.trace.iter().any(|e| {
                let line = e.to_string();
                line.contains("block") && line.contains("safety-wait")
            })
        })
        .count();
    assert!(
        parked > 0,
        "no mix seed in 0..8 parked its DEFERRABLE reader"
    );
}
