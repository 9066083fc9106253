//! Commit-history recording and the serializability invariant checker.
//!
//! Scenario workloads record, for every transaction whose `commit()` returned
//! `Ok`, what it read and wrote plus its snapshot and commit CSNs. The checks
//! then assert the TLA+-style correctness properties of serializable snapshot
//! isolation over that history:
//!
//! 1. **Snapshot reads** (`SnapshotRead` in the TLA+ spec): every read
//!    observes exactly the latest write committed strictly before the
//!    reader's snapshot CSN (the engine's visibility rule is
//!    `commit_csn < snapshot.csn`).
//! 2. **First-committer-wins** (`NoDirtyLostUpdate`): no two committed
//!    transactions may both write a key unless one committed before the
//!    other's snapshot was taken — i.e. a committed writer invisible to your
//!    snapshot forces your abort.
//! 3. **Serializability** (`AcyclicSG`): the serialization graph over the
//!    committed history — ww edges in CSN order, wr edges from observed
//!    reads, rw antidependencies from each read to the next writer of that
//!    key — has no cycle. This is the whole point of SSI (§2.3 of the
//!    paper): snapshot isolation alone admits cycles with exactly two
//!    rw edges; the pivot rule must have broken them.
//!
//! Workloads make every written value globally unique, so "which committed
//! write produced this observed value" is a plain lookup and wr edges are
//! exact, not inferred.

use parking_lot::Mutex;
use std::collections::HashMap;

/// One committed transaction, as observed by the workload that ran it.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// Workload label (`t2/17`: thread 2, logical txn 17) for reports.
    pub label: String,
    /// Engine transaction id of the committed attempt.
    pub txid: u64,
    /// CSN of the snapshot the attempt ran against.
    pub snapshot_csn: u64,
    /// CSN assigned at commit.
    pub commit_csn: u64,
    /// `(key, observed value)` — reads all precede writes in the workloads.
    pub reads: Vec<(i64, i64)>,
    /// `(key, written value)` — values are globally unique per attempt.
    pub writes: Vec<(i64, i64)>,
}

/// Thread-safe commit-history sink shared by workload threads.
#[derive(Default)]
pub struct History {
    committed: Mutex<Vec<CommittedTxn>>,
}

impl History {
    pub fn new() -> History {
        History::default()
    }

    pub fn push(&self, txn: CommittedTxn) {
        self.committed.lock().push(txn);
    }

    /// Drain the recorded history (post-run, single-threaded).
    pub fn take(&self) -> Vec<CommittedTxn> {
        std::mem::take(&mut self.committed.lock())
    }
}

/// Run every invariant over a committed history; returns human-readable
/// violations (empty = clean). `history` must include the genesis/seeding
/// transaction so initial values resolve.
pub fn check(history: &[CommittedTxn]) -> Vec<String> {
    let mut violations = Vec::new();

    // Unique-value discipline is what makes wr edges exact; a duplicate is a
    // workload bug that would mask real violations, so it is itself fatal.
    let mut by_value: HashMap<(i64, i64), usize> = HashMap::new();
    for (i, t) in history.iter().enumerate() {
        for &(k, v) in &t.writes {
            if let Some(&j) = by_value.get(&(k, v)) {
                violations.push(format!(
                    "workload bug: {} and {} both wrote value {v} to key {k}",
                    history[j].label, t.label
                ));
            }
            by_value.insert((k, v), i);
        }
    }

    // Writers of each key, sorted by commit CSN (CSNs are unique).
    let mut writers: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, t) in history.iter().enumerate() {
        for &(k, _) in &t.writes {
            writers.entry(k).or_default().push(i);
        }
    }
    for list in writers.values_mut() {
        list.sort_by_key(|&i| history[i].commit_csn);
    }

    // First-committer-wins: for writers E before L (by commit CSN) of the
    // same key, E must have been visible to L's snapshot (E.ccsn < L.scsn).
    for list in writers.values() {
        for (a, &e) in list.iter().enumerate() {
            for &l in &list[a + 1..] {
                let (first, second) = (&history[e], &history[l]);
                if first.commit_csn >= second.snapshot_csn {
                    violations.push(format!(
                        "first-committer-wins violated: {} (ccsn {}) and {} \
                         (scsn {}, ccsn {}) concurrently wrote the same key",
                        first.label,
                        first.commit_csn,
                        second.label,
                        second.snapshot_csn,
                        second.commit_csn
                    ));
                }
            }
        }
    }

    // Snapshot reads: the observed writer must be the latest one committed
    // strictly before the reader's snapshot CSN.
    let n = history.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, t) in history.iter().enumerate() {
        for &(k, v) in &t.reads {
            let Some(&w) = by_value.get(&(k, v)) else {
                violations.push(format!(
                    "{} read value {v} at key {k} that no committed transaction wrote",
                    t.label
                ));
                continue;
            };
            let observed = &history[w];
            if observed.commit_csn >= t.snapshot_csn {
                violations.push(format!(
                    "snapshot violated: {} (scsn {}) observed {}'s write \
                     (ccsn {}) from its future",
                    t.label, t.snapshot_csn, observed.label, observed.commit_csn
                ));
                continue;
            }
            if let Some(list) = writers.get(&k) {
                // Latest writer visible to the snapshot.
                let expected = list
                    .iter()
                    .copied()
                    .filter(|&i| history[i].commit_csn < t.snapshot_csn)
                    .max_by_key(|&i| history[i].commit_csn);
                if expected != Some(w) {
                    let exp = expected.map_or("<none>", |i| history[i].label.as_str());
                    violations.push(format!(
                        "stale read: {} (scsn {}) observed {}'s write at key {k} \
                         but {exp}'s was the latest visible",
                        t.label, t.snapshot_csn, observed.label
                    ));
                }
                // rw antidependency: the reader must serialize before the
                // *next* writer of this key (later writers follow by ww).
                if let Some(&next) = list
                    .iter()
                    .find(|&&i| history[i].commit_csn > observed.commit_csn && i != r)
                {
                    edges[r].push(next);
                }
            }
            // wr: the observed writer serializes before the reader.
            if w != r {
                edges[w].push(r);
            }
        }
    }

    // ww edges along each key's CSN chain.
    for list in writers.values() {
        for pair in list.windows(2) {
            if pair[0] != pair[1] {
                edges[pair[0]].push(pair[1]);
            }
        }
    }

    // Cycle detection (iterative coloring DFS; the graph is small).
    if let Some(cycle) = find_cycle(&edges) {
        let path: Vec<&str> = cycle.iter().map(|&i| history[i].label.as_str()).collect();
        violations.push(format!(
            "serialization graph has a cycle: {}",
            path.join(" -> ")
        ));
    }

    violations
}

/// Cross-shard serialization-graph acyclicity over a *merged* sharded
/// history.
///
/// `shard_histories[s]` holds shard `s`'s projection of every committed
/// transaction that touched it; a cross-shard transaction appears in several
/// projections under the **same label**, each carrying that shard's local
/// CSNs. CSNs from different shards are incomparable, so the global checks
/// (snapshot reads, first-committer-wins) only run per shard via [`check`];
/// what *is* well-defined globally is the serialization graph: every key
/// lives on exactly one shard, so per-key writer order (ww), observed-write
/// edges (wr), and read-to-next-writer antidependencies (rw) all derive
/// shard-locally and fold onto one node per label. A cycle here is exactly
/// the anomaly the coordinator's conservative 2PC rule exists to prevent:
/// each shard's projection can look serializable while the union is not
/// (the distributed write skew shape).
///
/// A cycle is reported with every edge on it, as
/// `a (scsn,ccsn) -kind sS/kK-> b (scsn,ccsn)`: the edge's kind (rw, wr or
/// ww), the shard and key it was derived from, and both endpoints' snapshot
/// and commit CSNs on that shard.
pub fn check_merged_acyclic(shard_histories: &[Vec<CommittedTxn>]) -> Vec<String> {
    let mut violations = Vec::new();
    // One global node per label.
    let mut node_of: HashMap<&str, usize> = HashMap::new();
    let mut labels: Vec<&str> = Vec::new();
    for h in shard_histories {
        for t in h {
            node_of.entry(t.label.as_str()).or_insert_with(|| {
                labels.push(t.label.as_str());
                labels.len() - 1
            });
        }
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); labels.len()];
    // First witness of each global edge, for the cycle report.
    let mut why: HashMap<(usize, usize), String> = HashMap::new();

    for (shard, hist) in shard_histories.iter().enumerate() {
        let mut by_value: HashMap<(i64, i64), usize> = HashMap::new();
        for (i, t) in hist.iter().enumerate() {
            for &(k, v) in &t.writes {
                by_value.insert((k, v), i);
            }
        }
        let mut writers: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, t) in hist.iter().enumerate() {
            for &(k, _) in &t.writes {
                writers.entry(k).or_default().push(i);
            }
        }
        for list in writers.values_mut() {
            list.sort_by_key(|&i| hist[i].commit_csn);
        }

        let g = |i: usize| node_of[hist[i].label.as_str()];
        let mut add = |a: usize, b: usize, kind: &str, k: i64| {
            edges[g(a)].push(g(b));
            why.entry((g(a), g(b))).or_insert_with(|| {
                let (ta, tb) = (&hist[a], &hist[b]);
                format!(
                    "{} ({},{}) -{kind} s{shard}/k{k}-> {} ({},{})",
                    ta.label,
                    ta.snapshot_csn,
                    ta.commit_csn,
                    tb.label,
                    tb.snapshot_csn,
                    tb.commit_csn
                )
            });
        };
        for (r, t) in hist.iter().enumerate() {
            for &(k, v) in &t.reads {
                let Some(&w) = by_value.get(&(k, v)) else {
                    violations.push(format!(
                        "merged history: {} read value {v} at key {k} that no \
                         committed transaction wrote",
                        t.label
                    ));
                    continue;
                };
                if let Some(list) = writers.get(&k) {
                    if let Some(&next) = list
                        .iter()
                        .find(|&&i| hist[i].commit_csn > hist[w].commit_csn && i != r)
                    {
                        add(r, next, "rw", k);
                    }
                }
                if w != r {
                    add(w, r, "wr", k);
                }
            }
        }
        for (&k, list) in &writers {
            for pair in list.windows(2) {
                if pair[0] != pair[1] {
                    add(pair[0], pair[1], "ww", k);
                }
            }
        }
    }
    // Self-edges from fold artifacts are meaningless; drop them.
    for (i, out) in edges.iter_mut().enumerate() {
        out.retain(|&j| j != i);
    }
    if let Some(cycle) = find_cycle(&edges) {
        let path: Vec<&str> = cycle.iter().map(|&i| labels[i]).collect();
        let steps = cycle.iter().zip(cycle.iter().cycle().skip(1));
        let edge_lines: Vec<&str> = steps.map(|(&a, &b)| why[&(a, b)].as_str()).collect();
        violations.push(format!(
            "merged cross-shard serialization graph has a cycle: {}\n    {}",
            path.join(" -> "),
            edge_lines.join("\n    ")
        ));
    }
    violations
}

/// Return one cycle (as node indices, first repeated implicitly) if any.
fn find_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = edges.len();
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        // (node, next edge index) explicit stack.
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Gray;
        while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
            if *ei < edges[u].len() {
                let v = edges[u][*ei];
                *ei += 1;
                match color[v] {
                    Color::White => {
                        color[v] = Color::Gray;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    Color::Gray => {
                        // Found a back edge u -> v: walk parents from u to v.
                        let mut path = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    Color::Black => {}
                }
            } else {
                color[u] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(
        label: &str,
        scsn: u64,
        ccsn: u64,
        reads: &[(i64, i64)],
        writes: &[(i64, i64)],
    ) -> CommittedTxn {
        CommittedTxn {
            label: label.to_string(),
            txid: ccsn,
            snapshot_csn: scsn,
            commit_csn: ccsn,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn clean_serial_history_passes() {
        let h = vec![
            txn("init", 0, 1, &[], &[(1, 100), (2, 200)]),
            txn("a", 2, 3, &[(1, 100)], &[(1, 101)]),
            txn("b", 4, 5, &[(1, 101), (2, 200)], &[(2, 201)]),
        ];
        assert!(check(&h).is_empty(), "{:?}", check(&h));
    }

    #[test]
    fn lost_update_is_flagged_as_fcw_violation() {
        // Both writers of key 1 took their snapshots before either committed.
        let h = vec![
            txn("init", 0, 1, &[], &[(1, 100)]),
            txn("a", 2, 3, &[(1, 100)], &[(1, 101)]),
            txn("b", 2, 4, &[(1, 100)], &[(1, 102)]),
        ];
        let v = check(&h);
        assert!(
            v.iter().any(|m| m.contains("first-committer-wins")),
            "{v:?}"
        );
    }

    #[test]
    fn write_skew_is_flagged_as_a_cycle() {
        // Classic SI write skew: disjoint writes, crossed reads.
        let h = vec![
            txn("init", 0, 1, &[], &[(1, 100), (2, 200)]),
            txn("a", 2, 3, &[(1, 100), (2, 200)], &[(1, 101)]),
            txn("b", 2, 4, &[(1, 100), (2, 200)], &[(2, 201)]),
        ];
        let v = check(&h);
        assert!(v.iter().any(|m| m.contains("cycle")), "{v:?}");
    }

    #[test]
    fn future_read_is_flagged() {
        let h = vec![
            txn("init", 0, 1, &[], &[(1, 100)]),
            txn("w", 2, 3, &[], &[(1, 101)]),
            // scsn 3 means w (ccsn 3) is NOT visible, yet we observed it.
            txn("r", 3, 4, &[(1, 101)], &[]),
        ];
        let v = check(&h);
        assert!(v.iter().any(|m| m.contains("snapshot violated")), "{v:?}");
    }

    #[test]
    fn merged_check_catches_distributed_write_skew() {
        // Key 1 lives on shard 0, key 2 on shard 1. T1 reads 1 / writes 2,
        // T2 reads 2 / writes 1: each shard's projection is serializable on
        // its own, the union is the classic write-skew cycle.
        let shard0 = vec![
            txn("g0", 0, 1, &[], &[(1, 100)]),
            txn("t1", 2, 3, &[(1, 100)], &[]),
            txn("t2", 2, 4, &[], &[(1, 101)]),
        ];
        let shard1 = vec![
            txn("g1", 0, 1, &[], &[(2, 200)]),
            txn("t2", 2, 3, &[(2, 200)], &[]),
            txn("t1", 2, 4, &[], &[(2, 201)]),
        ];
        assert!(check(&shard0).is_empty(), "{:?}", check(&shard0));
        assert!(check(&shard1).is_empty(), "{:?}", check(&shard1));
        let v = check_merged_acyclic(&[shard0, shard1]);
        assert!(
            v.iter()
                .any(|m| m.contains("cross-shard") && m.contains("cycle")),
            "{v:?}"
        );
        // Each edge of the cycle names its kind, shard, key and endpoints'
        // shard-local CSNs.
        assert!(
            v[0].contains("t1 (2,3) -rw s0/k1-> t2 (2,4)")
                && v[0].contains("t2 (2,3) -rw s1/k2-> t1 (2,4)"),
            "{v:?}"
        );
    }

    #[test]
    fn merged_check_passes_serializable_sharded_history() {
        let shard0 = vec![
            txn("g0", 0, 1, &[], &[(1, 100)]),
            txn("t1", 2, 3, &[(1, 100)], &[(1, 101)]),
        ];
        let shard1 = vec![
            txn("g1", 0, 1, &[], &[(2, 200)]),
            txn("t1", 2, 3, &[(2, 200)], &[(2, 201)]),
            txn("t2", 4, 5, &[(2, 201)], &[]),
        ];
        let v = check_merged_acyclic(&[shard0, shard1]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_read_is_flagged() {
        let h = vec![
            txn("init", 0, 1, &[], &[(1, 100)]),
            txn("w", 2, 3, &[], &[(1, 101)]),
            // scsn 5: w's 101 is the latest visible, but we saw the initial.
            txn("r", 5, 6, &[(1, 100)], &[]),
        ];
        let v = check(&h);
        assert!(v.iter().any(|m| m.contains("stale read")), "{v:?}");
    }
}
