//! Lightweight concurrent counters, latency histograms, an abort taxonomy,
//! and a per-transaction event tracer.
//!
//! The SSI core, lock managers, and benchmark harnesses all report activity through
//! [`Counter`]s gathered into named snapshots. Counters are relaxed atomics — they
//! are monotone event counts, never synchronization — and each one is padded out to
//! its own cache line so that per-partition and per-thread counters bumped from
//! different cores never false-share (the SIREAD lock table keeps an array of them,
//! one pair per partition, precisely to measure multicore contention without
//! creating any).
//!
//! [`Histogram`] extends the same philosophy to latency distributions: log-bucketed
//! (HDR-style) sharded atomic buckets, recorded with one relaxed `fetch_add` per
//! sample, merged only at snapshot time. [`AbortStats`] classifies every
//! serialization failure and deadlock by kind and detecting site, and [`Tracer`]
//! is a fixed-size lock-free ring of per-transaction lifecycle events for
//! post-mortem inspection of a dangerous structure.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{Error, SerializationKind};

/// A monotonically increasing event counter, safe to bump from any thread.
///
/// Aligned to 64 bytes (one cache line on every target we care about) so adjacent
/// counters in an array do not ping-pong a shared line between cores.
///
/// Deliberately has no `reset()`: counters are bumped concurrently from worker
/// threads, and zeroing them from a coordinator mid-run races with in-flight
/// bumps. Warmup handling subtracts snapshots instead (see
/// `StatsReport::delta` in the engine crate).
#[derive(Default, Debug)]
#[repr(align(64))]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per octave: 2^3 = 8 linear steps between successive powers of
/// two, bounding the relative quantization error of any recorded value by
/// 1/8 = 12.5% (the bucket width is at most 1/8 of its lower bound).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: indices 0..8 are exact values
/// 0..8, and each of the remaining 61 octaves contributes 8 sub-buckets.
pub const HIST_BUCKETS: usize = SUBS * (64 - SUB_BITS as usize + 1);
/// Number of independently bumped bucket arrays. Threads are assigned
/// round-robin, so concurrent recorders mostly touch disjoint allocations.
const HIST_SHARDS: usize = 8;

/// Map a value to its bucket index. Values below 8 get exact buckets; above
/// that, the index is (octave, top-3-bits-after-the-msb), i.e. log-linear.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (msb - SUB_BITS + 1) as usize * SUBS + sub
}

/// Inclusive lower bound of bucket `index` — the value `percentile` reports,
/// so results are deterministic for a given stream of samples.
pub fn bucket_lower_bound(index: usize) -> u64 {
    let octave = index / SUBS;
    let sub = (index % SUBS) as u64;
    if octave == 0 {
        index as u64
    } else {
        (SUBS as u64 + sub) << (octave - 1)
    }
}

/// One shard: its own heap allocation of relaxed atomic buckets plus a
/// running maximum. The array lives behind a `Box`, so shards never share
/// cache lines; the header is additionally padded.
#[repr(align(64))]
struct HistShard {
    buckets: Box<[AtomicU64]>,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max: AtomicU64::new(0),
        }
    }
}

/// Per-thread shard assignment: round-robin on first use, cached thread-local.
fn shard_of() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
    }
    MINE.with(|m| *m)
}

/// Lock-free log-bucketed latency histogram.
///
/// Recording is one relaxed `fetch_add` on a thread-sharded bucket plus one
/// `fetch_max`; there is no lock anywhere on the record path. Values are
/// whatever unit the call site chooses (the engine records nanoseconds for
/// latency phases and plain record counts for replica lag). Quantization
/// error is bounded at 12.5% of the value (see [`HIST_BUCKETS`]).
pub struct Histogram {
    shards: Vec<HistShard>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Histogram {
    /// New, all-zero histogram.
    pub fn new() -> Histogram {
        Histogram {
            shards: (0..HIST_SHARDS).map(|_| HistShard::new()).collect(),
        }
    }

    /// Start a timing span.
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Record the nanoseconds elapsed since [`Histogram::start`].
    #[inline]
    pub fn record_elapsed(&self, started: Instant) {
        self.record(started.elapsed().as_nanos() as u64);
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[shard_of()];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merge all shards into one frozen snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = vec![0u64; HIST_BUCKETS];
        let mut max = 0u64;
        for shard in &self.shards {
            for (i, b) in shard.buckets.iter().enumerate() {
                counts[i] += b.load(Ordering::Relaxed);
            }
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        HistSnapshot { counts, max }
    }
}

/// A frozen, mergeable histogram: per-bucket counts plus the exact maximum.
#[derive(Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; HIST_BUCKETS],
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Total recorded samples (sum of bucket counts — exact, every `record`
    /// is a single atomic increment).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at percentile `p` (0–100): the lower bound of the bucket
    /// containing the sample of rank `ceil(p/100 × count)`. Deterministic,
    /// within 12.5% below the true order statistic. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        self.max
    }

    /// Add another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.max = self.max.max(other.max);
    }

    /// Samples recorded since `baseline` (per-bucket saturating subtraction).
    /// The maximum stays `self.max`: an exact windowed max is unrecoverable
    /// from bucket counts, and every sample in the window is ≤ `self.max`,
    /// so percentile ≤ max still holds on the delta.
    pub fn delta(&self, baseline: &HistSnapshot) -> HistSnapshot {
        let counts = self
            .counts
            .iter()
            .zip(&baseline.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistSnapshot {
            counts,
            max: self.max,
        }
    }
}

impl fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HistSnapshot(n={}, p50={}, p99={}, max={})",
            self.count(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max
        )
    }
}

/// Render a nanosecond value human-readably (`1.23µs`, `45.6ms`, …).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// Abort taxonomy
// ---------------------------------------------------------------------------

/// Where an abort was detected, mirroring the paper's check sites: during a
/// read (conflict-in discovered while publishing SIREADs, §3.1), during a
/// write (conflict-out on an existing SIREAD lock), while waiting on a row
/// lock (first-updater deadlock), at statement start (a concurrent commit
/// doomed us), at precommit (the §3.3.1 commit-ordering check), or at 2PC
/// PREPARE (§7.1's pessimistic pre-validation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortSite {
    Statement,
    OnRead,
    OnWrite,
    LockWait,
    Precommit,
    Prepare,
}

/// Display labels, indexed by `AbortSite as usize`.
pub const ABORT_SITES: [&str; 6] = [
    "stmt",
    "on_read",
    "on_write",
    "lock-wait",
    "precommit",
    "prepare",
];

/// Display labels for abort kinds: the five [`SerializationKind`]s in
/// declaration order, then deadlock.
pub const ABORT_KINDS: [&str; 6] = [
    "write-conflict",
    "pivot",
    "non-pivot",
    "summary",
    "doomed",
    "deadlock",
];

const N_KINDS: usize = ABORT_KINDS.len();
const N_SITES: usize = ABORT_SITES.len();

fn kind_index(kind: SerializationKind) -> usize {
    match kind {
        SerializationKind::WriteConflict => 0,
        SerializationKind::PivotAbort => 1,
        SerializationKind::NonPivotAbort => 2,
        SerializationKind::SummaryConflict => 3,
        SerializationKind::Doomed => 4,
    }
}

/// Per-(kind × site) abort counters plus a per-relation tally for the aborts
/// where the detecting site knows which relation the conflict was on.
///
/// The grid is relaxed counters (abort paths are not hot enough to shard);
/// the relation map takes a mutex, acceptable because it is only touched on
/// the abort path.
#[derive(Default, Debug)]
pub struct AbortStats {
    grid: [[Counter; N_SITES]; N_KINDS],
    by_rel: Mutex<BTreeMap<u64, u64>>,
}

impl AbortStats {
    pub fn new() -> AbortStats {
        AbortStats::default()
    }

    /// Record one abort of `kind` detected at `site`, optionally attributed
    /// to relation `rel`.
    pub fn record(&self, kind: usize, site: AbortSite, rel: Option<u64>) {
        self.grid[kind][site as usize].bump();
        if let Some(rel) = rel {
            *self.by_rel.lock().unwrap().entry(rel).or_insert(0) += 1;
        }
    }

    /// Classify and record an error if it is an abort-causing one
    /// (serialization failure or deadlock); other errors are ignored.
    pub fn record_error(&self, e: &Error, site: AbortSite, rel: Option<u64>) {
        match e {
            Error::SerializationFailure { kind, .. } => self.record(kind_index(*kind), site, rel),
            Error::Deadlock { .. } => self.record(N_KINDS - 1, site, rel),
            _ => {}
        }
    }

    /// Frozen copy of the full taxonomy.
    pub fn snapshot(&self) -> AbortSnapshot {
        let mut grid = [[0u64; N_SITES]; N_KINDS];
        for (k, row) in self.grid.iter().enumerate() {
            for (s, c) in row.iter().enumerate() {
                grid[k][s] = c.get();
            }
        }
        let by_rel = self
            .by_rel
            .lock()
            .unwrap()
            .iter()
            .map(|(&r, &n)| (r, n))
            .collect();
        AbortSnapshot { grid, by_rel }
    }
}

/// Frozen abort taxonomy: `grid[kind][site]` counts plus per-relation tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortSnapshot {
    pub grid: [[u64; N_SITES]; N_KINDS],
    pub by_rel: Vec<(u64, u64)>,
}

impl AbortSnapshot {
    /// Total aborts across the whole grid.
    pub fn total(&self) -> u64 {
        self.grid.iter().flatten().sum()
    }

    /// Fold another snapshot's counts into this one (cluster aggregation
    /// across shards: disjoint databases, so cells simply add).
    pub fn merge(&mut self, other: &AbortSnapshot) {
        for (k, row) in self.grid.iter_mut().enumerate() {
            for (s, v) in row.iter_mut().enumerate() {
                *v += other.grid[k][s];
            }
        }
        let mut by_rel: BTreeMap<u64, u64> = self.by_rel.iter().copied().collect();
        for &(r, n) in &other.by_rel {
            *by_rel.entry(r).or_insert(0) += n;
        }
        self.by_rel = by_rel.into_iter().collect();
    }

    /// Aborts recorded since `baseline`.
    pub fn delta(&self, baseline: &AbortSnapshot) -> AbortSnapshot {
        let mut grid = self.grid;
        for (k, row) in grid.iter_mut().enumerate() {
            for (s, v) in row.iter_mut().enumerate() {
                *v = v.saturating_sub(baseline.grid[k][s]);
            }
        }
        let base: BTreeMap<u64, u64> = baseline.by_rel.iter().copied().collect();
        let by_rel = self
            .by_rel
            .iter()
            .map(|&(r, n)| (r, n.saturating_sub(base.get(&r).copied().unwrap_or(0))))
            .filter(|&(_, n)| n > 0)
            .collect();
        AbortSnapshot { grid, by_rel }
    }
}

impl fmt::Display for AbortSnapshot {
    /// `kind@site N` for every nonzero cell, then per-relation tallies;
    /// `none` when the grid is empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (k, row) in self.grid.iter().enumerate() {
            for (s, &n) in row.iter().enumerate() {
                if n > 0 {
                    if any {
                        write!(f, "  ")?;
                    }
                    write!(f, "{}@{} {}", ABORT_KINDS[k], ABORT_SITES[s], n)?;
                    any = true;
                }
            }
        }
        if !any {
            write!(f, "none")?;
        }
        if !self.by_rel.is_empty() {
            write!(f, "  [rel:")?;
            for &(r, n) in &self.by_rel {
                write!(f, " {r}×{n}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-transaction event tracer
// ---------------------------------------------------------------------------

/// Lifecycle events a transaction passes through, in the order the SSI core
/// observes them. `ConflictOut`/`ConflictIn` are the two halves of one
/// rw-antidependency edge: the reader records `ConflictOut` (its read was
/// overwritten by `peer`), the writer records `ConflictIn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTag {
    Begin,
    FirstWrite,
    ConflictOut,
    ConflictIn,
    Doom,
    Publish,
    Prepare,
    Commit,
    Abort,
}

const TRACE_TAGS: [TraceTag; 9] = [
    TraceTag::Begin,
    TraceTag::FirstWrite,
    TraceTag::ConflictOut,
    TraceTag::ConflictIn,
    TraceTag::Doom,
    TraceTag::Publish,
    TraceTag::Prepare,
    TraceTag::Commit,
    TraceTag::Abort,
];

/// One decoded ring-buffer record. `seq` is the logical timestamp (the value
/// of the global counter when the event was reserved); `peer` is the other
/// transaction on a conflict edge or doom, 0 when not applicable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub txid: u64,
    pub tag: TraceTag,
    pub peer: u64,
}

const SLOT_EMPTY: u64 = u64::MAX;

struct TraceSlot {
    seq: AtomicU64,
    txid: AtomicU64,
    word: AtomicU64,
}

/// Fixed-size lock-free ring buffer of transaction lifecycle events.
///
/// Writers reserve a slot with one `fetch_add` on the head counter — the
/// reserved sequence number doubles as the event's logical timestamp — then
/// store the payload and finally the sequence with `Release`, so a reader
/// that observes the sequence also observes the payload. Once the ring wraps,
/// old events are overwritten in place; a dump therefore holds the *most
/// recent* `capacity` events. A writer racing a dump on the same wrapped slot
/// can tear (payload from one event, seq from another) — acceptable for a
/// diagnostic surface, and impossible before the first wrap.
///
/// A zero-capacity tracer (the default, `EngineConfig.trace = false`)
/// allocates no slots and its `record` is a single branch.
pub struct Tracer {
    slots: Vec<TraceSlot>,
    head: AtomicU64,
    /// Total events ever recorded (not capped by capacity). Surfaces as the
    /// `trace-events` stat; stays 0 when tracing is disabled.
    pub events: Counter,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.slots.len())
            .field("events", &self.events.get())
            .finish()
    }
}

impl Tracer {
    /// A tracer retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            slots: (0..capacity)
                .map(|_| TraceSlot {
                    seq: AtomicU64::new(SLOT_EMPTY),
                    txid: AtomicU64::new(0),
                    word: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            events: Counter::new(),
        }
    }

    /// The no-op tracer: zero capacity, nothing allocated, records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(0)
    }

    /// Whether events are being retained.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Record one event. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, txid: u64, tag: TraceTag, peer: u64) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[seq as usize % self.slots.len()];
        slot.txid.store(txid, Ordering::Relaxed);
        slot.word.store(
            ((tag as u64) << 56) | (peer & ((1 << 56) - 1)),
            Ordering::Relaxed,
        );
        slot.seq.store(seq, Ordering::Release);
        self.events.bump();
    }

    /// Decode the ring into events sorted by logical timestamp.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == SLOT_EMPTY {
                continue;
            }
            let word = slot.word.load(Ordering::Relaxed);
            let tag_idx = (word >> 56) as usize;
            let Some(&tag) = TRACE_TAGS.get(tag_idx) else {
                continue; // torn slot
            };
            out.push(TraceEvent {
                seq,
                txid: slot.txid.load(Ordering::Relaxed),
                tag,
                peer: word & ((1 << 56) - 1),
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Dump only the events belonging to `txid`.
    pub fn dump_txn(&self, txid: u64) -> Vec<TraceEvent> {
        let mut out = self.dump();
        out.retain(|e| e.txid == txid);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_get() {
        let c = Counter::new();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn clone_copies_value() {
        let c = Counter::new();
        c.add(3);
        assert_eq!(c.clone().get(), 3);
    }

    #[test]
    fn padded_to_a_cache_line() {
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert_eq!(std::mem::size_of::<[Counter; 2]>(), 128);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's lower bound maps back to that bucket, and bounds
        // are strictly increasing.
        let mut prev = None;
        for i in 0..HIST_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if let Some(p) = prev {
                assert!(lo > p, "bounds must increase at {i}");
            }
            prev = Some(lo);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_reports() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.max(), 1_000_000);
        assert_eq!(s.percentile(0.0), 1);
        assert!(s.percentile(50.0) <= s.percentile(95.0));
        assert!(s.percentile(95.0) <= s.percentile(99.0));
        assert!(s.percentile(99.0) <= s.max());
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let h = Histogram::new();
        h.record(10);
        let base = h.snapshot();
        h.record(10);
        h.record(99);
        let d = h.snapshot().delta(&base);
        assert_eq!(d.count(), 2);
        assert_eq!(base.count(), 1);
    }

    #[test]
    fn abort_stats_classify_and_display() {
        let a = AbortStats::new();
        a.record_error(
            &Error::serialization(SerializationKind::PivotAbort, "x"),
            AbortSite::Precommit,
            Some(3),
        );
        a.record_error(
            &Error::Deadlock {
                victim: crate::ids::TxnId(7),
            },
            AbortSite::LockWait,
            None,
        );
        // Non-abort errors are ignored.
        a.record_error(&Error::InvalidState("nope".into()), AbortSite::OnRead, None);
        let s = a.snapshot();
        assert_eq!(s.total(), 2);
        let line = s.to_string();
        assert!(line.contains("pivot@precommit 1"), "{line}");
        assert!(line.contains("deadlock@lock-wait 1"), "{line}");
        assert!(line.contains("rel: 3×1"), "{line}");
        assert_eq!(AbortSnapshot::default().to_string(), "none");
    }

    #[test]
    fn tracer_retains_recent_events_in_order() {
        let t = Tracer::new(4);
        for i in 0..6u64 {
            t.record(i, TraceTag::Begin, 0);
        }
        let d = t.dump();
        assert_eq!(d.len(), 4);
        // Most recent four, sorted by seq.
        assert_eq!(d[0].seq, 2);
        assert_eq!(d[3].seq, 5);
        assert_eq!(d[3].txid, 5);
        assert_eq!(t.events.get(), 6);
        assert_eq!(t.dump_txn(3).len(), 1);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.record(1, TraceTag::Commit, 0);
        assert!(t.dump().is_empty());
        assert_eq!(t.events.get(), 0);
        assert!(!t.is_enabled());
    }
}
