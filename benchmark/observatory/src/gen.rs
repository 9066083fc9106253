//! Workload definitions and the seeded input generator.
//!
//! All six workloads draw from one generator. The seed never reaches the
//! system under test: it only decides which keys the driver asks for.

use std::sync::Arc;

use crate::api::Level;

/// Which public layer the clients call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Top {
    /// `Database`, in memory.
    Engine,
    /// `Database::open_durable` on a file WAL.
    Durable,
    /// Text lines over `TcpClient` to `Server::listen`.
    Wire,
    /// `ShardedDatabase` of [`SHARDS`] shards.
    Cluster,
}

/// Shard count of the `cluster-cross` workload.
pub const SHARDS: usize = 4;

/// The transaction mix a client draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// 90% four uniform point reads, 10% read-modify-write of one uniform key.
    ReadMostly,
    /// Drawn at random: two in three a read-modify-write of one uniform key,
    /// one in three a READ ONLY full scan. Not one to one: with exactly half
    /// the transactions in each of two latency modes fifty times apart, the
    /// median would sit on the edge between them and jump from run to run.
    /// At two to one the median is an update's latency and the 95th
    /// percentile a scan's.
    ScanUpdate,
    /// 100% read-modify-write of one uniform key.
    WriteOnly,
    /// 80% read-modify-write of one key, 20% of two keys on different shards.
    CrossShard,
}

/// One workload: what runs, on what, and how steady state is kept.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub top: Top,
    pub level: Level,
    pub mix: Mix,
    pub rows: i64,
    /// Client 0 vacuums after this many of its own logical transactions.
    pub vacuum_every: u64,
    /// Client 0 checkpoints after this many of its own transactions (0 = never).
    pub checkpoint_every: u64,
    /// Fixed warm-up work per driver thread, about one second at today's speed.
    pub warmup_txns: u64,
    /// Tuple reads of the workload's typical reader, the lock probe's shape.
    pub reads_per_txn: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "readmostly-ssi",
        why: "canonical SIBENCH read-mostly mix at SERIALIZABLE: SIREAD locks and conflict tracking do the added work",
        top: Top::Engine,
        level: Level::Serializable,
        mix: Mix::ReadMostly,
        rows: 16_384,
        vacuum_every: 4_096,
        checkpoint_every: 0,
        warmup_txns: 40_000,
        reads_per_txn: 4,
    },
    Workload {
        name: "readmostly-si",
        why: "same inputs at REPEATABLE READ: bypasses lockmgr and core, so an SSI-only change must leave it flat",
        top: Top::Engine,
        level: Level::RepeatableRead,
        mix: Mix::ReadMostly,
        rows: 16_384,
        vacuum_every: 4_096,
        checkpoint_every: 0,
        warmup_txns: 80_000,
        reads_per_txn: 4,
    },
    Workload {
        name: "scan-update-ssi",
        why: "paper's SIBENCH (Fig. 4): updates against READ ONLY full scans, relation-grain locks and an rw-conflict per pair",
        top: Top::Engine,
        level: Level::Serializable,
        mix: Mix::ScanUpdate,
        rows: 1_000,
        vacuum_every: 512,
        checkpoint_every: 0,
        warmup_txns: 4_000,
        reads_per_txn: 1_000,
    },
    Workload {
        name: "durable-write",
        why: "all read-modify-write on a file WAL with group commit: redo capture, append and commit hand-off dominate",
        top: Top::Durable,
        level: Level::Serializable,
        mix: Mix::WriteOnly,
        rows: 16_384,
        vacuum_every: 4_096,
        checkpoint_every: 65_536,
        warmup_txns: 40_000,
        reads_per_txn: 1,
    },
    Workload {
        name: "wire-tcp",
        why: "the readmostly-ssi key stream as pipelined text lines over TCP: server pool, parsing and socket wake-ups dominate",
        top: Top::Wire,
        level: Level::Serializable,
        mix: Mix::ReadMostly,
        rows: 16_384,
        vacuum_every: 4_096,
        checkpoint_every: 0,
        warmup_txns: 3_000,
        reads_per_txn: 4,
    },
    Workload {
        name: "cluster-cross",
        why: "4-shard cluster, 20% two-shard read-modify-write: router, fast path and cross-shard 2PC dominate",
        top: Top::Cluster,
        level: Level::Serializable,
        mix: Mix::CrossShard,
        rows: 16_384,
        vacuum_every: 4_096,
        checkpoint_every: 0,
        warmup_txns: 40_000,
        reads_per_txn: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One logical transaction's inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Point reads of four keys.
    Read4([i64; 4]),
    /// Read one key, write it back plus one.
    Rmw(i64),
    /// READ ONLY full scan for the minimum value.
    ScanMin,
    /// Read-modify-write of two keys on different shards, smaller key first
    /// so two such transactions never wait on each other in a cycle.
    Rmw2(i64, i64),
}

/// SplitMix64: small, seedable, and the benchmark's own, so the key stream
/// does not change when the repository's `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A client's stream of logical transactions.
pub struct Generator {
    rng: Rng,
    mix: Mix,
    rows: u64,
    /// Shard of every key (cluster workload only), from the cluster's router.
    shard_of: Arc<[u8]>,
}

impl Generator {
    /// `pass` separates the warm-up, untraced and traced streams of one run.
    pub fn new(
        w: &Workload,
        seed: u64,
        client: usize,
        pass: u64,
        shard_of: Arc<[u8]>,
    ) -> Generator {
        let mut mixer = Rng::new(seed);
        let stream =
            mixer.next_u64() ^ ((client as u64) << 32 | pass).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Generator {
            rng: Rng::new(stream),
            mix: w.mix,
            rows: w.rows as u64,
            shard_of,
        }
    }

    fn key(&mut self) -> i64 {
        self.rng.below(self.rows) as i64
    }

    pub fn next_op(&mut self) -> Op {
        match self.mix {
            Mix::ReadMostly => {
                if self.rng.below(10) == 0 {
                    Op::Rmw(self.key())
                } else {
                    Op::Read4([self.key(), self.key(), self.key(), self.key()])
                }
            }
            Mix::ScanUpdate => {
                if self.rng.below(3) == 0 {
                    Op::ScanMin
                } else {
                    Op::Rmw(self.key())
                }
            }
            Mix::WriteOnly => Op::Rmw(self.key()),
            Mix::CrossShard => {
                let a = self.key();
                if self.rng.below(5) != 0 {
                    return Op::Rmw(a);
                }
                loop {
                    let b = self.key();
                    if self.shard_of[b as usize] != self.shard_of[a as usize] {
                        return Op::Rmw2(a.min(b), a.max(b));
                    }
                }
            }
        }
    }
}

/// FNV-1a over the first `n` operations of a stream: the determinism
/// self-test compares these instead of holding two streams in memory.
pub fn stream_digest(gen: &mut Generator, n: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..n {
        match gen.next_op() {
            Op::Read4(ks) => {
                eat(1);
                ks.iter().for_each(|&k| eat(k as u64));
            }
            Op::Rmw(k) => {
                eat(2);
                eat(k as u64);
            }
            Op::ScanMin => eat(3),
            Op::Rmw2(a, b) => {
                eat(4);
                eat(a as u64);
                eat(b as u64);
            }
        }
    }
    h
}
