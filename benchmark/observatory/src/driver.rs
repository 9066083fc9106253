//! The closed-loop driver: client threads that each wait for their reply
//! before issuing the next logical transaction, the retry rule, the
//! steady-state maintenance client 0 performs, and the output checks.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use crate::api::{
    ClusterDb, EngineDb, Fail, Level, Reply, Res, Stats, Store, Txn, WireConn, WireServer,
    SKEW_TABLE, TABLE,
};
use crate::gen::{Generator, Op, Top, Workload, SHARDS};
use crate::trace::{now_ns, Call, NoTrace, Recorder, Sink, Span};

/// A logical transaction is tried this many times before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 10;
/// Retries are immediate up to this attempt. A conflict that outlives that
/// many is with a transaction whose thread is not running (a prepared
/// cross-shard branch whose coordinator lost its core): spinning through the
/// remaining attempts fails the transaction for a scheduling reason, about
/// once in ten million on a two-core box. Later attempts therefore wait
/// first, 50 µs doubling each time.
const IMMEDIATE_ATTEMPTS: u32 = 4;
/// The measured window is cut into this many slices; the stationarity guard
/// compares the outer quarters, and the record keeps all of them.
pub const SLICES: usize = 8;

fn wrong(what: &str) -> Fail {
    Fail::Fatal(format!("wrong result: {what}"))
}

/// Runs one attempt of a logical transaction against the top layer.
trait Client {
    fn attempt<K: Sink>(&mut self, op: &Op, sink: &mut K) -> Res<()>;
}

/// Brackets one call into the top layer with a span.
macro_rules! span {
    ($sink:expr, $call:expr, $e:expr) => {{
        let t = $sink.start();
        let r = $e;
        $sink.end($call, t);
        r
    }};
}

struct StoreClient<S: Store> {
    store: S,
    level: Level,
    rows: usize,
}

impl<S: Store> StoreClient<S> {
    fn rmw<K: Sink>(txn: &mut S::Txn, k: i64, sink: &mut K) -> Res<()> {
        let v = span!(sink, Call::Get, txn.get(TABLE, k))?.ok_or_else(|| wrong("row missing"))?;
        if !span!(sink, Call::Update, txn.update(TABLE, k, v + 1))? {
            return Err(wrong("update found no row"));
        }
        Ok(())
    }
}

impl<S: Store> Client for StoreClient<S> {
    fn attempt<K: Sink>(&mut self, op: &Op, sink: &mut K) -> Res<()> {
        let read_only = matches!(op, Op::ScanMin);
        let mut txn = span!(sink, Call::Begin, self.store.begin(self.level, read_only))?;
        match *op {
            Op::Read4(keys) => {
                for k in keys {
                    span!(sink, Call::Get, txn.get(TABLE, k))?
                        .ok_or_else(|| wrong("row missing"))?;
                }
            }
            Op::Rmw(k) => Self::rmw(&mut txn, k, sink)?,
            Op::Rmw2(a, b) => {
                Self::rmw(&mut txn, a, sink)?;
                Self::rmw(&mut txn, b, sink)?;
            }
            Op::ScanMin => {
                let rows = span!(sink, Call::Scan, txn.scan(TABLE))?;
                if rows.len() != self.rows {
                    return Err(wrong("scan row count"));
                }
                std::hint::black_box(rows.min_v().ok_or_else(|| wrong("scan row shape"))?);
            }
        }
        span!(sink, Call::Commit, txn.commit())
    }
}

struct WireClient<'a> {
    conn: &'a WireConn,
    level: Level,
    line: String,
    /// The value the next blind `PUT` writes.
    next_value: i64,
}

impl WireClient<'_> {
    fn send(&mut self, verb: &str, k: i64, v: Option<i64>) -> Res<()> {
        self.line.clear();
        let _ = write!(self.line, "{verb} {TABLE} {k}");
        if let Some(v) = v {
            let _ = write!(self.line, " {v}");
        }
        self.conn.send(&self.line)
    }
}

impl Client for WireClient<'_> {
    /// The whole transaction is pipelined: every line is sent before the
    /// first response is read.
    fn attempt<K: Sink>(&mut self, op: &Op, sink: &mut K) -> Res<()> {
        let mut gets = [0i64; 4];
        let t = sink.start();
        self.conn.send(WireConn::begin_line(self.level))?;
        let (n_gets, n_puts) = match *op {
            Op::Read4(keys) => {
                for k in keys {
                    self.send("GET", k, None)?;
                }
                gets = keys;
                (4, 0)
            }
            Op::Rmw(k) => {
                self.next_value += 1;
                self.send("GET", k, None)?;
                self.send("PUT", k, Some(self.next_value))?;
                gets[0] = k;
                (1, 1)
            }
            Op::ScanMin | Op::Rmw2(..) => return Err(wrong("operation not in the wire mix")),
        };
        self.conn.send("COMMIT")?;
        sink.end(Call::Send, t);

        let t = sink.start();
        let mut outcome = Ok(());
        for i in 0..n_gets + n_puts + 2 {
            let resp = self.conn.recv()?;
            if outcome.is_err() {
                // Lines after a failed one answer "no transaction open".
                continue;
            }
            outcome = match WireConn::classify(&resp) {
                Reply::Retry(msg) => Err(Fail::Retry(msg.to_string())),
                Reply::Error(msg) => Err(Fail::Fatal(format!("server: {msg}"))),
                Reply::Fine(r) if (1..=n_gets).contains(&i) => WireConn::row_value(r, gets[i - 1])
                    .map(|_| ())
                    .ok_or_else(|| wrong("GET response")),
                Reply::Fine(_) => Ok(()),
            };
        }
        sink.end(Call::Recv, t);
        outcome
    }
}

/// What client 0 does between its transactions to keep the state steady.
pub struct Maintenance<'a> {
    pub vacuum: &'a (dyn Fn() -> u64 + Sync),
    pub vacuum_every: u64,
    pub checkpoint: Option<&'a (dyn Fn() -> Res<()> + Sync)>,
    pub checkpoint_every: u64,
}

/// How long a pass runs: a fixed amount of work, a fixed time, or whichever
/// ends first.
#[derive(Clone, Copy)]
pub struct Plan {
    pub txns: Option<u64>,
    pub seconds: f64,
    pub traced: bool,
}

/// One client's account of a pass.
#[derive(Default)]
pub struct ClientResult {
    /// Latency of every committed logical transaction, retries included.
    pub lat_ns: Vec<u64>,
    /// Commits that ended in each slice of the window.
    pub slices: [u64; SLICES],
    /// Logical transactions committed / failed, whenever they ended.
    pub committed: u64,
    pub failed: u64,
    pub retries: u64,
    pub first_failure: Option<String>,
    /// Acknowledged increments per key.
    pub acks: Vec<u32>,
    pub elapsed_ns: u64,
    pub spans: Vec<Span>,
    pub vacuum_ns: u64,
    pub versions_pruned: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_loop<C: Client, K: Sink>(
    client_no: usize,
    mut client: C,
    mut gen: Generator,
    rows: usize,
    plan: Plan,
    maint: Option<&Maintenance>,
    start_ns: u64,
    sink: &mut K,
) -> ClientResult {
    let window_ns = (plan.seconds * 1e9) as u64;
    let slice_ns = (window_ns / SLICES as u64).max(1);
    let max_txns = plan.txns.unwrap_or(u64::MAX);
    let expect = plan
        .txns
        .unwrap_or((plan.seconds * 250_000.0) as u64)
        .min(4_000_000) as usize;
    let mut res = ClientResult {
        lat_ns: Vec::with_capacity(expect),
        acks: vec![0; rows],
        ..ClientResult::default()
    };
    let mut seq: u64 = 0;
    let mut now = start_ns;
    while seq < max_txns && now - start_ns < window_ns {
        let op = gen.next_op();
        seq += 1;
        let t0 = now_ns();
        sink.begin_txn((client_no as u64) << 32 | seq);
        let mut outcome = Ok(());
        for attempt in 0..MAX_ATTEMPTS {
            if attempt >= IMMEDIATE_ATTEMPTS {
                std::thread::sleep(Duration::from_micros(50 << (attempt - IMMEDIATE_ATTEMPTS)));
            }
            outcome = client.attempt(&op, sink);
            match outcome {
                Err(Fail::Retry(_)) => res.retries += 1,
                _ => break,
            }
        }
        sink.end_txn();
        now = now_ns();
        match outcome {
            Ok(()) => {
                res.committed += 1;
                res.lat_ns.push(now - t0);
                if let Some(slot) = res.slices.get_mut(((now - start_ns) / slice_ns) as usize) {
                    *slot += 1;
                }
                match op {
                    Op::Rmw(k) => res.acks[k as usize] += 1,
                    Op::Rmw2(a, b) => {
                        res.acks[a as usize] += 1;
                        res.acks[b as usize] += 1;
                    }
                    Op::Read4(_) | Op::ScanMin => {}
                }
            }
            Err(e) => {
                // The last retry of an exhausted transaction was no retry.
                if matches!(e, Fail::Retry(_)) {
                    res.retries -= 1;
                }
                res.failed += 1;
                res.first_failure.get_or_insert(match e {
                    Fail::Retry(msg) => format!("{MAX_ATTEMPTS} attempts exhausted, last: {msg}"),
                    Fail::Fatal(msg) => msg,
                });
            }
        }
        if let Some(m) = maint {
            if seq.is_multiple_of(m.vacuum_every) {
                let t = now_ns();
                res.versions_pruned += (m.vacuum)();
                res.vacuum_ns += now_ns() - t;
            }
            if let Some(checkpoint) = m.checkpoint {
                if seq.is_multiple_of(m.checkpoint_every) {
                    if let Err(e) = checkpoint() {
                        res.failed += 1;
                        res.first_failure
                            .get_or_insert(format!("checkpoint: {e:?}"));
                    }
                }
            }
        }
    }
    res.elapsed_ns = now_ns() - start_ns;
    res
}

/// Run one pass: every client on its own thread, released together.
fn run_clients<C: Client + Send>(
    clients: Vec<C>,
    gens: Vec<Generator>,
    rows: usize,
    plan: Plan,
    maint: &Maintenance,
) -> Vec<ClientResult> {
    let barrier = Barrier::new(clients.len());
    let start = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(gens)
            .enumerate()
            .map(|(no, (client, gen))| {
                let (barrier, start) = (&barrier, &start);
                let maint = (no == 0).then_some(maint);
                scope.spawn(move || {
                    // Spans live in memory sized before the clock starts.
                    let mut recorder = plan
                        .traced
                        .then(|| Recorder::with_capacity(plan.txns.unwrap_or(0) as usize * 8));
                    if barrier.wait().is_leader() {
                        start.store(now_ns(), Ordering::SeqCst);
                    }
                    barrier.wait();
                    let start_ns = start.load(Ordering::SeqCst);
                    match recorder.as_mut() {
                        Some(rec) => {
                            let mut res =
                                client_loop(no, client, gen, rows, plan, maint, start_ns, rec);
                            res.spans = std::mem::take(&mut rec.spans);
                            res
                        }
                        None => {
                            client_loop(no, client, gen, rows, plan, maint, start_ns, &mut NoTrace)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Run one pass against an in-process layer.
fn run_store<S: Store>(
    store: &S,
    checkpoint: Option<&(dyn Fn() -> Res<()> + Sync)>,
    w: &Workload,
    clients: usize,
    gens: Vec<Generator>,
    plan: Plan,
) -> Vec<ClientResult> {
    let rows = w.rows as usize;
    let maint = Maintenance {
        vacuum: &|| store.vacuum(),
        vacuum_every: w.vacuum_every,
        checkpoint,
        checkpoint_every: w.checkpoint_every,
    };
    let cs = (0..clients)
        .map(|_| StoreClient {
            store: store.clone(),
            level: w.level,
            rows,
        })
        .collect();
    run_clients(cs, gens, rows, plan, &maint)
}

/// A workload's system under test, set up and warm.
pub enum Env {
    Engine(EngineDb),
    Durable {
        db: EngineDb,
        dir: PathBuf,
    },
    Wire {
        server: WireServer,
        conns: Vec<WireConn>,
    },
    Cluster {
        db: ClusterDb,
        shard_of: Arc<[u8]>,
    },
}

/// Connections (each with its own blocking driver thread) per server worker
/// on the wire workload. With one, both cores idle between a client's send
/// and its reply, and every hand-off wakes a halted virtual CPU: the rate
/// then follows the hypervisor's mood (8.2k–11.3k txn/s from one quarter of
/// an hour to the next). With two the cores stay busy and runs agree to 2%.
const WIRE_CONNS_PER_WORKER: usize = 2;

/// Bulk load in batches of this many rows per transaction.
const LOAD_BATCH: i64 = 4_096;

/// After the load, every row is rewritten this many times in scattered
/// order, so versions lie where steady-state updates leave them and the
/// measured window does not start on a freshly packed heap.
const AGEING_ROUNDS: u64 = 4;

fn create_and_load<S: Store>(store: &S, rows: i64) -> Res<()> {
    let load = |table: &str, keys: std::ops::Range<i64>| -> Res<()> {
        let mut txn = store.begin(Level::RepeatableRead, false)?;
        for k in keys {
            txn.insert(table, k, 0)?;
        }
        txn.commit()
    };
    for lo in (0..rows).step_by(LOAD_BATCH as usize) {
        load(TABLE, lo..(lo + LOAD_BATCH).min(rows))?;
    }
    load(SKEW_TABLE, 0..2)?;
    // The same fixed order for every seed: set-up is the same work each run.
    let mut order: Vec<i64> = (0..rows).collect();
    let mut rng = crate::gen::Rng::new(0x5EED);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for _ in 0..AGEING_ROUNDS {
        for batch in order.chunks(LOAD_BATCH as usize) {
            let mut txn = store.begin(Level::RepeatableRead, false)?;
            for &k in batch {
                txn.update(TABLE, k, 0)?;
            }
            txn.commit()?;
        }
        store.vacuum();
    }
    Ok(())
}

impl Env {
    /// Open or create, bulk load, start the server and connect. `wal_dir` is
    /// used (and wiped first) by the durable workload only.
    pub fn open(w: &Workload, clients: usize, wal_dir: &Path) -> Res<Env> {
        Ok(match w.top {
            Top::Engine => {
                let db = EngineDb::open_memory()?;
                create_and_load(&db, w.rows)?;
                Env::Engine(db)
            }
            Top::Durable => {
                if wal_dir.exists() {
                    std::fs::remove_dir_all(wal_dir)?;
                }
                let db = EngineDb::create_durable(wal_dir)?;
                create_and_load(&db, w.rows)?;
                Env::Durable {
                    db,
                    dir: wal_dir.to_path_buf(),
                }
            }
            Top::Wire => {
                let db = EngineDb::open_memory()?;
                create_and_load(&db, w.rows)?;
                let server = WireServer::start(db, clients)?;
                // Two more connections than drivers: the write-skew check's.
                let conns = (0..clients * WIRE_CONNS_PER_WORKER + 2)
                    .map(|_| WireConn::connect(server.addr()))
                    .collect::<Res<Vec<_>>>()?;
                Env::Wire { server, conns }
            }
            Top::Cluster => {
                let db = ClusterDb::open_memory(SHARDS)?;
                create_and_load(&db, w.rows)?;
                let shard_of = (0..w.rows).map(|k| db.shard_of(k) as u8).collect();
                Env::Cluster { db, shard_of }
            }
        })
    }

    pub fn stats(&self) -> Stats {
        match self {
            Env::Engine(db) | Env::Durable { db, .. } => db.stats(),
            Env::Wire { server, .. } => server.stats(),
            Env::Cluster { db, .. } => db.stats(),
        }
    }

    /// Span-name prefix of this workload's top layer.
    pub fn layer(&self) -> &'static str {
        match self {
            Env::Engine(_) | Env::Durable { .. } => EngineDb::LAYER,
            Env::Wire { .. } => "server",
            Env::Cluster { .. } => ClusterDb::LAYER,
        }
    }

    /// Driver threads of a pass: one per client, or one per connection.
    fn drivers(&self, clients: usize) -> usize {
        match self {
            Env::Wire { conns, .. } => conns.len() - 2,
            _ => clients,
        }
    }

    fn shard_map(&self) -> Arc<[u8]> {
        match self {
            Env::Cluster { shard_of, .. } => Arc::clone(shard_of),
            _ => Arc::from(Vec::new()),
        }
    }

    /// Run one pass of `w` with `clients` client threads. `pass` picks the
    /// generator stream, so warm-up and measurement never replay each other.
    pub fn run(
        &self,
        w: &Workload,
        clients: usize,
        seed: u64,
        pass: u64,
        plan: Plan,
    ) -> Vec<ClientResult> {
        let rows = w.rows as usize;
        let gens: Vec<Generator> = (0..self.drivers(clients))
            .map(|c| Generator::new(w, seed, c, pass, self.shard_map()))
            .collect();
        match self {
            Env::Engine(db) => run_store(db, None, w, clients, gens, plan),
            Env::Durable { db, .. } => {
                run_store(db, Some(&|| db.checkpoint()), w, clients, gens, plan)
            }
            Env::Cluster { db, .. } => run_store(db, None, w, clients, gens, plan),
            Env::Wire { server, conns } => {
                let maint = Maintenance {
                    vacuum: &|| server.vacuum(),
                    vacuum_every: w.vacuum_every,
                    checkpoint: None,
                    checkpoint_every: 0,
                };
                let cs = conns[..conns.len() - 2]
                    .iter()
                    .map(|conn| WireClient {
                        conn,
                        level: w.level,
                        line: String::with_capacity(64),
                        next_value: pass as i64 * 1_000_000_000,
                    })
                    .collect();
                run_clients(cs, gens, rows, plan, &maint)
            }
        }
    }

    /// The fixed write-skew pair: both transactions read both rows, each
    /// writes a different one. Returns how many of the two aborted.
    pub fn write_skew_aborts(&self, level: Level) -> Res<u32> {
        match self {
            Env::Engine(db) | Env::Durable { db, .. } => store_write_skew(db, level),
            Env::Cluster { db, .. } => store_write_skew(db, level),
            Env::Wire { conns, .. } => {
                let n = conns.len();
                wire_write_skew(&conns[n - 2], &conns[n - 1], level)
            }
        }
    }

    /// Every `(k, v)` of the workload table as a fresh REPEATABLE READ
    /// transaction sees it. In-process layers only.
    pub fn table_contents(&self) -> Res<Vec<(i64, i64)>> {
        match self {
            Env::Engine(db) | Env::Durable { db, .. } => read_table(db),
            Env::Cluster { db, .. } => read_table(db),
            Env::Wire { .. } => Err(wrong("no table read over the wire")),
        }
    }

    /// Storage probe on this environment's (first) transaction manager.
    pub fn begin_snapshot_finish(&self) -> usize {
        match self {
            Env::Engine(db) | Env::Durable { db, .. } => db.begin_snapshot_finish(),
            Env::Wire { server, .. } => server.begin_snapshot_finish(),
            Env::Cluster { db, .. } => db.begin_snapshot_finish(),
        }
    }

    /// Durable only: drop the handle without a checkpoint and recover from
    /// the directory. Returns the recovered environment and the number of
    /// log records the recovery replayed.
    pub fn reopen(self) -> Res<(Env, u64)> {
        let Env::Durable { db, dir } = self else {
            return Err(wrong("only the durable workload reopens"));
        };
        drop(db);
        let db = EngineDb::reopen_durable(&dir)?;
        let replayed = db.stats().wal_recovered_records();
        Ok((Env::Durable { db, dir }, replayed))
    }

    /// FNV digest of the first `n` operations every client is given.
    pub fn input_digest(&self, w: &Workload, clients: usize, seed: u64, pass: u64, n: u64) -> u64 {
        (0..self.drivers(clients)).fold(0, |h: u64, c| {
            let mut gen = Generator::new(w, seed, c, pass, self.shard_map());
            h.rotate_left(7) ^ crate::gen::stream_digest(&mut gen, n)
        })
    }

    /// Stop what `open` started. The durable directory is left to the caller.
    pub fn close(self) {
        if let Env::Wire { server, conns } = self {
            drop(conns);
            server.shutdown();
        }
    }
}

fn read_table<S: Store>(store: &S) -> Res<Vec<(i64, i64)>> {
    let mut txn = store.begin(Level::RepeatableRead, true)?;
    let rows = txn.scan(TABLE)?;
    txn.commit()?;
    rows.pairs().ok_or_else(|| wrong("row shape"))
}

/// Counts an abort where `r` is a retryable failure; passes other errors on.
fn aborted<T>(r: Res<T>, aborts: &mut u32) -> Res<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(Fail::Retry(_)) => {
            *aborts += 1;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn store_write_skew<S: Store>(store: &S, level: Level) -> Res<u32> {
    let mut aborts = 0;
    let mut t1 = store.begin(level, false)?;
    let mut t2 = store.begin(level, false)?;
    for t in [&mut t1, &mut t2] {
        t.get(SKEW_TABLE, 0)?;
        t.get(SKEW_TABLE, 1)?;
    }
    // A transaction that fails a step is dropped, which rolls it back.
    let t1 = aborted(t1.update(SKEW_TABLE, 0, 1), &mut aborts)?.map(|_| t1);
    let t2 = aborted(t2.update(SKEW_TABLE, 1, 1), &mut aborts)?.map(|_| t2);
    for t in [t1, t2].into_iter().flatten() {
        aborted(t.commit(), &mut aborts)?;
    }
    Ok(aborts)
}

fn wire_write_skew(c1: &WireConn, c2: &WireConn, level: Level) -> Res<u32> {
    // One line, one reply; true if the transaction aborted on it.
    let step = |c: &WireConn, line: &str| -> Res<bool> {
        c.send(line)?;
        match WireConn::classify(&c.recv()?) {
            Reply::Fine(_) => Ok(false),
            Reply::Retry(_) => Ok(true),
            Reply::Error(msg) => Err(Fail::Fatal(format!("server: {msg}"))),
        }
    };
    let begin = WireConn::begin_line(level);
    let get = |k| format!("GET {SKEW_TABLE} {k}");
    for c in [c1, c2] {
        step(c, begin)?;
        step(c, &get(0))?;
        step(c, &get(1))?;
    }
    let mut aborts = 0;
    for (c, put) in [
        (c1, format!("PUT {SKEW_TABLE} 0 1")),
        (c2, format!("PUT {SKEW_TABLE} 1 1")),
    ] {
        if step(c, &put)? || step(c, "COMMIT")? {
            aborts += 1;
        }
    }
    Ok(aborts)
}
