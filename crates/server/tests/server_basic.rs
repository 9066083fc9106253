//! End-to-end tests for the wire front-end: protocol round-trips, isolation
//! behavior through the protocol, concurrent-session correctness, and the
//! many-sessions-on-few-workers shape the session layer exists for.
//!
//! The protocol tests run generically over [`Transport`], once per connection
//! kind — in-process [`SessionHandle`]s and real-socket [`TcpClient`]s — so
//! the two front-ends can't drift apart.

use std::sync::Arc;

use pgssi_common::{row, EngineConfig, Error, ServerConfig};
use pgssi_engine::{Database, TableDef};
use pgssi_server::{Server, TcpClient, TcpFrontEnd, Transport};

fn kv_server(workers: usize, max_sessions: usize) -> Server {
    let mut config = EngineConfig::default();
    // Interactive sessions can hold row locks across scheduling quanta; when
    // every worker blocks on such a lock, progress resumes only at the lock
    // timeout. Keep it short so contention tests resolve quickly (the module
    // docs on `pool` explain why pipelined clients never hit this).
    config.ssi.lock_wait_timeout = std::time::Duration::from_millis(200);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let cfg = ServerConfig {
        workers,
        max_sessions,
        ..ServerConfig::default()
    };
    Server::new(db, cfg)
}

/// One server plus a way to mint clients of a given transport kind.
struct Rig {
    server: Server,
    tcp: Option<TcpFrontEnd>,
}

impl Rig {
    fn in_process(workers: usize, max_sessions: usize) -> Rig {
        Rig {
            server: kv_server(workers, max_sessions),
            tcp: None,
        }
    }

    fn tcp(workers: usize, max_sessions: usize) -> Rig {
        let server = kv_server(workers, max_sessions);
        let tcp = server.listen("127.0.0.1:0").unwrap();
        Rig {
            server,
            tcp: Some(tcp),
        }
    }

    fn client(&self) -> Box<dyn Transport> {
        match &self.tcp {
            Some(front) => Box::new(TcpClient::connect(front.local_addr()).unwrap()),
            None => Box::new(self.server.connect().unwrap()),
        }
    }

    fn shutdown(self) {
        if let Some(front) = self.tcp {
            front.shutdown();
        }
        self.server.shutdown();
    }
}

/// Both connection kinds, for the generic protocol tests.
fn rigs(workers: usize, max_sessions: usize) -> Vec<Rig> {
    vec![
        Rig::in_process(workers, max_sessions),
        Rig::tcp(workers, max_sessions),
    ]
}

fn ok(t: &dyn Transport, line: &str) -> String {
    t.roundtrip(line).unwrap()
}

#[test]
fn roundtrip_put_get_commit() {
    for rig in rigs(2, 16) {
        let s = rig.client();
        assert_eq!(ok(&*s, "BEGIN"), "OK");
        assert_eq!(ok(&*s, "PUT kv 1 10"), "OK");
        assert_eq!(ok(&*s, "GET kv 1"), "ROW 1 10");
        assert_eq!(ok(&*s, "COMMIT"), "OK");

        // A second session sees the committed row; PUT upserts.
        let s2 = rig.client();
        assert_eq!(ok(&*s2, "BEGIN REPEATABLE READ"), "OK");
        assert_eq!(ok(&*s2, "GET kv 1"), "ROW 1 10");
        assert_eq!(ok(&*s2, "PUT kv 1 11"), "OK");
        assert_eq!(ok(&*s2, "GET kv 1"), "ROW 1 11");
        assert_eq!(ok(&*s2, "SCAN kv"), "ROWS 1 1,11");
        assert_eq!(ok(&*s2, "DEL kv 1"), "OK 1");
        assert_eq!(ok(&*s2, "DEL kv 1"), "OK 0");
        assert_eq!(ok(&*s2, "GET kv 1"), "NIL");
        assert_eq!(ok(&*s2, "ABORT"), "OK");
        drop((s, s2));
        rig.shutdown();
    }
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    for rig in rigs(1, 4) {
        let s = rig.client();
        assert!(ok(&*s, "GET kv 1").starts_with("ERR no transaction"));
        assert!(ok(&*s, "COMMIT").starts_with("ERR no transaction"));
        assert!(ok(&*s, "FLY me to the moon").starts_with("ERR"));
        assert_eq!(ok(&*s, "BEGIN"), "OK");
        assert!(ok(&*s, "BEGIN").starts_with("ERR transaction already"));
        assert!(ok(&*s, "GET missing 1").starts_with("ERR"));
        // Row-arity mismatches are rejected, not panics, and not persisted.
        assert!(ok(&*s, "PUT kv 5").starts_with("ERR"));
        assert!(ok(&*s, "PUT kv 5 50 500").starts_with("ERR"));
        // The open transaction survived all of the above errors.
        assert_eq!(ok(&*s, "PUT kv 5 50"), "OK");
        assert_eq!(ok(&*s, "COMMIT"), "OK");
        drop(s);
        rig.shutdown();
    }
}

#[test]
fn read_only_session_rejects_writes() {
    for rig in rigs(1, 4) {
        let s = rig.client();
        assert_eq!(ok(&*s, "BEGIN SERIALIZABLE READ ONLY"), "OK");
        assert!(ok(&*s, "PUT kv 1 1").starts_with("ERR"));
        assert_eq!(ok(&*s, "COMMIT"), "OK");
        // DEFERRABLE with nothing concurrent: safe snapshot immediately.
        assert_eq!(ok(&*s, "BEGIN SERIALIZABLE READ ONLY DEFERRABLE"), "OK");
        assert_eq!(ok(&*s, "SCAN kv"), "ROWS 0");
        assert_eq!(ok(&*s, "COMMIT"), "OK");
        drop(s);
        rig.shutdown();
    }
}

/// The classic write-skew anomaly, driven entirely over the wire protocol:
/// interactive sessions holding transactions open across scheduling quanta.
/// Under SERIALIZABLE one of the two must fail; under REPEATABLE READ (plain
/// SI) both commit. Runs over both transports.
#[test]
fn write_skew_caught_over_the_wire() {
    for (iso, expect_anomaly_blocked) in [("", true), (" REPEATABLE READ", false)] {
        for rig in rigs(2, 4) {
            let seed = rig.client();
            for r in seed
                .pipeline(&["BEGIN READ COMMITTED", "PUT kv 1 1", "PUT kv 2 1", "COMMIT"])
                .unwrap()
            {
                assert_eq!(r, "OK");
            }
            let a = rig.client();
            let b = rig.client();
            assert_eq!(ok(&*a, &format!("BEGIN{iso}")), "OK");
            assert_eq!(ok(&*b, &format!("BEGIN{iso}")), "OK");
            // Each reads both rows, then writes the *other* row.
            assert_eq!(ok(&*a, "GET kv 1"), "ROW 1 1");
            assert_eq!(ok(&*a, "GET kv 2"), "ROW 2 1");
            assert_eq!(ok(&*b, "GET kv 1"), "ROW 1 1");
            assert_eq!(ok(&*b, "GET kv 2"), "ROW 2 1");
            let ra = ok(&*a, "PUT kv 1 0");
            let rb = ok(&*b, "PUT kv 2 0");
            let ca = ok(&*a, "COMMIT");
            let cb = ok(&*b, "COMMIT");
            let failures = [&ra, &rb, &ca, &cb]
                .iter()
                .filter(|r| r.starts_with("ERR"))
                .count();
            if expect_anomaly_blocked {
                assert!(failures > 0, "SSI must abort one side of write skew");
            } else {
                assert_eq!(failures, 0, "plain SI permits write skew");
            }
            drop((seed, a, b));
            rig.shutdown();
        }
    }
}

/// Counter increments from many concurrent sessions must not lose updates:
/// serialization failures may abort attempts, but every committed attempt
/// must be reflected in the final value.
#[test]
fn concurrent_sessions_do_not_lose_updates() {
    let server = kv_server(4, 64);
    let setup = server.connect().unwrap();
    for r in setup
        .pipeline(&["BEGIN READ COMMITTED", "PUT kv 0 0", "COMMIT"])
        .unwrap()
    {
        assert_eq!(r, "OK");
    }
    let server = Arc::new(server);
    let committed: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let server = Arc::clone(&server);
            handles.push(scope.spawn(move || {
                let s = server.connect().unwrap();
                let mut ok = 0u64;
                for _ in 0..25 {
                    if s.roundtrip("BEGIN").unwrap() != "OK" {
                        continue;
                    }
                    let got = s.roundtrip("GET kv 0").unwrap();
                    let Some(v) = got
                        .strip_prefix("ROW 0 ")
                        .and_then(|v| v.parse::<i64>().ok())
                    else {
                        let _ = s.roundtrip("ABORT");
                        continue;
                    };
                    let put = s.roundtrip(&format!("PUT kv 0 {}", v + 1)).unwrap();
                    if put != "OK" {
                        continue; // auto-aborted
                    }
                    if s.roundtrip("COMMIT").unwrap() == "OK" {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let check = server.connect().unwrap();
    assert_eq!(check.roundtrip("BEGIN READ ONLY").unwrap(), "OK");
    let got = check.roundtrip("GET kv 0").unwrap();
    let v: u64 = got.strip_prefix("ROW 0 ").unwrap().parse().unwrap();
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(
        v, committed,
        "committed increments must all be present (no lost updates)"
    );
    assert!(committed > 0);
}

/// The acceptance shape: 1024 logical sessions on 4 workers, pipelined
/// transactions, no deadlock and real throughput. Also checks the session
/// counters surface through `stats_report`.
#[test]
fn a_thousand_sessions_on_four_workers() {
    let server = kv_server(4, 1100);
    let setup = server.connect().unwrap();
    let mut batch = vec!["BEGIN READ COMMITTED".to_string()];
    for k in 0..64 {
        batch.push(format!("PUT kv {k} 0"));
    }
    batch.push("COMMIT".to_string());
    let refs: Vec<&str> = batch.iter().map(|s| s.as_str()).collect();
    for r in setup.pipeline(&refs).unwrap() {
        assert_eq!(r, "OK");
    }

    let sessions: Vec<_> = (0..1024).map(|_| server.connect().unwrap()).collect();
    assert_eq!(server.live_sessions(), 1025); // + setup session
                                              // Every session pipelines one read-mostly transaction; 90% read 4 keys,
                                              // 10% bump one key. All inboxes are loaded before any response is read.
    for (i, s) in sessions.iter().enumerate() {
        if i % 10 == 0 {
            s.send("BEGIN").unwrap();
            s.send(&format!("PUT kv {} 1", i % 64)).unwrap();
            s.send("COMMIT").unwrap();
        } else {
            s.send("BEGIN").unwrap();
            for j in 0..4 {
                s.send(&format!("GET kv {}", (i + j * 17) % 64)).unwrap();
            }
            s.send("COMMIT").unwrap();
        }
    }
    let mut commits = 0;
    for (i, s) in sessions.iter().enumerate() {
        let n = if i % 10 == 0 { 3 } else { 6 };
        let responses: Vec<String> = (0..n).map(|_| s.recv().unwrap()).collect();
        if responses.last().unwrap() == "OK" {
            commits += 1;
        }
    }
    assert!(
        commits > 900,
        "read-mostly mix should mostly commit, got {commits}/1024"
    );
    let report = server.db().stats_report();
    assert_eq!(report.sessions_opened, 1025);
    assert!(report.session_requests >= 1024 * 3);
    assert_eq!(report.session_requests, report.session_executed);
    drop(sessions);
    drop(setup);
    Arc::try_unwrap(Arc::new(server)).ok().unwrap().shutdown();
}

/// Regression: with every worker blocked on row locks held by a descheduled
/// session, no worker is left to run the holder, and without a reserve the
/// pool freezes until the lock-wait timeout aborts the waiter. The emergency
/// reserve worker must run the holder's queued COMMIT so the waiter's PUT
/// *succeeds* (a timeout would return ERR).
#[test]
fn all_workers_blocked_on_one_holder_resolves_via_reserve_worker() {
    let server = kv_server(1, 8); // a single worker: trivially "all of them"
    let setup = server.connect().unwrap();
    assert_eq!(setup.roundtrip("BEGIN").unwrap(), "OK");
    assert_eq!(setup.roundtrip("PUT kv 9 90").unwrap(), "OK");
    assert_eq!(setup.roundtrip("COMMIT").unwrap(), "OK");
    drop(setup);

    // Interactive holder: takes the row lock, then deschedules (idle).
    let holder = server.connect().unwrap();
    assert_eq!(holder.roundtrip("BEGIN REPEATABLE READ").unwrap(), "OK");
    assert_eq!(holder.roundtrip("PUT kv 9 91").unwrap(), "OK");

    // The waiter's PUT blocks the pool's only worker on the holder's lock.
    let waiter = server.connect().unwrap();
    assert_eq!(waiter.roundtrip("BEGIN READ COMMITTED").unwrap(), "OK");
    waiter.send("PUT kv 9 92").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while server.db().stats_report().txn_wait_reports < 1 {
        assert!(std::time::Instant::now() < deadline, "worker never blocked");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The holder's COMMIT arrives with zero free workers. Only an emergency
    // reserve worker can run it; otherwise the waiter times out with ERR.
    assert_eq!(holder.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(waiter.recv().unwrap(), "OK");
    assert_eq!(waiter.roundtrip("COMMIT").unwrap(), "OK");
    assert!(
        server.db().stats_report().session_reserve_workers >= 1,
        "the stall must resolve through a reserve worker, not the lock timeout"
    );

    let check = server.connect().unwrap();
    assert_eq!(check.roundtrip("BEGIN").unwrap(), "OK");
    assert_eq!(check.roundtrip("GET kv 9").unwrap(), "ROW 9 92");
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    drop((holder, waiter, check));
    server.shutdown();
}

/// A TCP session has exactly one runner, its connection thread: no pool
/// worker has to run any part of it, not even its first activation. With the
/// pool's only worker parked on a row lock, a fresh connection still commits
/// at once, and the parked waiter is then released by its holder's commit,
/// not by the lock-wait timeout.
#[test]
fn tcp_session_never_waits_for_a_pool_worker() {
    let mut config = EngineConfig::default();
    config.ssi.lock_wait_timeout = std::time::Duration::from_secs(5);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let server = Server::new(db, ServerConfig::with_workers(1));
    let front = server.listen("127.0.0.1:0").unwrap();

    let holder = server.connect().unwrap();
    assert_eq!(
        holder
            .pipeline(&["BEGIN", "PUT kv 9 90", "COMMIT"])
            .unwrap(),
        ["OK", "OK", "OK"]
    );
    assert_eq!(holder.roundtrip("BEGIN REPEATABLE READ").unwrap(), "OK");
    assert_eq!(holder.roundtrip("PUT kv 9 91").unwrap(), "OK");
    let waiter = server.connect().unwrap();
    assert_eq!(waiter.roundtrip("BEGIN READ COMMITTED").unwrap(), "OK");
    waiter.send("PUT kv 9 92").unwrap(); // parks the only worker
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while server.db().stats_report().txn_wait_reports < 1 {
        assert!(std::time::Instant::now() < deadline, "worker never blocked");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let fresh = TcpClient::connect(front.local_addr()).unwrap();
    let start = std::time::Instant::now();
    assert_eq!(fresh.pipeline(&["BEGIN", "COMMIT"]).unwrap(), ["OK", "OK"]);
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "a TCP session waited {took:?} for the blocked pool worker"
    );

    assert_eq!(holder.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(waiter.recv().unwrap(), "OK");
    assert_eq!(waiter.roundtrip("COMMIT").unwrap(), "OK");
    drop((holder, waiter, fresh));
    front.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Introspection verbs: STATS / HIST / ACTIVITY
// ---------------------------------------------------------------------------

/// `STATS` and `HIST` round-trip over both transports: single-line responses
/// whose numbers reflect work the session just did, and unknown histogram
/// names fail helpfully instead of fatally.
#[test]
fn stats_and_hist_verbs_round_trip() {
    for rig in rigs(2, 8) {
        let s = rig.client();
        assert_eq!(ok(&*s, "BEGIN"), "OK");
        assert_eq!(ok(&*s, "PUT kv 1 10"), "OK");
        assert_eq!(ok(&*s, "COMMIT"), "OK");

        let stats = ok(&*s, "STATS");
        assert!(stats.starts_with("STATS "), "got {stats}");
        assert!(!stats.contains('\n'), "wire responses are single lines");
        assert!(stats.contains("commits"), "got {stats}");
        assert!(stats.contains("aborts"), "got {stats}");

        // Latency recording is on by default, so the COMMIT above must show
        // up in the commit histogram with nonzero percentiles.
        let hist = ok(&*s, "HIST commit");
        let n: u64 = hist
            .strip_prefix("HIST commit n=")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable HIST response: {hist}"));
        assert!(n >= 1, "the COMMIT above must be recorded: {hist}");
        for field in ["p50=", "p95=", "p99=", "max="] {
            assert!(hist.contains(field), "missing {field} in {hist}");
        }

        let bad = ok(&*s, "HIST bogus");
        assert!(bad.starts_with("ERR"), "got {bad}");
        assert!(bad.contains("commit"), "ERR must list known names: {bad}");

        // The introspection verbs left the session fully usable.
        assert_eq!(ok(&*s, "BEGIN"), "OK");
        assert_eq!(ok(&*s, "GET kv 1"), "ROW 1 10");
        assert_eq!(ok(&*s, "COMMIT"), "OK");
        drop(s);
        rig.shutdown();
    }
}

/// `ACTIVITY` shows a session genuinely parked on a row lock: state
/// `waiting`, its own txid and isolation level, and the *holder's* txid as
/// the wait target — the wire-level analogue of pg_stat_activity's
/// wait_event columns. Runs over both transports.
#[test]
fn activity_reports_blocked_session_and_wait_target() {
    for tcp in [false, true] {
        // A longer lock timeout than `kv_server`'s 200ms: the observer must
        // get its ACTIVITY response while the waiter is still parked.
        let mut config = EngineConfig::default();
        config.ssi.lock_wait_timeout = std::time::Duration::from_secs(5);
        let db = Database::new(config);
        db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let server = Server::new(
            db,
            ServerConfig {
                workers: 3,
                max_sessions: 8,
                ..ServerConfig::default()
            },
        );
        let rig = Rig {
            tcp: if tcp {
                Some(server.listen("127.0.0.1:0").unwrap())
            } else {
                None
            },
            server,
        };

        let setup = rig.client();
        assert_eq!(ok(&*setup, "BEGIN"), "OK");
        assert_eq!(ok(&*setup, "PUT kv 7 70"), "OK");
        assert_eq!(ok(&*setup, "COMMIT"), "OK");

        // Interactive holder: takes the row lock, then deschedules.
        let holder = rig.client();
        assert_eq!(ok(&*holder, "BEGIN REPEATABLE READ"), "OK");
        assert_eq!(ok(&*holder, "PUT kv 7 71"), "OK");

        let waiter = rig.client();
        assert_eq!(ok(&*waiter, "BEGIN READ COMMITTED"), "OK");
        waiter.send("PUT kv 7 72").unwrap(); // parks on the holder's row lock

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while rig.server.db().stats_report().txn_wait_reports < 1 {
            assert!(std::time::Instant::now() < deadline, "worker never blocked");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        // Response shape: `ROWS <n> sid,state,txid,iso,wait|...`.
        let observer = rig.client();
        let activity = ok(&*observer, "ACTIVITY");
        let body = activity
            .strip_prefix("ROWS ")
            .unwrap_or_else(|| panic!("not a ROWS response: {activity}"))
            .split_once(' ')
            .map_or("", |(_, b)| b);
        let rows: Vec<Vec<&str>> = body.split('|').map(|r| r.split(',').collect()).collect();
        let waiting: Vec<&Vec<&str>> = rows.iter().filter(|r| r[1] == "waiting").collect();
        assert_eq!(waiting.len(), 1, "exactly one waiting session: {activity}");
        let w = waiting[0];
        assert_ne!(w[2], "-", "waiting session must report a txid: {activity}");
        assert_eq!(w[3], "RC", "waiter runs READ COMMITTED: {activity}");
        // The wait target is the holder's txid — the one session currently
        // active under REPEATABLE READ (labelled SI on the wire).
        let holders: Vec<&Vec<&str>> = rows
            .iter()
            .filter(|r| r[1] == "active" && r[3] == "SI")
            .collect();
        assert_eq!(holders.len(), 1, "holder visible as active SI: {activity}");
        assert_eq!(
            w[4], holders[0][2],
            "wait target must be the holder's txid: {activity}"
        );

        // Unblock and finish cleanly: the waiter's PUT succeeds once the
        // holder commits, and a fresh ACTIVITY shows no one waiting.
        assert_eq!(ok(&*holder, "COMMIT"), "OK");
        assert_eq!(waiter.recv().unwrap(), "OK");
        assert_eq!(ok(&*waiter, "COMMIT"), "OK");
        let after = ok(&*observer, "ACTIVITY");
        assert!(
            !after.contains("waiting"),
            "no session should still be waiting: {after}"
        );
        drop((setup, holder, waiter, observer));
        rig.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Transport/TCP-specific behavior
// ---------------------------------------------------------------------------

/// Closed-server paths surface as `Error::Disconnected` on both transports.
#[test]
fn closed_session_surfaces_disconnected() {
    // In-process: dropping the server side of the rig closes sessions.
    let server = kv_server(1, 4);
    let s = server.connect().unwrap();
    assert_eq!(s.roundtrip("BEGIN").unwrap(), "OK");
    server.shutdown();
    // The session retires; once the response queue drains, recv/send fail.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        match s.roundtrip("GET kv 1") {
            Err(Error::Disconnected(_)) => break,
            Err(e) => panic!("expected Disconnected, got {e:?}"),
            Ok(_) => assert!(
                std::time::Instant::now() < deadline,
                "session never observed shutdown"
            ),
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // TCP: a client on a dead connection fails the same way.
    let server = kv_server(1, 4);
    let front = server.listen("127.0.0.1:0").unwrap();
    let c = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(c.roundtrip("BEGIN").unwrap(), "OK");
    front.shutdown();
    server.shutdown();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let dead = matches!(c.send("GET kv 1"), Err(Error::Disconnected(_)))
            || matches!(c.recv(), Err(Error::Disconnected(_)));
        if dead {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "TCP client never observed shutdown"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Dropping a TCP client mid-transaction rolls the transaction back — the
/// same contract as dropping a `SessionHandle`.
#[test]
fn tcp_disconnect_rolls_back_open_transaction() {
    let server = kv_server(2, 8);
    let front = server.listen("127.0.0.1:0").unwrap();
    {
        let c = TcpClient::connect(front.local_addr()).unwrap();
        assert_eq!(c.roundtrip("BEGIN").unwrap(), "OK");
        assert_eq!(c.roundtrip("PUT kv 9 90").unwrap(), "OK");
        // Dropped here: socket closes, no COMMIT ever sent.
    }
    let check = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(check.roundtrip("BEGIN").unwrap(), "OK");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        if check.roundtrip("GET kv 9").unwrap() == "NIL" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "uncommitted TCP write must never become visible"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    drop(check);
    front.shutdown();
    server.shutdown();
}

/// A transaction sent line by line and then read reaches the server in one
/// `read`: the client holds its lone `BEGIN` and writes it with the lines
/// after it at the first receive. One read of slack for a segment the kernel
/// happens to split. Whether a `BEGIN` written alone shares the server's
/// read with the next write depends on which thread runs first, so the
/// first transaction also gives the server 100 ms to receive a lone
/// `BEGIN`, and it must receive nothing.
#[test]
fn a_line_by_line_transaction_is_one_server_read() {
    const N: u64 = 50;
    let server = kv_server(1, 4);
    let front = server.listen("127.0.0.1:0").unwrap();
    let c = TcpClient::connect(front.local_addr()).unwrap();
    let stats = || server.db().stats_report();
    let (reads_before, requests_before) = {
        let s = stats();
        (s.session_socket_reads, s.session_requests)
    };
    for i in 0..N {
        c.send("BEGIN").unwrap();
        if i == 0 {
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
            while std::time::Instant::now() < deadline {
                assert_eq!(
                    stats().session_requests,
                    requests_before,
                    "a lone BEGIN reached the server"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        for line in [
            format!("PUT kv {i} {i}"),
            format!("GET kv {i}"),
            "COMMIT".into(),
        ] {
            c.send(&line).unwrap();
        }
        let replies: Vec<String> = (0..4).map(|_| c.recv().unwrap()).collect();
        assert_eq!(replies, ["OK", "OK", &format!("ROW {i} {i}"), "OK"]);
    }
    let reads = stats().session_socket_reads - reads_before;
    assert!(reads <= N + 1, "{reads} server reads for {N} transactions");
    drop(c);
    front.shutdown();
    server.shutdown();
}

/// `TcpFrontEnd::shutdown` wakes the blocked accept at once, whether or not a
/// connection is live, and the port is closed afterwards.
#[test]
fn front_end_shutdown_is_prompt_and_closes_the_port() {
    for live_client in [false, true] {
        let server = kv_server(1, 4);
        let front = server.listen("127.0.0.1:0").unwrap();
        let addr = front.local_addr();
        let client = live_client.then(|| {
            let c = TcpClient::connect(addr).unwrap();
            assert_eq!(c.roundtrip("BEGIN").unwrap(), "OK");
            c
        });
        let start = std::time::Instant::now();
        front.shutdown();
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "shutdown took {took:?} (live client: {live_client})"
        );
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "a connect after shutdown must be refused"
        );
        // An established connection outlives the listener.
        if let Some(c) = &client {
            assert_eq!(c.roundtrip("COMMIT").unwrap(), "OK");
        }
        drop(client);
        server.shutdown();
    }
}

/// Concurrent TCP clients running the counter workload: real sockets must
/// not lose updates either.
#[test]
fn concurrent_tcp_clients_do_not_lose_updates() {
    let server = kv_server(4, 32);
    let front = server.listen("127.0.0.1:0").unwrap();
    let addr = front.local_addr();
    let seed = TcpClient::connect(addr).unwrap();
    for r in seed
        .pipeline(&["BEGIN READ COMMITTED", "PUT kv 0 0", "COMMIT"])
        .unwrap()
    {
        assert_eq!(r, "OK");
    }
    drop(seed);
    let committed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let s = TcpClient::connect(addr).unwrap();
                    let mut ok = 0u64;
                    for _ in 0..20 {
                        if s.roundtrip("BEGIN").unwrap() != "OK" {
                            continue;
                        }
                        let got = s.roundtrip("GET kv 0").unwrap();
                        let Some(v) = got
                            .strip_prefix("ROW 0 ")
                            .and_then(|v| v.parse::<i64>().ok())
                        else {
                            let _ = s.roundtrip("ABORT");
                            continue;
                        };
                        if s.roundtrip(&format!("PUT kv 0 {}", v + 1)).unwrap() != "OK" {
                            continue;
                        }
                        if s.roundtrip("COMMIT").unwrap() == "OK" {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let check = TcpClient::connect(addr).unwrap();
    assert_eq!(check.roundtrip("BEGIN READ ONLY").unwrap(), "OK");
    let got = check.roundtrip("GET kv 0").unwrap();
    let v: u64 = got.strip_prefix("ROW 0 ").unwrap().parse().unwrap();
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(v, committed, "TCP transport must not lose updates");
    assert!(committed > 0);
    drop(check);
    front.shutdown();
    server.shutdown();
}

/// A client that streams an endless request line is cut off once the line
/// passes `ServerConfig::max_request_line`, and the disconnect rolls back its
/// open transaction like any other hangup.
#[test]
fn oversized_request_line_closes_the_connection() {
    let mut config = EngineConfig::default();
    config.ssi.lock_wait_timeout = std::time::Duration::from_millis(200);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let cfg = ServerConfig {
        max_request_line: 4096,
        ..ServerConfig::with_workers(2)
    };
    let server = Server::new(db, cfg);
    let front = server.listen("127.0.0.1:0").unwrap();

    let c = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(c.roundtrip("BEGIN").unwrap(), "OK");
    assert_eq!(c.roundtrip("PUT kv 7 70").unwrap(), "OK");
    // Never-terminated garbage, well past the cap.
    let flood = "x".repeat(64 * 1024);
    let _ = c.send(&flood); // may not error until the server closes
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let dead = matches!(c.send("GET kv 7"), Err(Error::Disconnected(_)))
            || matches!(c.recv(), Err(Error::Disconnected(_)));
        if dead {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "oversized line must get the connection closed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The open transaction rolled back with the session.
    let check = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(check.roundtrip("BEGIN").unwrap(), "OK");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        if check.roundtrip("GET kv 7").unwrap() == "NIL" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "flooded session's uncommitted write must never become visible"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    drop(check);
    drop(c);
    front.shutdown();
    server.shutdown();
}

/// A connection that goes quiet for longer than `ServerConfig::idle_timeout`
/// is reaped; its open transaction rolls back.
#[test]
fn idle_connection_times_out_and_rolls_back() {
    let mut config = EngineConfig::default();
    config.ssi.lock_wait_timeout = std::time::Duration::from_millis(200);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let cfg = ServerConfig {
        idle_timeout: Some(std::time::Duration::from_millis(100)),
        ..ServerConfig::with_workers(2)
    };
    let server = Server::new(db, cfg);
    let front = server.listen("127.0.0.1:0").unwrap();

    let c = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(c.roundtrip("BEGIN").unwrap(), "OK");
    assert_eq!(c.roundtrip("PUT kv 8 80").unwrap(), "OK");
    // Go quiet past the idle window.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let dead = matches!(c.send("GET kv 8"), Err(Error::Disconnected(_)))
            || matches!(c.recv(), Err(Error::Disconnected(_)));
        if dead {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection must be reaped"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let check = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(check.roundtrip("BEGIN").unwrap(), "OK");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        if check.roundtrip("GET kv 8").unwrap() == "NIL" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle session's uncommitted write must never become visible"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(check.roundtrip("COMMIT").unwrap(), "OK");
    drop(check);
    drop(c);
    front.shutdown();
    server.shutdown();
}

/// A TCP session runs on its connection's own thread, so when it parks on a
/// row lock no pool worker is lost: it must not count towards the
/// all-workers-blocked test. With one worker, a TCP waiter behind a TCP
/// holder resolves without any reserve worker, the count does not leak, and
/// the same shape over in-process sessions (which do occupy the worker)
/// still gets its reserve afterwards.
#[test]
fn tcp_waiter_is_not_counted_as_a_blocked_worker() {
    let mut config = EngineConfig::default();
    config.ssi.lock_wait_timeout = std::time::Duration::from_secs(5);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let server = Server::new(
        db,
        ServerConfig {
            workers: 1,
            max_sessions: 8,
            ..ServerConfig::default()
        },
    );
    let front = server.listen("127.0.0.1:0").unwrap();
    let wait_reports = || server.db().stats_report().txn_wait_reports;
    let blocked_since = |reports: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while wait_reports() == reports {
            assert!(std::time::Instant::now() < deadline, "waiter never blocked");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };

    let holder = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(
        holder
            .pipeline(&["BEGIN", "PUT kv 9 90", "COMMIT"])
            .unwrap(),
        ["OK", "OK", "OK"]
    );
    assert_eq!(holder.roundtrip("BEGIN REPEATABLE READ").unwrap(), "OK");
    assert_eq!(holder.roundtrip("PUT kv 9 91").unwrap(), "OK");
    let waiter = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(waiter.roundtrip("BEGIN READ COMMITTED").unwrap(), "OK");
    let reports = wait_reports();
    waiter.send("PUT kv 9 92").unwrap(); // parks its connection thread
    blocked_since(reports);
    // The holder's COMMIT arrives on its own connection, which runs it.
    assert_eq!(holder.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(waiter.recv().unwrap(), "OK");
    assert_eq!(waiter.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(
        server.db().stats_report().session_reserve_workers,
        0,
        "the only worker was free all along: no reserve is due"
    );

    // Nothing leaked: were the parked connection thread still counted, the
    // pool would look all-blocked from here on, and waking a session that
    // owns a transaction (the COMMIT below) would spawn a reserve for nothing.
    let idle = server.connect().unwrap();
    for line in ["BEGIN", "PUT kv 8 80", "COMMIT"] {
        assert_eq!(idle.roundtrip(line).unwrap(), "OK");
    }
    assert_eq!(server.db().stats_report().session_reserve_workers, 0);

    // Same shape in-process: the waiter now does block the pool's only
    // worker, and the stall still resolves through the reserve spawned when
    // the holder's COMMIT is queued.
    let holder = server.connect().unwrap();
    assert_eq!(holder.roundtrip("BEGIN REPEATABLE READ").unwrap(), "OK");
    assert_eq!(holder.roundtrip("PUT kv 9 93").unwrap(), "OK");
    let waiter = server.connect().unwrap();
    assert_eq!(waiter.roundtrip("BEGIN READ COMMITTED").unwrap(), "OK");
    let reports = wait_reports();
    waiter.send("PUT kv 9 94").unwrap();
    blocked_since(reports);
    assert_eq!(holder.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(waiter.recv().unwrap(), "OK");
    assert_eq!(waiter.roundtrip("COMMIT").unwrap(), "OK");
    let reserves = server.db().stats_report().session_reserve_workers;
    assert!((1..=2).contains(&reserves), "got {reserves}");

    drop((holder, waiter, idle));
    front.shutdown();
    server.shutdown();
}

/// `Server::shutdown` reaches a TCP session wherever its task is: parked in
/// its slot (the holder, idle between statements) or claimed by its own
/// connection thread (the waiter, inside a row-lock wait). Both clients end
/// up `Disconnected` and both open transactions roll back.
#[test]
fn shutdown_closes_tcp_sessions_parked_or_claimed() {
    let mut config = EngineConfig::default();
    config.ssi.lock_wait_timeout = std::time::Duration::from_millis(200);
    let db = Database::new(config);
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let server = Server::new(db.clone(), ServerConfig::with_workers(1));
    let front = server.listen("127.0.0.1:0").unwrap();

    let holder = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(
        holder
            .pipeline(&["BEGIN", "PUT kv 7 70", "COMMIT"])
            .unwrap(),
        ["OK", "OK", "OK"]
    );
    assert_eq!(holder.roundtrip("BEGIN REPEATABLE READ").unwrap(), "OK");
    assert_eq!(holder.roundtrip("PUT kv 7 71").unwrap(), "OK");
    let waiter = TcpClient::connect(front.local_addr()).unwrap();
    assert_eq!(waiter.roundtrip("BEGIN READ COMMITTED").unwrap(), "OK");
    assert_eq!(waiter.roundtrip("PUT kv 8 80").unwrap(), "OK");
    waiter.send("PUT kv 7 72").unwrap(); // parks the waiter's connection thread
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while db.stats_report().txn_wait_reports < 1 {
        assert!(std::time::Instant::now() < deadline, "waiter never blocked");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    front.shutdown();
    server.shutdown();
    for client in [&holder, &waiter] {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        // The waiter may first be told its lock wait timed out.
        while !matches!(client.recv(), Err(Error::Disconnected(_))) {
            assert!(
                std::time::Instant::now() < deadline,
                "client never observed shutdown"
            );
        }
    }
    let mut check = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
    let seven = check.get("kv", &row![7]).unwrap();
    assert_eq!(seven.map(|r| r[1].clone()), Some(70.into()));
    assert_eq!(check.get("kv", &row![8]).unwrap(), None);
    check.commit().unwrap();
}

/// Session-pool overload as behaviour: a client that pipelines requests and
/// never reads a response jams its own connection — the responses overrun
/// both socket buffers and the session blocks in `write` — and nothing else.
/// With a single pool worker, a second TCP client and an in-process session
/// still commit promptly, and when the slow client hangs up its session goes
/// away.
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    use std::io::Write;

    let server = kv_server(1, 8);
    let front = server.listen("127.0.0.1:0").unwrap();
    let sessions_before = server.live_sessions();

    // A raw socket: `TcpClient` would hold lines back behind the first.
    let mut slow = std::net::TcpStream::connect(front.local_addr()).unwrap();
    slow.set_write_timeout(Some(std::time::Duration::from_millis(500)))
        .unwrap();
    let flood = std::thread::spawn(move || {
        // Each 9-byte request earns a 24-byte `ERR no transaction open`.
        let chunk = b"GET kv 1\n".repeat(4096);
        let mut sent = 0usize;
        while sent < 64 << 20 {
            match slow.write(&chunk) {
                Ok(n) => sent += n,
                // Timed out: the server has stopped reading this socket.
                Err(_) => break,
            }
        }
        (slow, sent)
    });
    let (slow, sent) = flood.join().unwrap();
    assert!(sent > 0);

    // Each commits on its own thread so that a wedged server fails the test
    // instead of hanging it.
    let commit = |client: Box<dyn Transport>| {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(client.pipeline(&["BEGIN", "PUT kv 1 1", "COMMIT"]));
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
    };
    let over_tcp = commit(Box::new(TcpClient::connect(front.local_addr()).unwrap()));
    assert_eq!(
        over_tcp.expect("TCP commit stalled").unwrap(),
        ["OK", "OK", "OK"]
    );
    let in_process = commit(Box::new(server.connect().unwrap()));
    assert_eq!(
        in_process.expect("in-process commit stalled").unwrap(),
        ["OK", "OK", "OK"]
    );

    drop(slow);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.live_sessions() != sessions_before {
        assert!(
            std::time::Instant::now() < deadline,
            "the slow client's session must retire once it hangs up"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    front.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded cluster behind the wire layer
// ---------------------------------------------------------------------------

/// A server fronting a multi-shard cluster: BEGIN pins nothing, statements
/// route per shard, cross-shard transactions escalate to 2PC transparently,
/// STATS aggregates every shard plus the coordinator counters, and ACTIVITY
/// rows carry the enlisted-shards column.
#[test]
fn sharded_server_routes_per_statement() {
    use pgssi_engine::ShardedDatabase;

    let cluster = ShardedDatabase::new(4, EngineConfig::default());
    cluster
        .create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let server = Server::new_cluster(
        cluster,
        ServerConfig {
            workers: 2,
            max_sessions: 8,
            ..ServerConfig::default()
        },
    );

    // Enough keys to guarantee both single- and cross-shard transactions.
    let s = server.connect().unwrap();
    for i in 0..8 {
        assert_eq!(s.roundtrip("BEGIN").unwrap(), "OK");
        assert_eq!(
            s.roundtrip(&format!("PUT kv {i} {}", i * 10)).unwrap(),
            "OK"
        );
        assert_eq!(s.roundtrip("COMMIT").unwrap(), "OK");
    }
    // One wide transaction spanning every key: cross-shard 2PC on the wire.
    assert_eq!(s.roundtrip("BEGIN").unwrap(), "OK");
    for i in 0..8 {
        assert_eq!(
            s.roundtrip(&format!("GET kv {i}")).unwrap(),
            format!("ROW {i} {}", i * 10)
        );
    }
    assert_eq!(s.roundtrip("PUT kv 0 1000").unwrap(), "OK");
    assert_eq!(s.roundtrip("PUT kv 7 1700").unwrap(), "OK");

    // Mid-transaction ACTIVITY: this session's row must list multiple
    // enlisted shards, "+"-joined, in the trailing column.
    let observer = server.connect().unwrap();
    let activity = observer.roundtrip("ACTIVITY").unwrap();
    let body = activity
        .strip_prefix("ROWS ")
        .unwrap_or_else(|| panic!("not a ROWS response: {activity}"))
        .split_once(' ')
        .map_or("", |(_, b)| b);
    let cross: Vec<&str> = body
        .split('|')
        .filter(|r| r.split(',').nth(5).is_some_and(|s| s.contains('+')))
        .collect();
    assert_eq!(
        cross.len(),
        1,
        "the open cross-shard transaction must show its shards: {activity}"
    );

    assert_eq!(s.roundtrip("COMMIT").unwrap(), "OK");
    assert_eq!(s.roundtrip("BEGIN").unwrap(), "OK");
    assert_eq!(s.roundtrip("GET kv 0").unwrap(), "ROW 0 1000");
    assert_eq!(s.roundtrip("SCAN kv").unwrap().split(' ').nth(1), Some("8"));
    assert_eq!(s.roundtrip("COMMIT").unwrap(), "OK");

    // STATS is cluster-wide: the coordinator line reports the 2PC traffic.
    let stats = observer.roundtrip("STATS").unwrap();
    assert!(
        stats.contains("cluster: shards 4"),
        "STATS must carry the cluster line: {stats}"
    );
    assert!(
        stats.contains("cross-shard-2pc-commits"),
        "STATS must carry the 2PC counters: {stats}"
    );
    let report = server.db().stats_report();
    assert!(report.cluster_cross_commits >= 1, "wide txn ran 2PC");
    assert!(
        report.cluster_single_commits >= 1,
        "narrow txns stayed local"
    );
    assert_eq!(
        report.cluster_enlistments,
        report.cluster_cross_commits + report.cluster_cross_aborts,
        "single-shard transactions must never enlist the coordinator"
    );

    drop((s, observer));
    server.shutdown();
}
