//! Real-socket front-end: a [`std::net::TcpListener`] accept loop in front
//! of the same [`SessionPool`] the in-process wire layer uses.
//!
//! **A connection is a thread.** Each accepted socket becomes one logical
//! session and one named thread (`pgssi-conn-<sid>`) that does, per batch of
//! pipelined requests, exactly one `read`, one drain and one `write`:
//!
//! 1. `read` whatever the socket holds and split *every* complete line out of
//!    it ([`LineReader`], a cursor over the buffer);
//! 2. queue those lines on the session's inbox in one step and run the
//!    session's drain — parse, execute, format — on this thread, with no
//!    hand-off to a pool worker and no wake-up;
//! 3. the drain ends by writing all its response lines to the socket at once,
//!    and the thread goes back to `read`.
//!
//! That is PostgreSQL's backend-per-connection shape (paper §8.2): a session
//! that blocks — on a row lock, on a DEFERRABLE wait, on a client too slow to
//! take its responses — blocks its own thread and nobody else's, and TCP flow
//! control bounds its inbox (the thread does not read while it executes).
//!
//! **One runner per session.** The connection thread is the only thread that
//! ever runs its session: the session is opened idle, nothing ever wakes it,
//! so it never enters the pool's ready queue and no pool worker can claim
//! it. [`ServerConfig::workers`] sizes the pool for the sessions that have no
//! thread of their own (in-process sessions, benchmark terminals), and a TCP
//! session parked on a row lock never counts as a blocked worker.
//!
//! [`TcpClient`] is the matching client: the same line protocol over a socket,
//! speaking [`Transport`] so harnesses can swap it for a
//! [`SessionHandle`](crate::SessionHandle) without code changes. Its `send`
//! writes through when the connection is idle, coalesces behind a request
//! already in flight, and holds a lone `BEGIN` until its transaction's next
//! flush (see [`Transport::send`]), so a transaction sent line by line and
//! then read costs one write, as does [`Transport::pipeline`].
//!
//! [`ServerConfig::workers`]: pgssi_common::ServerConfig::workers

use std::io::{self, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pgssi_common::{Error, Result};
use pgssi_engine::ShardedDatabase;

use crate::lines::{LineReader, LineWriter};
use crate::pool::{SessionId, SessionPool};
use crate::proto;
use crate::transport::Transport;
use crate::wire::{Duplex, ResponseSink, Server, WireTask};

fn io_disconnected(what: &str, e: io::Error) -> Error {
    Error::Disconnected(format!("{what}: {e}"))
}

impl Server {
    /// Start accepting real TCP connections on `addr` (use port 0 to let the
    /// OS pick; read the chosen port back from
    /// [`TcpFrontEnd::local_addr`]). Sessions accepted here share the pool —
    /// and its `max_sessions` cap — with in-process [`Server::connect`]
    /// sessions; over-cap connections are dropped, which the client observes
    /// as a disconnect.
    pub fn listen(&self, addr: impl ToSocketAddrs) -> Result<TcpFrontEnd> {
        let listener =
            TcpListener::bind(addr).map_err(|e| io_disconnected("TCP bind failed", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| io_disconnected("TCP local_addr failed", e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let pool = Arc::clone(&self.pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_loop(
                    &stop,
                    || listener.accept().map(|(stream, _)| stream),
                    |stream| {
                        // Capacity errors drop the stream: the client sees
                        // EOF, exactly like a refused backend.
                        let _ = serve_connection(&pool, stream);
                    },
                );
            })
        };
        Ok(TcpFrontEnd {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }
}

/// How long the accept loop backs off after an `accept` failure that is not
/// the client's doing (EMFILE, ENFILE, ENOBUFS, ENOMEM): time for closing
/// sessions to hand descriptors and buffers back.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Hand every connection `accept` yields to `serve`, until `stop` is set.
/// `accept` blocks; [`TcpFrontEnd`] sets `stop` and then wakes it with a
/// connection of its own, which is dropped unserved.
///
/// No `accept` error ends the loop, as none ends PostgreSQL's postmaster: a
/// client that hung up before it was taken (`ConnectionAborted`) or a signal
/// (`Interrupted`) is retried at once; anything else, resource exhaustion
/// above all, is logged and retried after [`ACCEPT_BACKOFF`]. Breaking out
/// would leave a front-end that looks alive and accepts nothing.
fn accept_loop<S>(
    stop: &AtomicBool,
    mut accept: impl FnMut() -> io::Result<S>,
    mut serve: impl FnMut(S),
) {
    loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(conn) => serve(conn),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                eprintln!("pgssi-server: could not accept a new connection: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// The socket as a session's response sink: every `write` it is handed is a
/// whole drain's responses, and is counted (`session_socket_writes`).
struct SocketSink {
    stream: TcpStream,
    db: ShardedDatabase,
}

impl Write for SocketSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.db.session_stats().socket_writes.bump();
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ResponseSink for SocketSink {
    fn hang_up(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Wire one accepted socket up as a pool session served by its own thread.
fn serve_connection(pool: &Arc<SessionPool>, stream: TcpStream) -> Result<()> {
    // One write carries a whole drain's responses; there is nothing for
    // Nagle to merge it with, only latency to add.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(pool.config().idle_timeout);
    let sink = SocketSink {
        stream: stream
            .try_clone()
            .map_err(|e| io_disconnected("TCP clone failed", e))?,
        db: pool.db().clone(),
    };
    let (sid, duplex) = open_session(pool, Box::new(sink))?;
    let pool = Arc::clone(pool);
    std::thread::Builder::new()
        .name(format!("pgssi-conn-{sid}"))
        .spawn(move || serve(&pool, sid, &duplex, stream))
        .map_err(|e| io_disconnected("connection thread spawn failed", e))?;
    Ok(())
}

/// Open the pool session a connection feeds; `sink` takes its responses.
/// It is opened idle: only the connection thread ever runs it.
fn open_session(
    pool: &Arc<SessionPool>,
    sink: Box<dyn ResponseSink>,
) -> Result<(SessionId, Arc<Duplex>)> {
    let duplex = Arc::new(Duplex::new());
    let task = WireTask::new(Arc::clone(&duplex), Arc::downgrade(pool), sink);
    Ok((pool.open_idle(Box::new(task))?, duplex))
}

/// The connection thread's loop: read, queue every complete line, run the
/// session's drain on this thread, repeat until `input` ends; then close the
/// session (its open transaction rolls back).
///
/// Hardened against hostile or broken clients:
///
/// * **Bounded request lines** ([`ServerConfig::max_request_line`]): a line
///   longer than the cap — complete, or still arriving with no newline in
///   sight — gets the connection closed ([`LineReader`] holds at most the
///   cap plus one read).
/// * **Idle timeout** ([`ServerConfig::idle_timeout`], set on the socket as
///   its read timeout): a connection that sends nothing for the window is
///   closed rather than pinning its thread and session slot forever.
/// * **A client that never reads** fills its socket and then blocks this
///   thread in the drain's `write` — this session only.
///
/// Every exit is the ordinary disconnect path.
///
/// [`ServerConfig::max_request_line`]: pgssi_common::ServerConfig::max_request_line
/// [`ServerConfig::idle_timeout`]: pgssi_common::ServerConfig::idle_timeout
fn serve(pool: &SessionPool, sid: SessionId, duplex: &Duplex, mut input: impl Read) {
    let stats = pool.db().session_stats();
    let mut reader = LineReader::new(pool.config().max_request_line);
    'conn: loop {
        // Hand every complete buffered line to the session in one step.
        let mut queued = 0;
        {
            let mut c = duplex.chan.lock();
            if c.closed {
                // Closed from the server side; the session is already gone.
                return;
            }
            loop {
                match reader.pop_line() {
                    Ok(Some(line)) => c.requests.push_back(line),
                    Ok(None) => break,
                    Err(_) => break 'conn,
                }
                queued += 1;
            }
        }
        if queued > 0 {
            stats.requests_enqueued.add(queued);
            pool.run_here(sid);
        }
        match reader.fill(&mut input) {
            // EOF (client hung up); SO_RCVTIMEO expiry (`WouldBlock` on
            // Linux, `TimedOut` elsewhere: idle too long); socket error.
            Ok(0) | Err(_) => break,
            Ok(_) => stats.socket_reads.bump(),
        }
    }
    // Close the inbox and run the session once more so it retires — unless
    // the server side closed it first: that session is retired already, and
    // its id may belong to another connection by now.
    let closed_here = !std::mem::replace(&mut duplex.chan.lock().closed, true);
    if closed_here {
        pool.run_here(sid);
    }
}

/// Handle on a running TCP accept loop. Dropping it (or calling
/// [`TcpFrontEnd::shutdown`]) stops accepting and closes the listening
/// socket; established connections live until their clients hang up.
pub struct TcpFrontEnd {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpFrontEnd {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the accept loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The loop is blocked in `accept`: connect once to wake it. Should
        // that fail, the thread is left to end at the next client's connect
        // rather than hang this call.
        if TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_secs(1)).is_ok() {
            let _ = thread.join();
        }
    }
}

/// Where a connect reaches a listener bound to `addr`: a wildcard bind
/// (`0.0.0.0`, `::`) is reached on the loopback address of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Drop for TcpFrontEnd {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// A client that neither reads nor stops sending must not grow without bound:
/// past this many unsent bytes `send` writes whatever the connection state.
const MAX_UNSENT: usize = 64 * 1024;

/// The protocol client over any byte stream pair (a socket's two halves; a
/// script and a counting writer in tests).
struct Client<R, W> {
    /// Request lines not yet written. See [`Transport::send`] for when they
    /// are.
    out: Mutex<LineWriter<W>>,
    /// Response bytes are buffered here and handed out a line at a time, so
    /// a nonblocking `try_recv` that catches half a response keeps the
    /// fragment for the next call.
    input: Mutex<(LineReader, R)>,
    /// Requests accepted by `send` whose responses have not been received.
    in_flight: AtomicUsize,
}

impl<R: Read, W: Write> Client<R, W> {
    fn new(input: R, out: W) -> Client<R, W> {
        Client {
            out: Mutex::new(LineWriter::new(out)),
            // Responses (a `SCAN`, say) have no length cap.
            input: Mutex::new((LineReader::new(usize::MAX), input)),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Queue `lines`; write them (and anything queued before) at once if
    /// `write_now`, if the connection is idle and the lines are not a lone
    /// `BEGIN`, or if too much is queued.
    fn send_all(&self, lines: &[&str], write_now: bool) -> Result<()> {
        let mut out = self.out.lock();
        for line in lines {
            out.push_line(line);
        }
        // With nothing in flight the server is idle on this connection and
        // the caller may be about to watch this request take effect from
        // elsewhere: write through. Behind a request in flight, the caller
        // is pipelining and will turn to read: ride along with that flush.
        // A lone `BEGIN` has no effect anyone can watch before its
        // transaction's next statement, so it is held like a pipelined line
        // and leaves with the rest of its transaction.
        let idle = self.in_flight.fetch_add(lines.len(), Ordering::SeqCst) == 0;
        let held = matches!(lines, [line] if proto::is_begin(line));
        if write_now || (idle && !held) || out.pending() > MAX_UNSENT {
            out.flush()
                .map_err(|e| io_disconnected("TCP send failed", e))?;
        }
        Ok(())
    }

    fn send(&self, line: &str) -> Result<()> {
        self.send_all(&[line], false)
    }

    fn pipeline(&self, lines: &[&str]) -> Result<Vec<String>> {
        self.send_all(lines, true)?;
        lines.iter().map(|_| self.recv()).collect()
    }

    fn flush(&self) -> Result<()> {
        self.out
            .lock()
            .flush()
            .map_err(|e| io_disconnected("TCP send failed", e))
    }

    /// Pop one buffered response line, settling the in-flight count.
    fn pop_response(&self, lines: &mut LineReader) -> Option<String> {
        // No cap on this reader, so no refusal to handle.
        let line = lines.pop_line().ok().flatten()?;
        // Saturating: a server answering unasked must not wrap the count
        // (that would switch write-through off for good).
        let _ = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        Some(line)
    }

    fn recv(&self) -> Result<String> {
        self.flush()?;
        let mut guard = self.input.lock();
        let (lines, stream) = &mut *guard;
        loop {
            if let Some(line) = self.pop_response(lines) {
                return Ok(line);
            }
            match lines.fill(stream) {
                Ok(0) => return Err(Error::Disconnected("connection closed".to_string())),
                Ok(_) => {}
                Err(e) => return Err(io_disconnected("TCP recv failed", e)),
            }
        }
    }

    /// One read attempt at most, bracketed by `set_nonblocking(stream, on)`.
    fn try_recv(
        &self,
        set_nonblocking: impl Fn(&R, bool) -> io::Result<()>,
    ) -> Result<Option<String>> {
        self.flush()?;
        let mut guard = self.input.lock();
        let (lines, stream) = &mut *guard;
        if let Some(line) = self.pop_response(lines) {
            return Ok(Some(line));
        }
        set_nonblocking(stream, true)
            .map_err(|e| io_disconnected("TCP set_nonblocking failed", e))?;
        let filled = lines.fill(stream);
        let _ = set_nonblocking(stream, false);
        match filled {
            Ok(0) => Err(Error::Disconnected("connection closed".to_string())),
            Ok(_) => Ok(self.pop_response(lines)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(io_disconnected("TCP recv failed", e)),
        }
    }
}

/// A real-socket client speaking the pgssi line protocol; the TCP counterpart
/// of [`SessionHandle`](crate::SessionHandle). Dropping it closes the socket,
/// which closes the server-side session (open transactions roll back).
pub struct TcpClient(Client<TcpStream, TcpStream>);

impl TcpClient {
    /// Connect to a [`TcpFrontEnd`] at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpClient> {
        let stream =
            TcpStream::connect(addr).map_err(|e| io_disconnected("TCP connect failed", e))?;
        // `send` decides what shares a segment; Nagle would only sit on a
        // coalesced batch waiting for the previous one's ACK.
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| io_disconnected("TCP clone failed", e))?;
        Ok(TcpClient(Client::new(stream, writer)))
    }
}

impl Transport for TcpClient {
    fn send(&self, line: &str) -> Result<()> {
        self.0.send(line)
    }

    fn recv(&self) -> Result<String> {
        self.0.recv()
    }

    fn try_recv(&self) -> Result<Option<String>> {
        self.0.try_recv(TcpStream::set_nonblocking)
    }

    /// The whole batch in one `write`, then its responses.
    fn pipeline(&self, lines: &[&str]) -> Result<Vec<String>> {
        self.0.pipeline(lines)
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        // Lines still buffered were promised to the wire by now.
        let _ = self.0.flush();
        let _ = self.0.out.lock().sink().shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::testing::Calls;
    use pgssi_common::{EngineConfig, ServerConfig};
    use pgssi_engine::{Database, TableDef};

    impl ResponseSink for Calls {}

    /// A `kv` server holding `1 → 10 … 4 → 40`.
    fn kv_server() -> Server {
        let db = Database::new(EngineConfig::default());
        db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .unwrap();
        let server = Server::new(db, ServerConfig::with_workers(1));
        let seed = server.connect().unwrap();
        let lines = [
            "BEGIN",
            "PUT kv 1 10",
            "PUT kv 2 20",
            "PUT kv 3 30",
            "PUT kv 4 40",
            "COMMIT",
        ];
        assert_eq!(seed.pipeline(&lines).unwrap(), ["OK"; 6]);
        server
    }

    /// Serve `script` as one connection's whole input; every `write` the
    /// session made on it.
    fn serve_script(server: &Server, script: &[u8]) -> Vec<String> {
        let calls = Calls::default();
        let (sid, duplex) = open_session(&server.pool, Box::new(calls.clone())).unwrap();
        serve(&server.pool, sid, &duplex, script);
        calls.taken()
    }

    #[test]
    fn a_pipelined_transaction_is_answered_in_one_write() {
        let server = kv_server();
        let writes = serve_script(
            &server,
            b"BEGIN\nGET kv 1\nGET kv 2\nGET kv 3\nGET kv 4\nCOMMIT\n",
        );
        assert_eq!(writes, ["OK\nROW 1 10\nROW 2 20\nROW 3 30\nROW 4 40\nOK\n"]);
        server.shutdown();
    }

    /// The third line fails and takes the transaction with it (first updater
    /// wins: the row's holder commits while the `PUT` waits on its lock); the
    /// rest of the batch is still answered, line for line, in the same write.
    #[test]
    fn a_failed_line_does_not_split_the_write() {
        let server = kv_server();
        let holder = server.connect().unwrap();
        assert_eq!(holder.roundtrip("BEGIN").unwrap(), "OK");
        assert_eq!(holder.roundtrip("PUT kv 2 21").unwrap(), "OK");
        let writes = std::thread::scope(|scope| {
            scope.spawn(|| {
                while server.db().stats_report().txn_wait_reports < 1 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(holder.roundtrip("COMMIT").unwrap(), "OK");
            });
            serve_script(
                &server,
                b"BEGIN REPEATABLE READ\nGET kv 1\nPUT kv 2 22\nGET kv 3\nGET kv 4\nCOMMIT\n",
            )
        });
        assert_eq!(writes.len(), 1, "one write for the batch: {writes:?}");
        let lines: Vec<&str> = writes[0].lines().collect();
        assert_eq!(lines.len(), 6, "one response per request: {lines:?}");
        assert_eq!(lines[..2], ["OK", "ROW 1 10"]);
        assert!(
            lines[2].starts_with("ERR could not serialize access"),
            "{lines:?}"
        );
        for l in &lines[3..] {
            assert!(l.starts_with("ERR no transaction open"), "{lines:?}");
        }
        drop(holder);
        server.shutdown();
    }

    /// A client over a counting writer, reading a script of `n` `OK`s.
    fn counting_client(n: usize) -> (Client<io::Cursor<Vec<u8>>, Calls>, Calls) {
        let calls = Calls::default();
        let script = io::Cursor::new(b"OK\n".repeat(n));
        (Client::new(script, calls.clone()), calls)
    }

    const TXN: [&str; 6] = [
        "BEGIN", "GET kv 1", "GET kv 2", "GET kv 3", "GET kv 4", "COMMIT",
    ];

    #[test]
    fn a_lone_begin_is_held_and_other_idle_sends_write_through() {
        let (client, calls) = counting_client(8);
        client.send(TXN[0]).unwrap();
        assert!(
            calls.taken().is_empty(),
            "a lone BEGIN waits for its transaction's next flush"
        );
        for line in &TXN[1..] {
            client.send(line).unwrap();
        }
        assert!(calls.taken().is_empty(), "held behind the BEGIN in flight");
        assert_eq!(client.recv().unwrap(), "OK");
        assert_eq!(
            calls.taken(),
            ["BEGIN\nGET kv 1\nGET kv 2\nGET kv 3\nGET kv 4\nCOMMIT\n"],
            "the first receive writes the whole transaction at once"
        );
        for _ in 1..6 {
            assert_eq!(client.recv().unwrap(), "OK");
        }
        assert!(calls.taken().is_empty());
        // Everything answered: the connection is idle again, and any other
        // verb is on the wire when `send` returns.
        client.send("PUT kv 1 1").unwrap();
        assert_eq!(calls.taken(), ["PUT kv 1 1\n"]);
        assert_eq!(client.recv().unwrap(), "OK");
        // `Transport::roundtrip`: the held BEGIN leaves with the receive.
        client.send("BEGIN").unwrap();
        assert_eq!(client.recv().unwrap(), "OK");
        assert_eq!(
            calls.taken(),
            ["BEGIN\n"],
            "a BEGIN round trip is one write"
        );
    }

    #[test]
    fn a_pipeline_is_one_write_and_roundtrips_are_one_each() {
        let (client, calls) = counting_client(12);
        assert_eq!(client.pipeline(&TXN).unwrap(), ["OK"; 6]);
        assert_eq!(calls.taken().len(), 1);
        for line in TXN {
            client.send(line).unwrap();
            assert_eq!(client.recv().unwrap(), "OK");
        }
        assert_eq!(calls.taken().len(), 6);
    }

    /// No `accept` error stops the loop; only the stop flag does, and the
    /// connection that woke it is not served.
    #[test]
    fn accept_errors_do_not_stop_the_loop() {
        const EMFILE: i32 = 24;
        let stop = AtomicBool::new(false);
        let mut script: std::collections::VecDeque<io::Result<u32>> = [
            Err(io::ErrorKind::ConnectionAborted.into()),
            Err(io::Error::from_raw_os_error(EMFILE)),
            Ok(1),
            Err(io::ErrorKind::Interrupted.into()),
            Ok(2),
        ]
        .into();
        let mut served = Vec::new();
        accept_loop(
            &stop,
            || {
                script.pop_front().unwrap_or_else(|| {
                    stop.store(true, Ordering::SeqCst);
                    Ok(99)
                })
            },
            |conn| served.push(conn),
        );
        assert_eq!(served, [1, 2]);
    }

    #[test]
    fn wake_addr_reaches_a_wildcard_bind_on_loopback() {
        let at = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(at("0.0.0.0:5433")), at("127.0.0.1:5433"));
        assert_eq!(wake_addr(at("[::]:5433")), at("[::1]:5433"));
        assert_eq!(wake_addr(at("10.1.2.3:5433")), at("10.1.2.3:5433"));
    }

    #[test]
    fn a_sender_that_never_receives_is_flushed_at_the_cap() {
        let (client, calls) = counting_client(0);
        let line = "x".repeat(1023);
        client.send(&line).unwrap(); // idle: written through
        for _ in 0..64 {
            client.send(&line).unwrap();
        }
        assert!(
            calls.taken().len() == 1,
            "64 KiB queued, not yet over the cap"
        );
        client.send(&line).unwrap();
        let flushed = calls.taken();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len(), 65 * 1024);
    }
}
