//! Client-side transport abstraction: one request/response line-stream
//! interface whether the session lives on an in-process duplex channel
//! ([`crate::SessionHandle`]) or a real TCP socket ([`crate::TcpClient`]).
//!
//! Every method returns `Result` so closed-server and closed-socket paths
//! surface uniformly as [`pgssi_common::Error::Disconnected`] instead of an
//! `Option`/panic mix per backend.

use pgssi_common::Result;

/// A client connection to a pgssi server session: send request lines, receive
/// response lines, one response per request, in order.
pub trait Transport: Send + Sync {
    /// Enqueue one request line without waiting for its response.
    ///
    /// When the line reaches the server: it is on the wire (or in the
    /// session's inbox) when `send` returns if no earlier request on this
    /// handle still awaits its response — so "send, then watch the effect
    /// from another session" works — and otherwise no later than the next
    /// receive call (`recv`, `try_recv`, `roundtrip`, `pipeline`) or the
    /// drop of this handle.
    ///
    /// One exception: a `BEGIN` ([`proto::is_begin`](crate::proto::is_begin))
    /// may be held even on an idle handle, because nothing another session
    /// can watch happens before its transaction's next statement. It counts
    /// as awaiting its response, so the lines sent after it are held too,
    /// and all of them leave together at the next receive call (or drop).
    /// Until then `ACTIVITY` shows the session idle, with no transaction.
    ///
    /// A [`TcpClient`](crate::TcpClient) uses the latitude to put a whole
    /// transaction sent line by line into one `write`; a
    /// [`SessionHandle`](crate::SessionHandle) delivers every line at once.
    fn send(&self, line: &str) -> Result<()>;

    /// Blocking receive of the next response line.
    ///
    /// Fails with [`pgssi_common::Error::Disconnected`] once the session is
    /// closed and no buffered responses remain.
    fn recv(&self) -> Result<String>;

    /// Non-blocking receive: `Ok(None)` when no response has arrived yet.
    fn try_recv(&self) -> Result<Option<String>>;

    /// Send one request and wait for its response.
    fn roundtrip(&self, line: &str) -> Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Send a batch (e.g. a whole transaction) and collect every response.
    /// Both implementations override this to hand the batch over in one step
    /// (one inbox append; one socket `write`) so one server activation
    /// executes it back-to-back.
    fn pipeline(&self, lines: &[&str]) -> Result<Vec<String>> {
        for line in lines {
            self.send(line)?;
        }
        lines.iter().map(|_| self.recv()).collect()
    }
}
