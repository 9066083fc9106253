//! # pgssi-server
//!
//! A sessioned connection front-end for the pgssi engine. PostgreSQL's
//! backend-per-connection model is what lets the paper's evaluation (§8.2)
//! run hundreds of mostly-idle DBT-2 terminals; the embedded [`Database`]
//! handle had no equivalent, so "many clients" previously meant "many OS
//! threads". This crate supplies the missing layer:
//!
//! * [`SessionPool`] — the scheduling core: a fixed set of worker threads
//!   executing activations of many logical [`SessionTask`]s, with a ready
//!   queue, a think-time deadline heap, and lost-wakeup-free external wakes.
//!   Benchmark harnesses drive it directly (DBT-2++ think-time sessions).
//! * [`Server`] / [`SessionHandle`] — the wire layer: logical client
//!   sessions speaking a tiny line protocol (`BEGIN`/`GET`/`PUT`/`DEL`/
//!   `SCAN`/`COMMIT`/`ABORT`, see [`proto`]) over in-process duplex
//!   channels, so tests and load generators can drive the engine like a
//!   network client without sockets.
//! * [`Transport`] — the client-side abstraction over both connection
//!   kinds: [`SessionHandle`] (in-process) and [`TcpClient`] (real sockets
//!   against a [`Server::listen`] accept loop, see [`tcp`]) expose one
//!   `send`/`recv`/`roundtrip`/`pipeline` surface, with closed sessions
//!   surfacing uniformly as [`pgssi_common::Error::Disconnected`].
//!
//! **One runner per session.** A TCP session is run only by its connection
//! thread, which is PostgreSQL's backend per connection: it is opened idle
//! and never queued, so no pool worker ever touches it. A threadless session
//! (a [`SessionHandle`], a benchmark terminal, a sim client) is run only by
//! pool workers. A session therefore never changes hands between the two.
//!
//! Underneath, the reworked `TxnManager` makes the many-session shape cheap:
//! txids come from per-shard blocks (each session is pinned to a shard via
//! [`Database::begin_with_on_shard`]) and a snapshot is one load of the
//! commit frontier, so `begin`+`snapshot` no longer serialize on one mutex.
//!
//! [`Database`]: pgssi_engine::Database
//! [`Database::begin_with_on_shard`]: pgssi_engine::Database::begin_with_on_shard

mod lines;
pub mod pool;
pub mod proto;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use pgssi_common::ServerConfig;
pub use pool::{Next, SessionId, SessionPool, SessionTask};
pub use proto::{BeginSpec, Command};
pub use tcp::{TcpClient, TcpFrontEnd};
pub use transport::Transport;
pub use wire::{Server, SessionHandle};
