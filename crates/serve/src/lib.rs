//! # pm-serve — the streaming match service
//!
//! The paper's closing opinion (§5) is that a special-purpose engine
//! is only as useful as the system interface that feeds it. This crate
//! is that interface for the pattern-matching farm: a `std`-only,
//! thread-per-core TCP front door that multiplexes thousands of client
//! *sessions* — independent streamed texts — into the superplane
//! dictionary engine, with explicit admission control and
//! backpressure.
//!
//! ## Shape
//!
//! - [`protocol`] — the length-prefixed binary frame vocabulary
//!   (`HELLO` … `BYE`), an incremental [`Decoder`](protocol::Decoder)
//!   for nonblocking sockets, and blocking helpers for clients.
//! - [`session`] — the socket-free state machine: connections own
//!   compiled pattern dictionaries, sessions clone per-stream matchers
//!   from them, and every `FEED` chunk leases batch-slot bytes from a
//!   global [`SlotPool`](pm_chip::shard::SlotPool).
//! - [`server`] — acceptor plus worker threads, each parked in one
//!   `poll(2)` readiness wait; [`MatchServer`] is the handle.
//! - [`client`] — a blocking [`MatchClient`] honouring `SERVER_BUSY`
//!   retry hints.
//! - [`config`] — [`ServeConfig`]: caps, budgets and the
//!   `RetryPolicy`-paced backoff hints.
//!
//! ## Admission control and backpressure
//!
//! Three bounds keep the host side finite, in the order a request
//! meets them: the global *session cap* (`OPEN_SESSION` beyond it →
//! `SERVER_BUSY`), the per-session *chunk budget* (an oversized `FEED`
//! is a hard `ERROR` — no retry can fit), and the global *byte budget*
//! (`FEED` bytes lease batch-slot capacity; exhaustion → `SERVER_BUSY`
//! with an escalating, `RetryPolicy`-paced hint). Sessions use the
//! chunked `feed` path of
//! [`DictionaryMatcher`](pm_chip::dictionary::DictionaryMatcher), so
//! matches spanning chunk boundaries are exact and event offsets are
//! global across the whole stream.
//!
//! ## Quickstart
//!
//! ```
//! use pm_serve::prelude::*;
//!
//! let server = MatchServer::start(ServeConfig::default())?;
//! let mut client = MatchClient::connect(server.local_addr())?;
//! let id = client.add_pattern(b"needle", None)?;
//! let session = client.open_session()?;
//! let (events, _consumed) = client.feed(session, b"hay needle hay")?;
//! assert_eq!(events, vec![Match { pattern: id, end: 9 }]);
//! client.close_session(session)?;
//! client.bye()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Deny rather than forbid: the one sanctioned exception is
// `server::readiness`, the foreign `poll(2)` call the acceptor and the
// workers park in. Its `#[allow]` is scoped to that function, and its
// `// SAFETY:` comment is machine-checked (clippy's
// `undocumented_unsafe_blocks`). Every other line of the crate,
// protocol parsing included, is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{ClientError, MatchClient};
pub use config::ServeConfig;
pub use server::MatchServer;

/// Everything a server or client embedding needs.
pub mod prelude {
    pub use crate::client::{ClientError, MatchClient};
    pub use crate::config::ServeConfig;
    pub use crate::protocol::{BusyReason, ErrorCode, Frame, Match};
    pub use crate::server::MatchServer;
    pub use crate::session::{Conn, Shared};
}
