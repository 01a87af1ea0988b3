//! A blocking client for the match service.
//!
//! [`MatchClient`] writes requests to a `TcpStream` with
//! [`write_frame`], reads replies through one [`Decoder`] (a single
//! `read` can bring a whole reply, several frames long), and exposes
//! one method per request frame. `SERVER_BUSY` answers surface as
//! [`ClientError::Busy`] carrying the server's retry hint;
//! [`MatchClient::feed_with_retry`] and
//! [`MatchClient::open_session_with_retry`] honour the hint by
//! sleeping and retrying, which is the whole backpressure contract
//! from the client's side. Used by the e2e tests, the loadtest figure
//! and `examples/serve_client.rs`.

use crate::protocol::{
    write_frame, BusyReason, Decoder, ErrorCode, Frame, Match, PROTOCOL_VERSION,
};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a request can come back as.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or codec failure.
    Io(io::Error),
    /// The server said `SERVER_BUSY`: retriable after the hint.
    Busy {
        /// What was exhausted.
        reason: BusyReason,
        /// The server's backoff hint, in milliseconds.
        retry_after_ms: u32,
    },
    /// The server answered `ERROR`: not retriable.
    Server {
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a frame the request doesn't expect.
    Unexpected(Frame),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Busy {
                reason,
                retry_after_ms,
            } => write!(
                f,
                "server busy ({reason:?}), retry after {retry_after_ms} ms"
            ),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(frame) => write!(f, "unexpected frame {frame:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias for client results.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connected, greeted client.
#[derive(Debug)]
pub struct MatchClient {
    stream: TcpStream,
    /// Reply bytes read but not yet taken as frames.
    decoder: Decoder,
    /// The buffer every `read` of the socket fills.
    buf: Vec<u8>,
    /// The server's advertised frame ceiling, from `HELLO_OK`.
    max_frame: u32,
}

/// Bytes one `read` of the socket may bring.
const READ_BUF: usize = 64 << 10;

impl MatchClient {
    /// Connects and performs the `HELLO`/`HELLO_OK` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = MatchClient {
            stream,
            decoder: Decoder::new(),
            buf: vec![0; READ_BUF],
            max_frame: crate::protocol::MAX_FRAME,
        };
        match client.request(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Frame::HelloOk { max_frame, .. } => {
                client.max_frame = max_frame;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The server's `MAX_FRAME`, learned during the handshake.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.stream, frame)?;
        Ok(())
    }

    /// The next reply frame: from the bytes already read if they hold
    /// one, else from as many reads as it takes.
    fn read_frame(&mut self) -> io::Result<Frame> {
        loop {
            if let Some(frame) = self.decoder.next()? {
                return Ok(frame);
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.decoder.push(&self.buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn recv(&mut self) -> Result<Frame> {
        match self.read_frame()? {
            Frame::ServerBusy {
                reason,
                retry_after_ms,
            } => Err(ClientError::Busy {
                reason,
                retry_after_ms,
            }),
            Frame::Error { code, message } => Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&message).into_owned(),
            }),
            frame => Ok(frame),
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// Declares one pattern; returns the id match events will cite.
    pub fn add_pattern(&mut self, bytes: &[u8], wild: Option<u8>) -> Result<u32> {
        match self.request(&Frame::AddPattern {
            wild,
            bytes: bytes.to_vec(),
        })? {
            Frame::PatternAdded { id } => Ok(id),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Opens a streaming session; fails with [`ClientError::Busy`]
    /// when admission control turns it away.
    pub fn open_session(&mut self) -> Result<u64> {
        match self.request(&Frame::OpenSession)? {
            Frame::SessionOpened { session } => Ok(session),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// [`open_session`](Self::open_session), sleeping out up to
    /// `max_retries` `SERVER_BUSY` answers using the server's hints.
    pub fn open_session_with_retry(&mut self, max_retries: u32) -> Result<u64> {
        retry_busy(max_retries, || self.open_session())
    }

    /// Feeds one chunk; returns the match events whose windows end in
    /// it (global offsets) and the session's running consumed count.
    ///
    /// A `SERVER_BUSY` answer (global budget exhausted) surfaces as
    /// [`ClientError::Busy`] and the chunk was *not* consumed — resend
    /// the same chunk after the hint.
    pub fn feed(&mut self, session: u64, bytes: &[u8]) -> Result<(Vec<Match>, u64)> {
        self.send(&Frame::Feed {
            session,
            bytes: bytes.to_vec(),
        })?;
        let mut events = Vec::new();
        loop {
            match self.recv()? {
                Frame::MatchEvents {
                    session: s,
                    events: batch,
                } if s == session => events.extend(batch),
                Frame::FeedOk {
                    session: s,
                    consumed,
                } if s == session => return Ok((events, consumed)),
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    /// [`feed`](Self::feed), resending the chunk through up to
    /// `max_retries` backpressure rounds, pacing each wait by the
    /// server's `retry_after_ms` hint.
    pub fn feed_with_retry(
        &mut self,
        session: u64,
        bytes: &[u8],
        max_retries: u32,
    ) -> Result<(Vec<Match>, u64)> {
        retry_busy(max_retries, || self.feed(session, bytes))
    }

    /// Closes a session; returns `(chars streamed, events delivered)`.
    pub fn close_session(&mut self, session: u64) -> Result<(u64, u64)> {
        match self.request(&Frame::Close { session })? {
            Frame::Closed { chars, events, .. } => Ok((chars, events)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetches the server's Prometheus exposition.
    pub fn metrics(&mut self) -> Result<String> {
        match self.request(&Frame::Metrics)? {
            Frame::MetricsText { text } => Ok(String::from_utf8_lossy(&text).into_owned()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Says `BYE`; the server closes the connection after flushing.
    pub fn bye(&mut self) -> Result<()> {
        self.send(&Frame::Bye)
    }
}

/// Runs `op`, sleeping out up to `max_retries` busy answers using the
/// server's hints. Any other error passes through immediately.
fn retry_busy<T>(max_retries: u32, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(ClientError::Busy {
                reason,
                retry_after_ms,
            }) if attempt < max_retries => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
                let _ = reason;
            }
            other => return other,
        }
    }
}
