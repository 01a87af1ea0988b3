//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 LE length][u8 kind][body]`, where `length`
//! counts the kind byte plus the body. The length field is validated
//! against [`MAX_FRAME`] *before* any buffering decision, so a garbage
//! or hostile header can never provoke an unbounded allocation; an
//! unknown kind or a malformed body is a [`CodecError`], never a
//! panic.
//!
//! The frame vocabulary is deliberately small — the paper's §5 opinion
//! is that a special-purpose engine earns its keep only if the host
//! interface stays simple enough to keep it saturated:
//!
//! | client → server | server → client |
//! |---|---|
//! | `HELLO` | `HELLO_OK` |
//! | `ADD_PATTERN` | `PATTERN_ADDED` |
//! | `OPEN_SESSION` | `SESSION_OPENED` |
//! | `FEED` | `MATCH_EVENTS`\* then `FEED_OK` |
//! | `CLOSE` | `CLOSED` |
//! | `METRICS` | `METRICS_TEXT` |
//! | `BYE` | — |
//! | — | `SERVER_BUSY` (admission control / backpressure) |
//! | — | `ERROR` |
//!
//! \* zero or more, each carrying a batch of `(pattern_id, end)`
//! events whose `end` offsets are global across every chunk fed so
//! far — the chunked-feed path of `DictionaryMatcher` keeps matches
//! spanning chunk boundaries exact.
//!
//! [`Decoder`] is the incremental half (the server reads nonblocking
//! sockets, so frames arrive split at arbitrary byte boundaries, and
//! the client reads whatever one `read` brings);
//! [`read_frame`]/[`write_frame`] are the blocking half for clients
//! and tests.

use std::io::{self, Read, Write};

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on `length` (kind byte + body), bounding what a single
/// frame can make either side buffer: 1 MiB.
pub const MAX_FRAME: u32 = 1 << 20;

/// The most events one `MATCH_EVENTS` frame holds: its length is 13
/// bytes (kind, session, count) plus 12 per event (pattern, end), and
/// must not exceed [`MAX_FRAME`].
pub(crate) const MAX_EVENTS_PER_FRAME: usize = (MAX_FRAME as usize - 13) / 12;

/// One match event on the wire: pattern id and the global text offset
/// of the match's last character.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Id assigned by `PATTERN_ADDED`.
    pub pattern: u32,
    /// Offset of the match's last character, global across all chunks
    /// fed to the session.
    pub end: u64,
}

/// Why the server turned a request away. Carried in `SERVER_BUSY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The global session cap is reached; retry after backoff.
    Sessions,
    /// The global byte budget (batch-slot pool) is exhausted; retry
    /// after backoff.
    GlobalBudget,
}

impl BusyReason {
    fn code(self) -> u8 {
        match self {
            BusyReason::Sessions => 0,
            BusyReason::GlobalBudget => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, CodecError> {
        match code {
            0 => Ok(BusyReason::Sessions),
            1 => Ok(BusyReason::GlobalBudget),
            _ => Err(CodecError::BadBody("unknown busy reason")),
        }
    }
}

/// Hard protocol failures carried in `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or out-of-order frame.
    Protocol,
    /// `FEED`/`CLOSE` named a session this connection doesn't own.
    UnknownSession,
    /// `ADD_PATTERN` was rejected (bad bytes, too long, or over the
    /// per-connection pattern cap).
    BadPattern,
    /// A `FEED` chunk exceeded the per-session byte budget; no retry
    /// will ever fit, split the chunk instead.
    ChunkTooLarge,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::UnknownSession => 1,
            ErrorCode::BadPattern => 2,
            ErrorCode::ChunkTooLarge => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, CodecError> {
        match code {
            0 => Ok(ErrorCode::Protocol),
            1 => Ok(ErrorCode::UnknownSession),
            2 => Ok(ErrorCode::BadPattern),
            3 => Ok(ErrorCode::ChunkTooLarge),
            _ => Err(CodecError::BadBody("unknown error code")),
        }
    }
}

/// A decoded protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client greeting; the server answers `HelloOk`.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
    },
    /// Server greeting: the negotiated version and frame ceiling.
    HelloOk {
        /// Protocol version the server speaks.
        version: u32,
        /// The server's `MAX_FRAME`.
        max_frame: u32,
    },
    /// Declare one pattern for this connection's dictionary.
    AddPattern {
        /// Wildcard byte, if the pattern uses one.
        wild: Option<u8>,
        /// Raw pattern bytes (EIGHT_BIT alphabet).
        bytes: Vec<u8>,
    },
    /// The pattern was compiled in; events cite this id.
    PatternAdded {
        /// Dictionary id (dense, per connection, starting at 0).
        id: u32,
    },
    /// Open a streaming session over the connection's dictionary.
    OpenSession,
    /// The session was admitted.
    SessionOpened {
        /// Server-assigned session id.
        session: u64,
    },
    /// Stream the next text chunk of a session.
    Feed {
        /// Session id from `SessionOpened`.
        session: u64,
        /// Text bytes (EIGHT_BIT alphabet: any byte is valid).
        bytes: Vec<u8>,
    },
    /// A batch of match events whose windows end inside the chunk(s)
    /// just fed.
    MatchEvents {
        /// Session id.
        session: u64,
        /// The events, ordered by `(end, pattern)`.
        events: Vec<Match>,
    },
    /// The chunk was consumed; all its events have been sent.
    FeedOk {
        /// Session id.
        session: u64,
        /// Total characters consumed by the session so far.
        consumed: u64,
    },
    /// Close a session.
    Close {
        /// Session id.
        session: u64,
    },
    /// The session is gone; final accounting.
    Closed {
        /// Session id.
        session: u64,
        /// Characters the session streamed.
        chars: u64,
        /// Events the session was delivered.
        events: u64,
    },
    /// Ask for the server's metrics.
    Metrics,
    /// Prometheus text exposition (the `/metrics` page, in a frame).
    MetricsText {
        /// UTF-8 exposition bytes.
        text: Vec<u8>,
    },
    /// Admission control or backpressure: retry after the hint.
    ServerBusy {
        /// What was exhausted.
        reason: BusyReason,
        /// Milliseconds to back off before retrying, paced by the
        /// host `RetryPolicy`.
        retry_after_ms: u32,
    },
    /// Hard failure; the request will not succeed on retry.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (UTF-8, best effort).
        message: Vec<u8>,
    },
    /// Client is done; the server closes after flushing.
    Bye,
}

/// Frame kind bytes on the wire.
mod kind {
    pub const HELLO: u8 = 0x01;
    pub const ADD_PATTERN: u8 = 0x02;
    pub const OPEN_SESSION: u8 = 0x03;
    pub const FEED: u8 = 0x04;
    pub const CLOSE: u8 = 0x05;
    pub const METRICS: u8 = 0x06;
    pub const BYE: u8 = 0x07;
    pub const HELLO_OK: u8 = 0x81;
    pub const PATTERN_ADDED: u8 = 0x82;
    pub const SESSION_OPENED: u8 = 0x83;
    pub const MATCH_EVENTS: u8 = 0x84;
    pub const FEED_OK: u8 = 0x85;
    pub const CLOSED: u8 = 0x86;
    pub const METRICS_TEXT: u8 = 0x87;
    pub const SERVER_BUSY: u8 = 0x88;
    pub const ERROR: u8 = 0x89;
}

/// What can go wrong while decoding. Encoding is infallible (the
/// encoder refuses to build oversized frames by construction: pattern
/// and chunk limits sit far below [`MAX_FRAME`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The length field is zero or exceeds [`MAX_FRAME`].
    BadLength {
        /// The offending length value.
        len: u32,
    },
    /// The kind byte is not in the vocabulary.
    UnknownKind(u8),
    /// The body's layout doesn't match its kind.
    BadBody(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadLength { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME}")
            }
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::BadBody(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Strict little-endian body reader: every decode consumes exactly the
/// body, and trailing bytes are an error.
struct Body<'a> {
    buf: &'a [u8],
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Body { buf }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let (&b, rest) = self
            .buf
            .split_first()
            .ok_or(CodecError::BadBody("truncated u8"))?;
        self.buf = rest;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        if self.buf.len() < 4 {
            return Err(CodecError::BadBody("truncated u32"));
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        if self.buf.len() < 8 {
            return Err(CodecError::BadBody("truncated u64"));
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::BadBody("truncated bytes"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::BadBody("trailing bytes"))
        }
    }
}

impl Frame {
    /// The frame's wire kind byte (telemetry labels frames by it).
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => kind::HELLO,
            Frame::HelloOk { .. } => kind::HELLO_OK,
            Frame::AddPattern { .. } => kind::ADD_PATTERN,
            Frame::PatternAdded { .. } => kind::PATTERN_ADDED,
            Frame::OpenSession => kind::OPEN_SESSION,
            Frame::SessionOpened { .. } => kind::SESSION_OPENED,
            Frame::Feed { .. } => kind::FEED,
            Frame::MatchEvents { .. } => kind::MATCH_EVENTS,
            Frame::FeedOk { .. } => kind::FEED_OK,
            Frame::Close { .. } => kind::CLOSE,
            Frame::Closed { .. } => kind::CLOSED,
            Frame::Metrics => kind::METRICS,
            Frame::MetricsText { .. } => kind::METRICS_TEXT,
            Frame::ServerBusy { .. } => kind::SERVER_BUSY,
            Frame::Error { .. } => kind::ERROR,
            Frame::Bye => kind::BYE,
        }
    }

    /// Appends the encoded frame (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        put_u32(out, 0); // placeholder; patched below
        match self {
            Frame::Hello { version } => {
                out.push(kind::HELLO);
                put_u32(out, *version);
            }
            Frame::HelloOk { version, max_frame } => {
                out.push(kind::HELLO_OK);
                put_u32(out, *version);
                put_u32(out, *max_frame);
            }
            Frame::AddPattern { wild, bytes } => {
                out.push(kind::ADD_PATTERN);
                out.push(u8::from(wild.is_some()));
                out.push(wild.unwrap_or(0));
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Frame::PatternAdded { id } => {
                out.push(kind::PATTERN_ADDED);
                put_u32(out, *id);
            }
            Frame::OpenSession => out.push(kind::OPEN_SESSION),
            Frame::SessionOpened { session } => {
                out.push(kind::SESSION_OPENED);
                put_u64(out, *session);
            }
            Frame::Feed { session, bytes } => {
                out.push(kind::FEED);
                put_u64(out, *session);
                out.extend_from_slice(bytes);
            }
            Frame::MatchEvents { session, events } => {
                out.push(kind::MATCH_EVENTS);
                put_u64(out, *session);
                put_u32(out, events.len() as u32);
                for e in events {
                    put_u32(out, e.pattern);
                    put_u64(out, e.end);
                }
            }
            Frame::FeedOk { session, consumed } => {
                out.push(kind::FEED_OK);
                put_u64(out, *session);
                put_u64(out, *consumed);
            }
            Frame::Close { session } => {
                out.push(kind::CLOSE);
                put_u64(out, *session);
            }
            Frame::Closed {
                session,
                chars,
                events,
            } => {
                out.push(kind::CLOSED);
                put_u64(out, *session);
                put_u64(out, *chars);
                put_u64(out, *events);
            }
            Frame::Metrics => out.push(kind::METRICS),
            Frame::MetricsText { text } => {
                out.push(kind::METRICS_TEXT);
                out.extend_from_slice(text);
            }
            Frame::ServerBusy {
                reason,
                retry_after_ms,
            } => {
                out.push(kind::SERVER_BUSY);
                out.push(reason.code());
                put_u32(out, *retry_after_ms);
            }
            Frame::Error { code, message } => {
                out.push(kind::ERROR);
                out.push(code.code());
                out.extend_from_slice(message);
            }
            Frame::Bye => out.push(kind::BYE),
        }
        let len = (out.len() - at - 4) as u32;
        debug_assert!((1..=MAX_FRAME).contains(&len), "encoder built a bad frame");
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The encoded frame as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one frame from its kind byte plus body (no length
    /// prefix — the caller has already framed it).
    pub fn decode(payload: &[u8]) -> Result<Frame, CodecError> {
        let (&k, body) = payload
            .split_first()
            .ok_or(CodecError::BadLength { len: 0 })?;
        let mut b = Body::new(body);
        let frame = match k {
            kind::HELLO => Frame::Hello { version: b.u32()? },
            kind::HELLO_OK => Frame::HelloOk {
                version: b.u32()?,
                max_frame: b.u32()?,
            },
            kind::ADD_PATTERN => {
                let has_wild = match b.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::BadBody("wild flag not 0/1")),
                };
                let wild_byte = b.u8()?;
                let len = b.u32()? as usize;
                let bytes = b.take(len)?.to_vec();
                Frame::AddPattern {
                    wild: has_wild.then_some(wild_byte),
                    bytes,
                }
            }
            kind::PATTERN_ADDED => Frame::PatternAdded { id: b.u32()? },
            kind::OPEN_SESSION => Frame::OpenSession,
            kind::SESSION_OPENED => Frame::SessionOpened { session: b.u64()? },
            kind::FEED => Frame::Feed {
                session: b.u64()?,
                bytes: b.rest().to_vec(),
            },
            kind::MATCH_EVENTS => {
                let session = b.u64()?;
                let count = b.u32()? as usize;
                // 12 bytes per event; the count must agree with the
                // body length exactly, so a lying count can't force a
                // huge reservation.
                let mut events = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    events.push(Match {
                        pattern: b.u32()?,
                        end: b.u64()?,
                    });
                }
                Frame::MatchEvents { session, events }
            }
            kind::FEED_OK => Frame::FeedOk {
                session: b.u64()?,
                consumed: b.u64()?,
            },
            kind::CLOSE => Frame::Close { session: b.u64()? },
            kind::CLOSED => Frame::Closed {
                session: b.u64()?,
                chars: b.u64()?,
                events: b.u64()?,
            },
            kind::METRICS => Frame::Metrics,
            kind::METRICS_TEXT => Frame::MetricsText {
                text: b.rest().to_vec(),
            },
            kind::SERVER_BUSY => Frame::ServerBusy {
                reason: BusyReason::from_code(b.u8()?)?,
                retry_after_ms: b.u32()?,
            },
            kind::ERROR => Frame::Error {
                code: ErrorCode::from_code(b.u8()?)?,
                message: b.rest().to_vec(),
            },
            kind::BYE => Frame::Bye,
            other => return Err(CodecError::UnknownKind(other)),
        };
        b.finish()?;
        Ok(frame)
    }
}

/// Incremental frame decoder for nonblocking reads: push bytes as they
/// arrive, pop complete frames. Split points are arbitrary — a frame
/// may arrive one byte at a time or many frames in one read.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// lazily so steady streaming doesn't memmove per frame.
    read: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing, once the dead prefix dominates.
        if self.read > 0 && self.read >= self.buf.len() / 2 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed. After an `Err` the stream is poisoned — the connection
    /// should be dropped (framing has been lost).
    ///
    /// Deliberately named like `Iterator::next` (it is the pull side
    /// of the decoder) but kept inherent: the fallible
    /// `Result<Option<_>, _>` shape doesn't fit the trait.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, CodecError> {
        let avail = &self.buf[self.read..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME {
            // Checked before waiting for (or buffering) a body, so a
            // hostile header can't demand a giant allocation.
            return Err(CodecError::BadLength { len });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode(&avail[4..total])?;
        self.read += total;
        Ok(Some(frame))
    }
}

/// Blocking read of one frame (for clients and tests).
///
/// # Errors
///
/// I/O errors pass through; codec violations surface as
/// `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head);
    if len == 0 || len > MAX_FRAME {
        return Err(CodecError::BadLength { len }.into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame::decode(&payload)?)
}

/// Blocking write of one frame.
///
/// # Errors
///
/// I/O errors pass through.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { version: 1 },
            Frame::HelloOk {
                version: 1,
                max_frame: MAX_FRAME,
            },
            Frame::AddPattern {
                wild: Some(b'?'),
                bytes: b"needle".to_vec(),
            },
            Frame::AddPattern {
                wild: None,
                bytes: vec![],
            },
            Frame::PatternAdded { id: 7 },
            Frame::OpenSession,
            Frame::SessionOpened { session: 99 },
            Frame::Feed {
                session: 99,
                bytes: b"haystack with a needle in it".to_vec(),
            },
            Frame::MatchEvents {
                session: 99,
                events: vec![
                    Match {
                        pattern: 7,
                        end: 21,
                    },
                    Match {
                        pattern: 0,
                        end: u64::MAX,
                    },
                ],
            },
            Frame::FeedOk {
                session: 99,
                consumed: 28,
            },
            Frame::Close { session: 99 },
            Frame::Closed {
                session: 99,
                chars: 28,
                events: 2,
            },
            Frame::Metrics,
            Frame::MetricsText {
                text: b"# HELP pm_chars_total ...\n".to_vec(),
            },
            Frame::ServerBusy {
                reason: BusyReason::GlobalBudget,
                retry_after_ms: 12,
            },
            Frame::Error {
                code: ErrorCode::ChunkTooLarge,
                message: b"split the chunk".to_vec(),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in frames() {
            let bytes = f.to_bytes();
            let mut d = Decoder::new();
            d.push(&bytes);
            assert_eq!(d.next().unwrap(), Some(f.clone()), "{f:?}");
            assert_eq!(d.next().unwrap(), None);
            assert_eq!(d.pending(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_and_all_at_once_agree() {
        let mut wire = Vec::new();
        for f in frames() {
            f.encode(&mut wire);
        }
        let mut d = Decoder::new();
        let mut one_by_one = Vec::new();
        for &b in &wire {
            d.push(&[b]);
            while let Some(f) = d.next().unwrap() {
                one_by_one.push(f);
            }
        }
        assert_eq!(one_by_one, frames());
    }

    #[test]
    fn blocking_io_round_trips() {
        let mut wire = Vec::new();
        for f in frames() {
            write_frame(&mut wire, &f).unwrap();
        }
        let mut cursor = io::Cursor::new(wire);
        for f in frames() {
            assert_eq!(read_frame(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut d = Decoder::new();
        d.push(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(d.next(), Err(CodecError::BadLength { len: MAX_FRAME + 1 }));
        let mut d = Decoder::new();
        d.push(&0u32.to_le_bytes());
        assert_eq!(d.next(), Err(CodecError::BadLength { len: 0 }));
    }

    #[test]
    fn unknown_kind_and_bad_bodies_error() {
        assert_eq!(Frame::decode(&[0x55]), Err(CodecError::UnknownKind(0x55)));
        // HELLO with a short body.
        assert!(matches!(
            Frame::decode(&[kind::HELLO, 1, 2]),
            Err(CodecError::BadBody(_))
        ));
        // Trailing garbage after a complete body.
        assert!(matches!(
            Frame::decode(&[kind::OPEN_SESSION, 0xFF]),
            Err(CodecError::BadBody("trailing bytes"))
        ));
        // MATCH_EVENTS whose count outruns its body.
        let mut payload = vec![kind::MATCH_EVENTS];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(CodecError::BadBody(_))
        ));
    }

    #[test]
    fn decoder_compacts_its_buffer() {
        let mut d = Decoder::new();
        let bytes = Frame::OpenSession.to_bytes();
        for _ in 0..1000 {
            d.push(&bytes);
            assert!(d.next().unwrap().is_some());
        }
        assert!(d.buf.len() < 64, "dead prefix never reclaimed");
    }

    #[test]
    fn errors_display_and_convert() {
        let e = CodecError::BadLength { len: 0 };
        assert!(e.to_string().contains("length 0"));
        let io_err: io::Error = CodecError::UnknownKind(9).into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
