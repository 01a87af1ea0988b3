//! The TCP front door: acceptor plus thread-per-core workers.
//!
//! `std::net` only (the workspace is offline). The listener and every
//! accepted socket run nonblocking, and every thread parks in one
//! readiness wait — `poll(2)` over its sockets plus a *wake fd* — so it
//! runs exactly when a byte can move, a socket is handed over, an idle
//! deadline falls due or shutdown is signalled: like the array's cells,
//! it acts on the beat its data arrives, never on a timer. Each
//! wake-up of a worker is one read → decode → handle → flush pass over
//! the connections it owns — the same discipline as the scheduler's
//! work loop, applied to sockets. Thousands of sessions ride on far
//! fewer connections (the protocol multiplexes sessions within a
//! connection), so a handful of workers saturates the matcher long
//! before the poll set is the bottleneck; the paper's §5 argument,
//! host-side.
//!
//! A wake fd is the read end of a `UnixStream::pair()`. The acceptor
//! writes one byte to a worker's after sending it a socket, and
//! [`MatchServer::shutdown`] writes to every one after setting `stop`.
//! Each thread drains its wake fd *before* it checks its channel and
//! `stop`, so a wake-up posted after the drain stays unread and ends
//! the next wait at once: none is lost. A worker drains only when
//! `poll` flagged the fd, and once before its first wait. That loses
//! none either: an unflagged fd held no byte when `poll` looked, so a
//! wake-up posted since is still unread and ends the next wait. A
//! worker waits for `POLLOUT` on every connection with unsent replies,
//! and for `POLLIN` on every connection with at most half of
//! [`OUTBOX_MARK`] unsent; its timeout is the nearest idle-watchdog
//! deadline, or infinite with the watchdog off. Past half the mark a
//! connection decodes and reads nothing, so a client that does not
//! read its replies is stalled by TCP flow control instead of growing
//! the server's memory. A connection's turn flushes before it decodes
//! again, so the turn `POLLOUT` starts also decodes the frames it had
//! buffered. Each turn therefore ends in one of two states, and
//! neither loses a wake-up: past half the mark, waiting on `POLLOUT`;
//! or with no complete frame buffered and its socket read short,
//! waiting on `POLLIN` — `poll` is level-triggered, so bytes that
//! arrive later end the next wait.
//! `poll` is declared through `extern "C"` (std already links libc on
//! Linux), and calling it in `readiness` is the crate's only `unsafe`.
//!
//! Lifecycle: [`MatchServer::start`] binds and spawns, `local_addr`
//! tells tests the ephemeral port, [`MatchServer::shutdown`] stops the
//! loops and joins every thread. The stall watchdog reaps connections
//! that neither send a byte nor take one for `idle_timeout_ms`,
//! returning their sessions to the admission cap.

use crate::config::ServeConfig;
use crate::protocol::{Decoder, ErrorCode, Frame, MAX_FRAME};
use crate::session::{Conn, Shared};
use pm_chip::telemetry::MetricsRegistry;
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read buffer per poll per connection.
const READ_BUF: usize = 64 << 10;

/// A wire's outbox high-water mark, in unsent reply bytes. A wire
/// decodes its next request only while at most half the mark is
/// unsent, and past that it stops asking `poll` for `POLLIN`, so TCP
/// flow control stalls a sender that does not read its replies. The
/// other half is room for the replies to the request decoded last, so
/// the backlog stays within the mark whenever one request's replies
/// fit in `MAX_FRAME`.
pub const OUTBOX_MARK: usize = 2 * MAX_FRAME as usize;

/// How long the acceptor waits (on its wake fd alone) after an
/// `accept` error other than `WouldBlock`, such as `EMFILE`: the
/// listener stays readable, so waiting on it would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// A running front door. Dropping it without
/// [`shutdown`](Self::shutdown) closes the wake fds, so the threads
/// still stop, but nobody joins them (tests should shut down
/// explicitly).
#[derive(Debug)]
pub struct MatchServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    /// Write ends of the acceptor's and every worker's wake fd.
    wakers: Vec<UnixStream>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// One socket mid-conversation, owned by a worker.
struct Wire {
    stream: TcpStream,
    decoder: Decoder,
    /// Encoded responses; `outbox[sent..]` is not yet accepted by the
    /// socket.
    outbox: Vec<u8>,
    /// Read cursor into `outbox`: bytes the socket has taken.
    sent: usize,
    /// The most reply bytes this wire has held unsent, exported as the
    /// `pm_outbox_high_water_bytes` gauge each time it rises.
    peak: usize,
    conn: Conn,
    last_activity: Instant,
    /// Set on hangup, codec poison or `BYE`; the worker drops the
    /// wire once the outbox drains (or immediately if unwritable).
    closing: bool,
}

impl MatchServer {
    /// Binds `config.addr` and spawns the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Any socket error from binding or from creating the wake fds.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers_n = config.effective_workers();
        let shared = Shared::new(config);
        let stop = Arc::new(AtomicBool::new(false));

        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(workers_n);
        let mut wakers = Vec::with_capacity(workers_n + 1);
        let mut worker_wakers = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for w in 0..workers_n {
            let (tx, rx) = channel::<TcpStream>();
            let (waker, wake) = wake_pair()?;
            senders.push(tx);
            worker_wakers.push(waker.try_clone()?);
            wakers.push(waker);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pm-serve-worker-{w}"))
                    .spawn(move || worker_loop(rx, wake, shared, stop))
                    .expect("spawn worker"),
            );
        }

        let (waker, wake) = wake_pair()?;
        wakers.push(waker);
        let stop_acceptor = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("pm-serve-acceptor".into())
            .spawn(move || accept_loop(listener, wake, senders, worker_wakers, stop_acceptor))
            .expect("spawn acceptor");

        Ok(MatchServer {
            addr,
            shared,
            stop,
            wakers,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (what METRICS frames snapshot).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.shared.registry.clone()
    }

    /// Sessions currently open across all connections.
    pub fn open_sessions(&self) -> usize {
        self.shared.open_sessions.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains the workers and joins every thread.
    pub fn shutdown(mut self) {
        // Release pairs with the Acquire load each thread makes after
        // draining the wake-up posted below.
        self.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            post_wake(waker);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A fresh wake fd: `(write end, read end)`, both nonblocking.
fn wake_pair() -> io::Result<(UnixStream, UnixStream)> {
    let (waker, wake) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    wake.set_nonblocking(true)?;
    Ok((waker, wake))
}

/// Posts one wake-up. `WouldBlock` means the buffer already holds
/// unread wake-ups, and any other error means the reader is gone, so
/// the result carries nothing to act on.
fn post_wake(mut waker: &UnixStream) {
    let _ = waker.write(&[1]);
}

/// Consumes every pending wake-up. Returns `false` once all write ends
/// are closed — the [`MatchServer`] was dropped without a shutdown —
/// which the thread takes as its signal to stop.
fn drain_wakes(mut wake: &UnixStream) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true, // WouldBlock: drained
        }
    }
}

/// The acceptor: deal accepted sockets round-robin to the workers,
/// waking the receiving one, then wait on the listener and the wake fd.
fn accept_loop(
    listener: TcpListener,
    wake: UnixStream,
    senders: Vec<Sender<TcpStream>>,
    worker_wakers: Vec<UnixStream>,
    stop: Arc<AtomicBool>,
) {
    let mut fds = [PollFd::new(&wake, POLLIN), PollFd::new(&listener, POLLIN)];
    let mut next = 0usize;
    while drain_wakes(&wake) && !stop.load(Ordering::Acquire) {
        let mut watched = fds.len();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let w = next % senders.len();
                    next = next.wrapping_add(1);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if senders[w].send(stream).is_err() {
                        return; // workers gone: shutting down
                    }
                    post_wake(&worker_wakers[w]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    watched = 1; // the wake fd alone, for ACCEPT_RETRY
                    break;
                }
            }
        }
        readiness(&mut fds[..watched], (watched == 1).then_some(ACCEPT_RETRY));
    }
}

/// One worker: adopt incoming sockets, then multiplex reads, protocol
/// handling and writes across every connection it owns, parking in
/// [`readiness`] between passes.
fn worker_loop(
    rx: Receiver<TcpStream>,
    wake: UnixStream,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) {
    let idle_timeout = match shared.config.idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut wires: Vec<Wire> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; READ_BUF];
    // Drain before `try_recv` and `stop`, and only when `poll` flagged
    // the wake fd (or before the first wait): see the module docs.
    let mut woken = true;
    loop {
        if woken && !drain_wakes(&wake) {
            return;
        }
        // Adopt new connections.
        loop {
            match rx.try_recv() {
                Ok(stream) => wires.push(Wire {
                    stream,
                    decoder: Decoder::new(),
                    outbox: Vec::new(),
                    sent: 0,
                    peak: 0,
                    conn: Conn::new(Arc::clone(&shared)),
                    last_activity: Instant::now(),
                    closing: false,
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if wires.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }
        if stop.load(Ordering::Acquire) {
            return; // drop wires: Conn::drop releases their sessions
        }

        let now = Instant::now();
        let mut deadline: Option<Instant> = None;
        for wire in &mut wires {
            wire.poll(&mut buf, &shared.sink);
            if let (Some(timeout), false) = (idle_timeout, wire.closing) {
                let due = wire.last_activity + timeout;
                if due <= now {
                    // Stall watchdog: the peer has gone quiet.
                    wire.closing = true;
                } else {
                    deadline = Some(deadline.map_or(due, |d| d.min(due)));
                }
            }
        }
        wires.retain(|w| !(w.closing && w.unsent().is_empty()));

        fds.clear();
        fds.push(PollFd::new(&wake, POLLIN));
        fds.extend(wires.iter().map(|w| {
            let events = if w.backlogged() {
                POLLOUT
            } else if w.unsent().is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            PollFd::new(&w.stream, events)
        }));
        readiness(
            &mut fds,
            deadline.map(|d| d.saturating_duration_since(Instant::now())),
        );
        woken = fds[0].revents != 0;
    }
}

/// `POLLIN` from `<poll.h>`: data (or a hangup) to read.
const POLLIN: c_short = 0x001;
/// `POLLOUT` from `<poll.h>`: room to write.
const POLLOUT: c_short = 0x004;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// Blocks until some entry of `fds` is ready for its `events` (or has
/// hung up or failed), or until `timeout` — rounded up to whole
/// milliseconds, `None` for ever — has passed. A failed call (`EINTR`)
/// returns early too: every caller re-checks all its sources after a
/// wake-up, so a spurious one costs a single pass.
#[allow(unsafe_code)]
fn readiness(fds: &mut [PollFd], timeout: Option<Duration>) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `PollFd` is `#[repr(C)]` with the fields of `struct
    // pollfd` in order and at their C types, and the pointer and length
    // come from a live, exclusively borrowed slice, so `poll` reads and
    // writes (only `revents`) inside it and keeps no pointer after it
    // returns. A closed or invalid fd is reported in `revents`, not UB.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
}

impl Wire {
    /// Encoded responses the socket has not taken yet.
    fn unsent(&self) -> &[u8] {
        &self.outbox[self.sent..]
    }

    /// Drops every encoded response, sent or not: the peer is gone.
    fn discard_outbox(&mut self) {
        self.outbox.clear();
        self.sent = 0;
    }

    /// Whether more than half the outbox mark is unsent: the wire then
    /// decodes nothing and waits for `POLLOUT` alone.
    fn backlogged(&self) -> bool {
        self.unsent().len() > OUTBOX_MARK / 2
    }

    /// One multiplexer turn: handle every complete frame, reading the
    /// socket whenever the decoder runs dry, until the socket is drained
    /// or the wire is backlogged; then flush what the socket will take.
    /// A backlogged wire flushes before it decodes again, so the turn
    /// that `POLLOUT` starts also decodes the frames it had buffered.
    fn poll(&mut self, buf: &mut [u8], sink: &SinkHandle) {
        let mut drained = false;
        let mut responses = Vec::new();
        loop {
            if self.backlogged() {
                self.flush();
                if self.backlogged() {
                    break;
                }
            }
            match self.decoder.next() {
                Ok(Some(frame)) => {
                    self.conn.handle(frame, &mut responses);
                    for r in responses.drain(..) {
                        r.encode(&mut self.outbox);
                    }
                    if self.unsent().len() > self.peak {
                        self.peak = self.unsent().len();
                        sink.record(TraceEvent::OutboxBacklog {
                            bytes: self.peak as u64,
                        });
                    }
                    if self.conn.finished() {
                        self.closing = true;
                        break;
                    }
                }
                Ok(None) if drained => break,
                Ok(None) => drained = self.read(buf),
                Err(e) => {
                    // Framing is lost: answer once, then hang up.
                    Frame::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string().into_bytes(),
                    }
                    .encode(&mut self.outbox);
                    self.closing = true;
                    break;
                }
            }
        }
        self.flush();
    }

    /// Reads once into the decoder. Returns whether the socket is
    /// drained for now: the read came back short (level-triggered
    /// `poll` reports anything that arrives later), or the peer hung up
    /// or failed.
    fn read(&mut self, buf: &mut [u8]) -> bool {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.closing = true;
                    self.discard_outbox(); // peer is gone; nothing to flush
                    return true;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.decoder.push(&buf[..n]);
                    return n < buf.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closing = true;
                    self.discard_outbox();
                    return true;
                }
            }
        }
    }

    /// Writes as much of the outbox as the socket will take.
    fn flush(&mut self) {
        while !self.unsent().is_empty() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => {
                    self.closing = true;
                    self.discard_outbox();
                    break;
                }
                Ok(n) => {
                    // A peer that takes replies is alive, even while a
                    // backlog keeps this wire from reading its requests.
                    self.last_activity = Instant::now();
                    self.sent += n;
                    // Drop the sent prefix once it is half the buffer
                    // (all of it when the cursor catches up): each byte
                    // moves at most once on average, and the outbox
                    // never holds more than twice its unsent bytes.
                    if 2 * self.sent >= self.outbox.len() {
                        self.outbox.drain(..self.sent);
                        self.sent = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closing = true;
                    self.discard_outbox();
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MatchClient;
    use crate::protocol::Match;

    #[test]
    fn server_round_trips_one_session() {
        let server = MatchServer::start(ServeConfig::default()).unwrap();
        let mut client = MatchClient::connect(server.local_addr()).unwrap();
        let id = client.add_pattern(b"abc", None).unwrap();
        assert_eq!(id, 0);
        let session = client.open_session().unwrap();
        let (events, consumed) = client.feed(session, b"xxabcxx").unwrap();
        assert_eq!(consumed, 7);
        assert_eq!(events, vec![Match { pattern: 0, end: 4 }]);
        let (chars, delivered) = client.close_session(session).unwrap();
        assert_eq!((chars, delivered), (7, 1));
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("pm_sessions_closed_total 1"), "{metrics}");
        client.bye().unwrap();
        server.shutdown();
    }

    #[test]
    fn garbage_header_gets_an_error_then_hangup() {
        let server = MatchServer::start(ServeConfig::default()).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let frame = crate::protocol::read_frame(&mut raw).unwrap();
        assert!(matches!(
            frame,
            Frame::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
        // The server hangs up after poisoned framing.
        let mut rest = Vec::new();
        let _ = raw.read_to_end(&mut rest);
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn watchdog_reaps_idle_connections() {
        let server = MatchServer::start(ServeConfig {
            idle_timeout_ms: 50,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = MatchClient::connect(server.local_addr()).unwrap();
        let _session = client.open_session().unwrap();
        assert_eq!(server.open_sessions(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.open_sessions(), 0, "idle session never reaped");
        server.shutdown();
    }

    #[test]
    fn shutdown_wakes_parked_workers() {
        let server = MatchServer::start(ServeConfig {
            idle_timeout_ms: 0, // no watchdog deadline: workers wait forever
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = MatchClient::connect(server.local_addr()).unwrap();
        // One round trip proves a worker adopted the socket; it is
        // parked on it now.
        let _session = client.open_session().unwrap();
        let (done_tx, done_rx) = channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            done_tx.send(()).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
            "shutdown left a thread parked"
        );
        stopper.join().unwrap();
    }

    #[test]
    fn backlogged_outbox_drains_on_pollout() {
        use crate::protocol::{read_frame, write_frame, PROTOCOL_VERSION};
        const FEEDS: usize = 96;
        const CHUNK: usize = 16 << 10;
        // About 9 response bytes per text byte: far more than the
        // socket buffers hold while the client is not reading, so the
        // worker's outbox backs up and only POLLOUT can drain it.
        let patterns: [&[u8]; 2] = [b"a", b"ab"];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let text: Vec<u8> = (0..FEEDS * CHUNK)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 1 == 0 {
                    b'a'
                } else {
                    b'b'
                }
            })
            .collect();
        let mut oracle = Vec::new();
        for end in 0..text.len() {
            for (id, p) in patterns.iter().enumerate() {
                if end + 1 >= p.len() && text[end + 1 - p.len()..=end] == **p {
                    oracle.push(Match {
                        pattern: id as u32,
                        end: end as u64,
                    });
                }
            }
        }

        let server = MatchServer::start(ServeConfig::default()).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // A lost POLLOUT wake-up would stall the drain: fail, not hang.
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut request = |frame: Frame| {
            write_frame(&mut raw, &frame).unwrap();
            read_frame(&mut raw).unwrap()
        };
        let hello = request(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        assert!(matches!(hello, Frame::HelloOk { .. }), "{hello:?}");
        for (id, p) in patterns.iter().enumerate() {
            let added = request(Frame::AddPattern {
                wild: None,
                bytes: p.to_vec(),
            });
            assert_eq!(added, Frame::PatternAdded { id: id as u32 });
        }
        let Frame::SessionOpened { session } = request(Frame::OpenSession) else {
            panic!("OPEN_SESSION refused");
        };

        // Pipeline every FEED before reading a single response.
        let mut pipelined = Vec::new();
        for chunk in text.chunks(CHUNK) {
            Frame::Feed {
                session,
                bytes: chunk.to_vec(),
            }
            .encode(&mut pipelined);
        }
        raw.write_all(&pipelined).unwrap();

        let mut events = Vec::new();
        for i in 1..=FEEDS {
            loop {
                match read_frame(&mut raw).unwrap() {
                    Frame::MatchEvents {
                        session: s,
                        events: batch,
                    } if s == session => {
                        events.extend(batch);
                    }
                    Frame::FeedOk {
                        session: s,
                        consumed,
                    } if s == session => {
                        assert_eq!(consumed, (i * CHUNK) as u64, "FEED_OK out of order");
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(events.len(), oracle.len());
        assert!(events == oracle, "events differ from the oracle");
        server.shutdown();
    }
}
