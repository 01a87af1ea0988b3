//! Sessions and the per-connection protocol state machine.
//!
//! Everything here is socket-free: [`Conn::handle`] maps one decoded
//! request frame to its response frames against the [`Shared`] server
//! state, which is what makes admission control and the backpressure
//! path unit-testable without TCP. The server (`crate::server`) owns
//! the sockets and calls into this module; the load test and the
//! property tests call it directly.
//!
//! ## Session → batch-slot mapping
//!
//! A session is one streamed text: a [`DictionaryMatcher`], which is
//! only the stream's carry over the connection's shared compiled farm,
//! plus accounting. Feeding text into the superplane farm consumes
//! *batch-slot bytes* — the farm's finite capacity — so every `FEED`
//! chunk takes a
//! [`SlotLease`](pm_chip::shard::SlotLease) from the
//! [`SlotPool`] of the shard the session is pinned to
//! (`pools[session_id % pools.len()]`) for exactly the chunk's length
//! and releases it when the chunk has been matched. Exhaustion is answered with
//! `SERVER_BUSY` and a retry hint paced by the host
//! [`RetryPolicy`](pm_chip::host::RetryPolicy) — the same
//! stall/backoff discipline the self-healing host bus
//! (`HostBus::resilient`) applies to sick hardware, pointed the other
//! way.

use crate::config::ServeConfig;
use crate::protocol::{BusyReason, ErrorCode, Frame, Match, MAX_EVENTS_PER_FRAME};
use pm_chip::dictionary::{DictionaryMatcher, PatternDictionary};
use pm_chip::shard::SlotPool;
use pm_chip::telemetry::MetricsRegistry;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// State every connection shares: the config, the metrics registry
/// (also the trace sink), the global session count and the byte-budget
/// pools.
#[derive(Debug)]
pub struct Shared {
    /// The server's configuration.
    pub config: ServeConfig,
    /// One batch-slot pool per shard, splitting the global byte budget
    /// exactly ([`SlotPool::split`]). Each session is pinned to
    /// `pools[session_id % pools.len()]`, so a hot shard backpressures
    /// only the sessions it owns. With the default single-shard config
    /// `pools[0]` is the whole budget.
    pub pools: Vec<SlotPool>,
    /// Sessions open across all connections.
    pub open_sessions: AtomicUsize,
    /// Session-id allocator (ids are unique server-wide).
    next_session: AtomicU64,
    /// The metrics registry METRICS frames snapshot.
    pub registry: Arc<MetricsRegistry>,
    /// Trace sink (wraps `registry`).
    pub sink: SinkHandle,
}

impl Shared {
    /// Fresh shared state for a server with this config.
    pub fn new(config: ServeConfig) -> Arc<Self> {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = SinkHandle::new(registry.clone());
        let pools = SlotPool::split(config.global_budget_bytes, config.shards);
        Arc::new(Shared {
            config,
            pools,
            open_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            registry,
            sink,
        })
    }

    /// Tries to admit one session against the global cap.
    fn admit_session(&self) -> Option<u64> {
        let cap = self.config.max_sessions;
        let admitted = self
            .open_sessions
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        admitted.then(|| self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    fn release_sessions(&self, n: usize) {
        self.open_sessions.fetch_sub(n, Ordering::AcqRel);
    }
}

/// One streamed text: the matcher carrying chunk-boundary state and
/// the character count, plus accounting for the final `CLOSED` frame.
#[derive(Debug)]
struct Session {
    matcher: DictionaryMatcher,
    events: u64,
    /// Consecutive `SERVER_BUSY` answers; paces the retry hint.
    busy_attempts: u32,
}

/// Per-connection protocol state: declared patterns, the compiled
/// dictionary, and the sessions multiplexed over this connection.
#[derive(Debug)]
pub struct Conn {
    shared: Arc<Shared>,
    patterns: Vec<Pattern>,
    /// Compiled dictionary; each session takes a matcher over it.
    /// `None` while dirty.
    proto: Option<PatternDictionary>,
    sessions: HashMap<u64, Session>,
    /// Set once the client says `BYE`; the server closes after
    /// flushing responses.
    done: bool,
}

impl Conn {
    /// A fresh connection against the shared server state.
    pub fn new(shared: Arc<Shared>) -> Self {
        Conn {
            shared,
            patterns: Vec::new(),
            proto: None,
            sessions: HashMap::new(),
            done: false,
        }
    }

    /// Whether the client has said `BYE`.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Sessions this connection currently owns.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles one request frame, appending response frames to `out`.
    /// Protocol violations produce `ERROR` frames rather than closing
    /// the connection; only a codec failure (lost framing) warrants a
    /// drop, and that is the server's call.
    pub fn handle(&mut self, frame: Frame, out: &mut Vec<Frame>) {
        let sink = self.shared.sink.clone();
        if sink.enabled() {
            let bytes = match &frame {
                Frame::Feed { bytes, .. } => bytes.len() as u64,
                Frame::AddPattern { bytes, .. } => bytes.len() as u64,
                _ => 0,
            };
            sink.record(TraceEvent::FrameReceived {
                kind: frame.kind(),
                bytes,
            });
        }
        match frame {
            Frame::Hello { version: _ } => out.push(Frame::HelloOk {
                version: crate::protocol::PROTOCOL_VERSION,
                max_frame: crate::protocol::MAX_FRAME,
            }),
            Frame::AddPattern { wild, bytes } => self.add_pattern(wild, &bytes, out),
            Frame::OpenSession => self.open_session(out),
            Frame::Feed { session, bytes } => self.feed(session, &bytes, out),
            Frame::Close { session } => self.close(session, out),
            Frame::Metrics => out.push(Frame::MetricsText {
                text: self.shared.registry.snapshot().to_prometheus().into_bytes(),
            }),
            Frame::Bye => self.done = true,
            // Server-to-client frames arriving at the server are a
            // confused (or hostile) peer.
            other => out.push(Frame::Error {
                code: ErrorCode::Protocol,
                message: format!("unexpected frame kind {:#04x}", other.kind()).into_bytes(),
            }),
        }
    }

    fn add_pattern(&mut self, wild: Option<u8>, bytes: &[u8], out: &mut Vec<Frame>) {
        let cfg = &self.shared.config;
        let reject = |message: &str, out: &mut Vec<Frame>| {
            out.push(Frame::Error {
                code: ErrorCode::BadPattern,
                message: message.as_bytes().to_vec(),
            })
        };
        if self.patterns.len() >= cfg.max_patterns {
            return reject("pattern cap reached for this connection", out);
        }
        if bytes.len() > cfg.max_pattern_len {
            return reject("pattern longer than the configured maximum", out);
        }
        match Pattern::from_bytes(bytes, wild, Alphabet::EIGHT_BIT) {
            Ok(p) => {
                self.patterns.push(p);
                self.proto = None; // dictionary is dirty
                out.push(Frame::PatternAdded {
                    id: (self.patterns.len() - 1) as u32,
                });
            }
            Err(e) => reject(&e.to_string(), out),
        }
    }

    /// Compiles (or reuses) the connection's dictionary.
    fn dictionary(&mut self) -> &PatternDictionary {
        self.proto.get_or_insert_with(|| {
            let dict = PatternDictionary::new(&self.patterns, self.shared.config.width);
            dict.record_plan(&self.shared.sink);
            dict
        })
    }

    fn open_session(&mut self, out: &mut Vec<Frame>) {
        match self.shared.admit_session() {
            Some(id) => {
                let matcher = self.dictionary().matcher();
                self.sessions.insert(
                    id,
                    Session {
                        matcher,
                        events: 0,
                        busy_attempts: 0,
                    },
                );
                self.shared
                    .sink
                    .record(TraceEvent::SessionOpened { session: id });
                out.push(Frame::SessionOpened { session: id });
            }
            None => {
                let retry_after_ms = self.shared.config.retry_after_ms(1);
                self.shared
                    .sink
                    .record(TraceEvent::SessionRejected { retriable: true });
                self.shared.sink.record(TraceEvent::BackpressureSignalled {
                    session: 0,
                    backoff_ms: u64::from(retry_after_ms),
                });
                out.push(Frame::ServerBusy {
                    reason: BusyReason::Sessions,
                    retry_after_ms,
                });
            }
        }
    }

    fn feed(&mut self, session: u64, bytes: &[u8], out: &mut Vec<Frame>) {
        let cfg = &self.shared.config;
        let Some(s) = self.sessions.get_mut(&session) else {
            out.push(Frame::Error {
                code: ErrorCode::UnknownSession,
                message: format!("no session {session} on this connection").into_bytes(),
            });
            return;
        };
        if bytes.len() > cfg.session_budget_bytes {
            // Hard bound: a retry of the same chunk can never fit.
            self.shared
                .sink
                .record(TraceEvent::SessionRejected { retriable: false });
            out.push(Frame::Error {
                code: ErrorCode::ChunkTooLarge,
                message: format!(
                    "chunk of {} bytes exceeds the {}-byte session budget",
                    bytes.len(),
                    cfg.session_budget_bytes
                )
                .into_bytes(),
            });
            return;
        }
        // Lease batch-slot bytes from the session's shard of the
        // memory system; exhaustion is retriable backpressure scoped
        // to that shard's slice of the budget.
        let pools = &self.shared.pools;
        let pool = &pools[(session % pools.len() as u64) as usize];
        let Some(lease) = pool.try_lease(bytes.len() as u64) else {
            s.busy_attempts += 1;
            let retry_after_ms = cfg.retry_after_ms(s.busy_attempts);
            self.shared
                .sink
                .record(TraceEvent::SessionRejected { retriable: true });
            self.shared.sink.record(TraceEvent::BackpressureSignalled {
                session,
                backoff_ms: u64::from(retry_after_ms),
            });
            out.push(Frame::ServerBusy {
                reason: BusyReason::GlobalBudget,
                retry_after_ms,
            });
            return;
        };
        s.busy_attempts = 0;
        // EIGHT_BIT alphabet: every byte is a valid symbol, so the
        // bytes are matched in place.
        let events = s.matcher.feed(Symbol::slice_from_bytes(bytes));
        drop(lease); // chunk matched: bytes return to the pool
        if !events.is_empty() {
            s.events += events.len() as u64;
            self.shared.sink.record(TraceEvent::EventsDelivered {
                session,
                events: events.len() as u64,
            });
            // One chunk can match more events than a frame holds; the
            // protocol lets several MATCH_EVENTS precede FEED_OK.
            for batch in events.chunks(MAX_EVENTS_PER_FRAME) {
                out.push(Frame::MatchEvents {
                    session,
                    events: batch
                        .iter()
                        .map(|e| Match {
                            pattern: e.pattern as u32,
                            end: e.end as u64,
                        })
                        .collect(),
                });
            }
        }
        out.push(Frame::FeedOk {
            session,
            consumed: s.matcher.consumed() as u64,
        });
    }

    fn close(&mut self, session: u64, out: &mut Vec<Frame>) {
        match self.sessions.remove(&session) {
            Some(s) => {
                self.shared.release_sessions(1);
                self.shared.sink.record(TraceEvent::SessionClosed {
                    session,
                    chars: s.matcher.consumed() as u64,
                    events: s.events,
                });
                out.push(Frame::Closed {
                    session,
                    chars: s.matcher.consumed() as u64,
                    events: s.events,
                });
            }
            None => out.push(Frame::Error {
                code: ErrorCode::UnknownSession,
                message: format!("no session {session} on this connection").into_bytes(),
            }),
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // A dropped connection (client hangup, watchdog reap) returns
        // its sessions to the global cap.
        let n = self.sessions.len();
        if n > 0 {
            self.shared.release_sessions(n);
            for (&id, s) in &self.sessions {
                self.shared.sink.record(TraceEvent::SessionClosed {
                    session: id,
                    chars: s.matcher.consumed() as u64,
                    events: s.events,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME;
    use pm_chip::throughput::SuperWidth;

    fn shared(config: ServeConfig) -> Arc<Shared> {
        Shared::new(config)
    }

    fn handle(conn: &mut Conn, frame: Frame) -> Vec<Frame> {
        let mut out = Vec::new();
        conn.handle(frame, &mut out);
        out
    }

    /// Runs the canonical happy path and returns the events delivered.
    fn run_session(conn: &mut Conn, chunks: &[&[u8]]) -> Vec<Match> {
        let opened = handle(conn, Frame::OpenSession);
        let Frame::SessionOpened { session } = opened[0] else {
            panic!("expected SessionOpened, got {opened:?}");
        };
        let mut events = Vec::new();
        for chunk in chunks {
            for f in handle(
                conn,
                Frame::Feed {
                    session,
                    bytes: chunk.to_vec(),
                },
            ) {
                match f {
                    Frame::MatchEvents { events: e, .. } => events.extend(e),
                    Frame::FeedOk { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let closed = handle(conn, Frame::Close { session });
        assert!(matches!(closed[0], Frame::Closed { .. }));
        events
    }

    #[test]
    fn hello_and_metrics_answer() {
        let mut conn = Conn::new(shared(ServeConfig::default()));
        let out = handle(&mut conn, Frame::Hello { version: 1 });
        assert!(matches!(out[0], Frame::HelloOk { .. }));
        let out = handle(&mut conn, Frame::Metrics);
        let Frame::MetricsText { text } = &out[0] else {
            panic!("expected MetricsText");
        };
        let text = String::from_utf8(text.clone()).unwrap();
        assert!(text.contains("pm_frames_total"), "{text}");
    }

    #[test]
    fn matches_cross_chunk_boundaries() {
        let mut conn = Conn::new(shared(ServeConfig {
            width: SuperWidth::W1,
            ..ServeConfig::default()
        }));
        let out = handle(
            &mut conn,
            Frame::AddPattern {
                wild: None,
                bytes: b"needle".to_vec(),
            },
        );
        assert_eq!(out, vec![Frame::PatternAdded { id: 0 }]);
        // Split "needle" across three chunks; the match must still be
        // reported once, at its global end offset.
        let events = run_session(&mut conn, &[b"say nee", b"dl", b"e twice: needle"]);
        assert_eq!(
            events,
            vec![
                Match { pattern: 0, end: 9 },
                Match {
                    pattern: 0,
                    end: 23
                }
            ]
        );
    }

    #[test]
    fn pattern_added_mid_session_reaches_only_the_next_session() {
        let mut conn = Conn::new(shared(ServeConfig {
            width: SuperWidth::W1,
            ..ServeConfig::default()
        }));
        let add = |conn: &mut Conn, bytes: &[u8]| {
            handle(
                conn,
                Frame::AddPattern {
                    wild: None,
                    bytes: bytes.to_vec(),
                },
            )
        };
        assert_eq!(add(&mut conn, b"ab"), vec![Frame::PatternAdded { id: 0 }]);
        let Frame::SessionOpened { session: old } = handle(&mut conn, Frame::OpenSession)[0] else {
            panic!()
        };
        assert_eq!(add(&mut conn, b"cd"), vec![Frame::PatternAdded { id: 1 }]);
        let feed = |conn: &mut Conn, session| {
            handle(
                conn,
                Frame::Feed {
                    session,
                    bytes: b"abcd".to_vec(),
                },
            )
        };
        // The open session keeps the farm it opened with: no id 1.
        assert_eq!(
            feed(&mut conn, old),
            vec![
                Frame::MatchEvents {
                    session: old,
                    events: vec![Match { pattern: 0, end: 1 }],
                },
                Frame::FeedOk {
                    session: old,
                    consumed: 4
                },
            ]
        );
        // The next session gets the recompiled farm.
        let Frame::SessionOpened { session: new } = handle(&mut conn, Frame::OpenSession)[0] else {
            panic!()
        };
        assert_eq!(
            feed(&mut conn, new),
            vec![
                Frame::MatchEvents {
                    session: new,
                    events: vec![Match { pattern: 0, end: 1 }, Match { pattern: 1, end: 3 }],
                },
                Frame::FeedOk {
                    session: new,
                    consumed: 4
                },
            ]
        );
    }

    #[test]
    fn session_cap_rejects_then_recovers() {
        let s = shared(ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s.clone());
        let a = handle(&mut conn, Frame::OpenSession);
        let b = handle(&mut conn, Frame::OpenSession);
        assert!(matches!(a[0], Frame::SessionOpened { .. }));
        let Frame::SessionOpened { session } = b[0] else {
            panic!()
        };
        // Third open: admission control says busy, with a retry hint.
        let busy = handle(&mut conn, Frame::OpenSession);
        assert!(
            matches!(
                busy[0],
                Frame::ServerBusy {
                    reason: BusyReason::Sessions,
                    retry_after_ms
                } if retry_after_ms >= 1
            ),
            "{busy:?}"
        );
        // Closing one frees the slot; the retry is admitted.
        handle(&mut conn, Frame::Close { session });
        let again = handle(&mut conn, Frame::OpenSession);
        assert!(matches!(again[0], Frame::SessionOpened { .. }));
        assert_eq!(s.registry.snapshot().sessions_rejected, 1);
    }

    #[test]
    fn global_budget_backpressure_escalates_and_resets() {
        let s = shared(ServeConfig {
            global_budget_bytes: 8,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s.clone());
        let opened = handle(&mut conn, Frame::OpenSession);
        let Frame::SessionOpened { session } = opened[0] else {
            panic!()
        };
        // Hold the whole budget from outside (as a concurrent worker
        // mid-batch would).
        let hog = s.pools[0].try_lease(8).unwrap();
        let mut hints = Vec::new();
        for _ in 0..3 {
            let out = handle(
                &mut conn,
                Frame::Feed {
                    session,
                    bytes: b"abcd".to_vec(),
                },
            );
            let Frame::ServerBusy {
                reason: BusyReason::GlobalBudget,
                retry_after_ms,
            } = out[0]
            else {
                panic!("expected busy, got {out:?}");
            };
            hints.push(retry_after_ms);
        }
        assert!(
            hints.windows(2).all(|w| w[0] <= w[1]),
            "retry hints must not shrink while starved: {hints:?}"
        );
        drop(hog);
        let out = handle(
            &mut conn,
            Frame::Feed {
                session,
                bytes: b"abcd".to_vec(),
            },
        );
        assert!(
            matches!(out.last(), Some(Frame::FeedOk { consumed: 4, .. })),
            "{out:?}"
        );
        assert_eq!(s.pools[0].in_flight(), 0, "lease returned after the chunk");
        assert_eq!(s.registry.snapshot().backpressure_signals, 3);
    }

    #[test]
    fn backpressure_is_scoped_to_the_sessions_shard() {
        // Two shards split the 8-byte budget 4/4. Session ids are
        // allocated from 1, so the first session lands on shard 1 and
        // the second on shard 0.
        let s = shared(ServeConfig {
            shards: 2,
            global_budget_bytes: 8,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s.clone());
        let Frame::SessionOpened { session: first } = handle(&mut conn, Frame::OpenSession)[0]
        else {
            panic!()
        };
        let Frame::SessionOpened { session: second } = handle(&mut conn, Frame::OpenSession)[0]
        else {
            panic!()
        };
        assert_eq!((first, second), (1, 2));
        // Starve shard 1 (session 1's shard) from outside.
        let hog = s.pools[1].try_lease(4).unwrap();
        let out = handle(
            &mut conn,
            Frame::Feed {
                session: first,
                bytes: b"abcd".to_vec(),
            },
        );
        assert!(
            matches!(
                out[0],
                Frame::ServerBusy {
                    reason: BusyReason::GlobalBudget,
                    ..
                }
            ),
            "{out:?}"
        );
        // Session 2 lives on shard 0, whose slice of the budget is
        // untouched: its feed sails through.
        let out = handle(
            &mut conn,
            Frame::Feed {
                session: second,
                bytes: b"abcd".to_vec(),
            },
        );
        assert!(
            matches!(out.last(), Some(Frame::FeedOk { consumed: 4, .. })),
            "{out:?}"
        );
        drop(hog);
        let out = handle(
            &mut conn,
            Frame::Feed {
                session: first,
                bytes: b"abcd".to_vec(),
            },
        );
        assert!(
            matches!(out.last(), Some(Frame::FeedOk { consumed: 4, .. })),
            "{out:?}"
        );
    }

    #[test]
    fn events_beyond_one_frame_split_across_match_events_frames() {
        // 64 KiB of `a` against `a` and `aa`: 131 071 events, whose one
        // frame would be 1 572 865 bytes long, past MAX_FRAME.
        let mut conn = Conn::new(shared(ServeConfig::default()));
        for pattern in [&b"a"[..], b"aa"] {
            handle(
                &mut conn,
                Frame::AddPattern {
                    wild: None,
                    bytes: pattern.to_vec(),
                },
            );
        }
        let Frame::SessionOpened { session } = handle(&mut conn, Frame::OpenSession)[0] else {
            panic!()
        };
        let n = 64 << 10;
        let out = handle(
            &mut conn,
            Frame::Feed {
                session,
                bytes: vec![b'a'; n],
            },
        );
        let [Frame::MatchEvents { events: first, .. }, Frame::MatchEvents { events: second, .. }, Frame::FeedOk { consumed, .. }] =
            &out[..]
        else {
            panic!(
                "expected two MATCH_EVENTS then FEED_OK, got {} frames",
                out.len()
            );
        };
        assert_eq!(*consumed, n as u64);
        for frame in &out[..2] {
            let len = frame.to_bytes().len() - 4;
            assert!(len <= MAX_FRAME as usize, "frame of {len} bytes");
        }
        // The first frame is full: one more event would not fit.
        assert_eq!(first.len(), MAX_EVENTS_PER_FRAME);
        assert!(13 + 12 * (first.len() + 1) > MAX_FRAME as usize);
        let oracle: Vec<Match> = (0..n as u64)
            .flat_map(|end| {
                let aa = (end >= 1).then_some(Match { pattern: 1, end });
                std::iter::once(Match { pattern: 0, end }).chain(aa)
            })
            .collect();
        assert_eq!([&first[..], &second[..]].concat(), oracle);
    }

    #[test]
    fn oversized_chunk_is_a_hard_error() {
        let s = shared(ServeConfig {
            session_budget_bytes: 4,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s);
        let opened = handle(&mut conn, Frame::OpenSession);
        let Frame::SessionOpened { session } = opened[0] else {
            panic!()
        };
        let out = handle(
            &mut conn,
            Frame::Feed {
                session,
                bytes: b"too big".to_vec(),
            },
        );
        assert!(
            matches!(
                &out[0],
                Frame::Error {
                    code: ErrorCode::ChunkTooLarge,
                    ..
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn unknown_session_and_bad_pattern_error() {
        let mut conn = Conn::new(shared(ServeConfig {
            max_pattern_len: 4,
            ..ServeConfig::default()
        }));
        let out = handle(
            &mut conn,
            Frame::Feed {
                session: 42,
                bytes: vec![],
            },
        );
        assert!(matches!(
            &out[0],
            Frame::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        let out = handle(
            &mut conn,
            Frame::AddPattern {
                wild: None,
                bytes: b"toolong".to_vec(),
            },
        );
        assert!(matches!(
            &out[0],
            Frame::Error {
                code: ErrorCode::BadPattern,
                ..
            }
        ));
        // Empty patterns are rejected by the compiler, not a panic.
        let out = handle(
            &mut conn,
            Frame::AddPattern {
                wild: None,
                bytes: vec![],
            },
        );
        assert!(matches!(
            &out[0],
            Frame::Error {
                code: ErrorCode::BadPattern,
                ..
            }
        ));
    }

    #[test]
    fn dropped_connection_returns_sessions_to_the_cap() {
        let s = shared(ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s.clone());
        assert!(matches!(
            handle(&mut conn, Frame::OpenSession)[0],
            Frame::SessionOpened { .. }
        ));
        assert_eq!(s.open_sessions.load(Ordering::Relaxed), 1);
        drop(conn); // hangup without CLOSE
        assert_eq!(s.open_sessions.load(Ordering::Relaxed), 0);
        let mut conn2 = Conn::new(s);
        assert!(matches!(
            handle(&mut conn2, Frame::OpenSession)[0],
            Frame::SessionOpened { .. }
        ));
    }

    #[test]
    fn bye_finishes_the_connection() {
        let mut conn = Conn::new(shared(ServeConfig::default()));
        assert!(!conn.finished());
        assert!(handle(&mut conn, Frame::Bye).is_empty());
        assert!(conn.finished());
    }

    #[test]
    fn telemetry_counts_the_whole_conversation() {
        let s = shared(ServeConfig {
            width: SuperWidth::W1,
            ..ServeConfig::default()
        });
        let mut conn = Conn::new(s.clone());
        handle(
            &mut conn,
            Frame::AddPattern {
                wild: None,
                bytes: b"ab".to_vec(),
            },
        );
        let events = run_session(&mut conn, &[b"xxabxxab"]);
        assert_eq!(events.len(), 2);
        let snap = s.registry.snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.session_chars, 8);
        assert_eq!(snap.events_delivered, 2);
        assert!(snap.frames >= 4, "add + open + feed + close");
        assert!(snap.frame_bytes >= 10, "pattern bytes + chunk bytes");
        let prom = snap.to_prometheus();
        assert!(prom.contains("pm_sessions_opened_total 1"), "{prom}");
        assert!(prom.contains("pm_events_delivered_total 2"), "{prom}");
    }
}
