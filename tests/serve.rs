//! End-to-end serving tests over real loopback TCP: concurrent
//! clients, interleaved chunked feeds, and the admission-control /
//! backpressure recovery path — all through the facade crate's
//! `serve` re-export, the way an embedding application would reach it.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use systolic_pm::chip::dictionary::PatternDictionary;
use systolic_pm::serve::client::ClientError;
use systolic_pm::serve::prelude::*;
use systolic_pm::serve::protocol::{read_frame, write_frame, PROTOCOL_VERSION};
use systolic_pm::serve::server::OUTBOX_MARK;
use systolic_pm::systolic::symbol::{Alphabet, Pattern, Symbol};

/// The shared test dictionary: two literals and a wildcard pattern.
const PATTERNS: &[(&[u8], Option<u8>)] = &[(b"abc", None), (b"needle", None), (b"x?z", Some(b'?'))];

/// A deterministic pseudo-random text over a small alphabet that the
/// patterns actually occur in, with one explicit "needle" plant.
fn text_for(session: usize) -> Vec<u8> {
    const POOL: &[u8] = b"abcnedlxz";
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (session as u64).wrapping_mul(0x2545_f491);
    let mut text: Vec<u8> = (0..470)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            POOL[(state % POOL.len() as u64) as usize]
        })
        .collect();
    let at = 100 + session % 200;
    text[at..at + 6].copy_from_slice(b"needle");
    text
}

/// Offline ground truth: `find_all` on the whole stream at once.
fn oracle_events(text: &[u8]) -> Vec<Match> {
    let patterns: Vec<Pattern> = PATTERNS
        .iter()
        .map(|(bytes, wild)| Pattern::from_bytes(bytes, *wild, Alphabet::EIGHT_BIT).unwrap())
        .collect();
    let matcher = PatternDictionary::new(&patterns, Default::default()).matcher();
    let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
    matcher
        .find_all(&symbols)
        .iter()
        .map(|m| Match {
            pattern: m.pattern as u32,
            end: m.end as u64,
        })
        .collect()
}

#[test]
fn concurrent_clients_interleaved_chunks_equal_offline_oracle() {
    let server = MatchServer::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = MatchClient::connect(addr).unwrap();
                for (bytes, wild) in PATTERNS {
                    client.add_pattern(bytes, *wild).unwrap();
                }
                // Four sessions per connection, fed round-robin so all
                // are mid-stream at once; ragged chunk sizes make the
                // cross-chunk carry path do real work (the longest
                // pattern is 6 bytes, the smallest chunk is 7).
                let sessions: Vec<(u64, Vec<u8>)> = (0..4)
                    .map(|s| (client.open_session().unwrap(), text_for(c * 4 + s)))
                    .collect();
                let chunk_sizes = [7usize, 19, 33, 64];
                let mut cursors = vec![0usize; sessions.len()];
                let mut got: Vec<Vec<Match>> = vec![Vec::new(); sessions.len()];
                let mut round = 0usize;
                loop {
                    let mut any = false;
                    for (i, (id, text)) in sessions.iter().enumerate() {
                        if cursors[i] >= text.len() {
                            continue;
                        }
                        any = true;
                        let take = chunk_sizes[(round + i) % chunk_sizes.len()]
                            .min(text.len() - cursors[i]);
                        let chunk = &text[cursors[i]..cursors[i] + take];
                        let (events, consumed) = client.feed(*id, chunk).unwrap();
                        cursors[i] += take;
                        assert_eq!(consumed, cursors[i] as u64, "consumed tracks the stream");
                        got[i].extend(events);
                    }
                    if !any {
                        break;
                    }
                    round += 1;
                }
                for (i, (id, text)) in sessions.iter().enumerate() {
                    let (chars, delivered) = client.close_session(*id).unwrap();
                    assert_eq!(chars, text.len() as u64);
                    assert_eq!(delivered, got[i].len() as u64);
                    assert_eq!(
                        got[i],
                        oracle_events(text),
                        "session {i} of client {c} diverged from the offline oracle"
                    );
                    assert!(!got[i].is_empty(), "the planted needle must be reported");
                }
                client.bye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.open_sessions(), 0, "all sessions returned");
    server.shutdown();
}

#[test]
fn admission_control_rejects_then_recovers_after_backpressure() {
    let server = MatchServer::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let mut holder = MatchClient::connect(addr).unwrap();
    let held = holder.open_session().unwrap();

    // A second session is turned away with a positive retry hint.
    let mut late = MatchClient::connect(addr).unwrap();
    match late.open_session() {
        Err(ClientError::Busy {
            reason: BusyReason::Sessions,
            retry_after_ms,
        }) => assert!(retry_after_ms >= 1, "the hint must be actionable"),
        other => panic!("expected SERVER_BUSY, got {other:?}"),
    }

    // The late client retries with the server's pacing while the
    // holder finishes; the retry must eventually be admitted.
    let waiter = std::thread::spawn(move || {
        let id = late
            .open_session_with_retry(200)
            .expect("recover after backpressure");
        late.close_session(id).unwrap();
        late.bye().unwrap();
    });
    std::thread::sleep(Duration::from_millis(30));
    holder.close_session(held).unwrap();
    holder.bye().unwrap();
    waiter.join().unwrap();
    server.shutdown();
}

#[test]
fn oversized_chunk_is_a_hard_error_but_the_session_survives() {
    let server = MatchServer::start(ServeConfig {
        session_budget_bytes: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = MatchClient::connect(server.local_addr()).unwrap();
    client.add_pattern(b"abc", None).unwrap();
    let id = client.open_session().unwrap();
    match client.feed(id, &[b'a'; 64]) {
        Err(ClientError::Server {
            code: ErrorCode::ChunkTooLarge,
            ..
        }) => {}
        other => panic!("expected ChunkTooLarge, got {other:?}"),
    }
    // The rejected chunk was not consumed; a budget-sized chunk works.
    let (events, consumed) = client.feed(id, b"xxabcxxx").unwrap();
    assert_eq!(consumed, 8);
    assert_eq!(events, vec![Match { pattern: 0, end: 4 }]);
    client.close_session(id).unwrap();
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn metrics_frame_reports_the_load() {
    let server = MatchServer::start(ServeConfig::default()).unwrap();
    let mut client = MatchClient::connect(server.local_addr()).unwrap();
    client.add_pattern(b"needle", None).unwrap();
    let id = client.open_session().unwrap();
    client.feed(id, b"one needle here").unwrap();
    client.close_session(id).unwrap();
    let metrics = client.metrics().unwrap();
    for needle in [
        "pm_sessions_opened_total 1",
        "pm_sessions_closed_total 1",
        "pm_session_chars_total 15",
        "pm_events_delivered_total 1",
        "pm_frames_total",
        "pm_frame_bytes_total",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    client.bye().unwrap();
    server.shutdown();
}

/// Retries `open` while the server answers `SERVER_BUSY`, for up to
/// 5 s; true once a session is admitted.
fn admitted(mut open: impl FnMut() -> Result<(), ClientError>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match open() {
            Ok(()) => return true,
            Err(ClientError::Busy { retry_after_ms, .. }) => {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
}

#[test]
fn hangup_without_close_returns_sessions_to_the_cap() {
    let server = MatchServer::start(ServeConfig {
        max_sessions: 1,
        idle_timeout_ms: 0, // watchdog off: hangup alone must recover
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    {
        let mut rude = MatchClient::connect(addr).unwrap();
        rude.open_session().unwrap();
        // Dropped here: TCP FIN without CLOSE or BYE.
    }
    {
        // A ruder client on raw frames takes the reclaimed slot, then
        // hangs up halfway through a FEED frame.
        let mut raw = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut raw, &hello).unwrap();
        assert!(matches!(read_frame(&mut raw), Ok(Frame::HelloOk { .. })));
        let mut session = 0;
        let open = || {
            write_frame(&mut raw, &Frame::OpenSession)?;
            match read_frame(&mut raw)? {
                Frame::SessionOpened { session: s } => {
                    session = s;
                    Ok(())
                }
                Frame::ServerBusy {
                    reason,
                    retry_after_ms,
                } => Err(ClientError::Busy {
                    reason,
                    retry_after_ms,
                }),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert!(admitted(open), "the hung-up session was never reclaimed");
        let feed = Frame::Feed {
            session,
            bytes: vec![b'a'; 64],
        }
        .to_bytes();
        // The length prefix, kind and session id, and half the body.
        raw.write_all(&feed[..feed.len() / 2]).unwrap();
        // Dropped here: mid-frame, without CLOSE or BYE.
    }
    let mut polite = MatchClient::connect(addr).unwrap();
    let open = || polite.open_session().map(drop);
    assert!(admitted(open), "the hung-up session was never reclaimed");
    server.shutdown();
}

/// The `pm_outbox_high_water_bytes` gauge, read over `METRICS`.
fn outbox_high_water(client: &mut MatchClient) -> u64 {
    let metrics = client.metrics().unwrap();
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("pm_outbox_high_water_bytes "))
        .unwrap_or_else(|| panic!("no outbox gauge in:\n{metrics}"))
        .parse()
        .unwrap()
}

#[test]
fn a_client_that_never_reads_is_stalled_not_buffered() {
    // One worker, so the rude and the polite connection share it.
    let server = MatchServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let mut rude = TcpStream::connect(addr).unwrap();
    rude.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut request = |frame: Frame| {
        write_frame(&mut rude, &frame).unwrap();
        read_frame(&mut rude).unwrap()
    };
    let hello = request(Frame::Hello {
        version: PROTOCOL_VERSION,
    });
    assert!(matches!(hello, Frame::HelloOk { .. }), "{hello:?}");
    for (id, (bytes, wild)) in PATTERNS.iter().enumerate() {
        let added = request(Frame::AddPattern {
            wild: *wild,
            bytes: bytes.to_vec(),
        });
        assert_eq!(added, Frame::PatternAdded { id: id as u32 });
    }
    let Frame::SessionOpened { session } = request(Frame::OpenSession) else {
        panic!("OPEN_SESSION refused");
    };

    // `abc` over and over: one event per three bytes, about four reply
    // bytes per text byte. Write FEEDs without reading a reply until
    // the socket has refused bytes for half a second.
    let chunk: Vec<u8> = b"abc".iter().cycle().take(3 * 1365).copied().collect();
    let feed = Frame::Feed {
        session,
        bytes: chunk.clone(),
    }
    .to_bytes();
    rude.set_nonblocking(true).unwrap();
    let (mut fed, mut partial) = (0usize, 0usize);
    let mut refused_since: Option<Instant> = None;
    loop {
        match rude.write(&feed[partial..]) {
            Ok(n) => {
                partial += n;
                if partial == feed.len() {
                    (fed, partial) = (fed + 1, 0);
                }
                refused_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if refused_since.get_or_insert_with(Instant::now).elapsed()
                    > Duration::from_millis(500)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("write failed: {e}"),
        }
        assert!(
            fed < 16 << 10,
            "64 MiB written: the server never stopped reading"
        );
    }

    // The worker still serves a polite session, and it holds the rude
    // client's backlog within the mark, past the point where it stops
    // reading.
    let mut polite = MatchClient::connect(addr).unwrap();
    let held = outbox_high_water(&mut polite);
    assert!(held <= OUTBOX_MARK as u64, "{held} unsent bytes held");
    assert!(held > OUTBOX_MARK as u64 / 2, "{held}: never backpressured");
    for (bytes, wild) in PATTERNS {
        polite.add_pattern(bytes, *wild).unwrap();
    }
    let id = polite.open_session().unwrap();
    let text = text_for(0);
    let (events, consumed) = polite.feed(id, &text).unwrap();
    assert_eq!(consumed, text.len() as u64);
    assert_eq!(events, oracle_events(&text));
    polite.close_session(id).unwrap();
    polite.bye().unwrap();

    // Now the rude client reads everything while it finishes its last
    // FEED, and its events equal the offline oracle.
    rude.set_nonblocking(false).unwrap();
    let total = (fed + usize::from(partial > 0)) * chunk.len();
    let mut reader = rude.try_clone().unwrap();
    let drain = std::thread::spawn(move || {
        let mut events = Vec::new();
        loop {
            match read_frame(&mut reader).unwrap() {
                Frame::MatchEvents { events: batch, .. } => events.extend(batch),
                Frame::FeedOk { consumed, .. } if consumed == total as u64 => return events,
                Frame::FeedOk { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    });
    if partial > 0 {
        rude.write_all(&feed[partial..]).unwrap();
    }
    let events = drain.join().unwrap();
    let stream: Vec<u8> = chunk.iter().cycle().take(total).copied().collect();
    assert!(
        events == oracle_events(&stream),
        "events differ from the oracle"
    );
    write_frame(&mut rude, &Frame::Bye).unwrap();
    server.shutdown();
}
