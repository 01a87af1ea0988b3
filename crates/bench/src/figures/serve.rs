//! E34: serving loadtest — concurrent sessions over loopback TCP vs.
//! aggregate throughput and feed latency.
//!
//! The paper's §5 opinion is that the chip is the easy part; the host
//! interface decides whether the engine ever sees enough text to
//! matter. `pm-serve` is that interface, and this figure is its load
//! test: many client connections, each multiplexing a share of the
//! sessions, all feeding chunked text concurrently into one
//! [`MatchServer`] on loopback. Every session's match events are
//! compared bit-for-bit against the offline
//! [`DictionaryMatcher::find_all`](pm_chip::dictionary::DictionaryMatcher::find_all)
//! oracle on the concatenation of its
//! chunks — the chunked `feed` path must make the network invisible
//! to correctness.
//!
//! Three numbers go to `BENCH_serve.json` (override the path with
//! `PM_SERVE_JSON`):
//!
//! * `serve_chars_per_sec` — aggregate characters matched per second
//!   across all sessions (advisory: machine-dependent);
//! * `serve_delivery_ratio` — events delivered over the wire divided
//!   by oracle events (enforced: must hold 1.0 on any machine);
//! * `serve_mean_over_p99` — mean per-feed round-trip latency divided
//!   by the p99 (enforced as a ratio: it is ≤ 1 by construction and
//!   collapses toward 0 when the tail degrades, so "higher is better"
//!   fits the gate's regression direction).
//!
//! Session count defaults to 1024 in release builds (the north star
//! is "thousands of sessions") and is overridable with
//! `PM_SERVE_SESSIONS`.

use pm_chip::dictionary::PatternDictionary;
use pm_serve::client::MatchClient;
use pm_serve::config::ServeConfig;
use pm_serve::protocol::Match;
use pm_serve::server::MatchServer;
use pm_systolic::superplane::simd_level;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client connections; sessions are spread evenly across them.
const CONNS: usize = 16;
/// Bytes per `FEED` chunk. Small enough that a session's stream takes
/// several round trips (so chunk-boundary carry is really exercised).
const CHUNK: usize = 512;
/// Chunks each session streams.
const CHUNKS: usize = if cfg!(debug_assertions) { 4 } else { 8 };

/// Sessions held open concurrently: `PM_SERVE_SESSIONS` wins, else
/// 1024 in release (the acceptance bar) and a quick 64 in debug.
fn session_count() -> usize {
    std::env::var("PM_SERVE_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= CONNS)
        .unwrap_or(if cfg!(debug_assertions) { 64 } else { 1024 })
}

/// The loadtest dictionary: literal byte strings plus one wildcard
/// pattern, so events cite several ids and the wild path is on the
/// wire too.
fn patterns() -> Vec<(Vec<u8>, Option<u8>)> {
    vec![
        (b"systolic".to_vec(), None),
        (b"vlsi".to_vec(), None),
        (b"pattern".to_vec(), None),
        (b"ch?p".to_vec(), Some(b'?')),
    ]
}

/// One session's full stream: seeded random bytes with every pattern
/// planted at spread offsets (pure random bytes would rarely match).
fn session_text(session: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x34_000 + session as u64);
    let mut text: Vec<u8> = (0..CHUNK * CHUNKS)
        .map(|_| rng.gen_range(0..256u16) as u8)
        .collect();
    for (n, (bytes, wild)) in patterns().iter().enumerate() {
        // Offsets differ per session and straddle chunk boundaries for
        // some sessions by construction (CHUNK is not a multiple of
        // the stride).
        let at = (n + 1) * 97 + session * 13 % CHUNK;
        if at + bytes.len() <= text.len() {
            for (d, &b) in bytes.iter().enumerate() {
                // Plant a literal for wildcard positions too: any byte
                // matches there, so 'x' keeps the plant deterministic.
                text[at + d] = if Some(b) == *wild { b'x' } else { b };
            }
        }
    }
    text
}

/// What one client thread brings home.
struct ThreadReport {
    /// `(session index, events delivered over the wire)` pairs.
    events: Vec<(usize, Vec<Match>)>,
    /// Per-feed round-trip latencies.
    latencies: Vec<Duration>,
    /// Characters fed (equals text length × sessions on success).
    chars: u64,
}

/// Drives `sessions` (global indices) over one connection: open all,
/// rendezvous, feed round-robin so every session is mid-stream at
/// once, close all.
fn drive(
    addr: std::net::SocketAddr,
    sessions: Vec<usize>,
    opened: Arc<Barrier>,
    feeding: Arc<Barrier>,
) -> ThreadReport {
    let mut client = MatchClient::connect(addr).expect("connect");
    for (bytes, wild) in patterns() {
        client.add_pattern(&bytes, wild).expect("add pattern");
    }
    let mut ids = Vec::with_capacity(sessions.len());
    for _ in &sessions {
        ids.push(client.open_session_with_retry(64).expect("open session"));
    }
    opened.wait(); // every session in the test is now open at once
    feeding.wait();

    let texts: Vec<Vec<u8>> = sessions.iter().map(|&s| session_text(s)).collect();
    let mut report = ThreadReport {
        events: sessions.iter().map(|&s| (s, Vec::new())).collect(),
        latencies: Vec::with_capacity(sessions.len() * CHUNKS),
        chars: 0,
    };
    for chunk in 0..CHUNKS {
        for (i, &id) in ids.iter().enumerate() {
            let bytes = &texts[i][chunk * CHUNK..(chunk + 1) * CHUNK];
            let t = Instant::now();
            let (events, _consumed) = client
                .feed_with_retry(id, bytes, 64)
                .expect("feed survives backpressure");
            report.latencies.push(t.elapsed());
            report.chars += bytes.len() as u64;
            report.events[i].1.extend(events);
        }
    }
    for &id in &ids {
        client.close_session(id).expect("close");
    }
    client.bye().expect("bye");
    report
}

/// Renders the E34 loadtest and writes `BENCH_serve.json` (path
/// overridable via `PM_SERVE_JSON`).
pub fn serve_figure() -> String {
    let path =
        std::env::var("PM_SERVE_JSON").unwrap_or_else(|_| crate::snapshot_path("BENCH_serve.json"));
    serve_to(&path)
}

/// As [`serve_figure`], with the JSON destination passed explicitly so
/// tests can route it to a temp path. Write errors are ignored so
/// read-only checkouts can still render.
pub fn serve_to(json_path: &str) -> String {
    let sessions = session_count();
    let per_conn = sessions / CONNS;
    let sessions = per_conn * CONNS; // exact spread
    let mut out = String::new();
    writeln!(
        out,
        "Serving loadtest (E34): {sessions} concurrent sessions over {CONNS} loopback \
         connections, {CHUNKS} x {CHUNK}-byte chunks per session, SIMD dispatch: {}",
        simd_level(),
    )
    .unwrap();

    let server = MatchServer::start(ServeConfig {
        max_sessions: sessions.max(4096),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let opened = Arc::new(Barrier::new(CONNS + 1));
    let feeding = Arc::new(Barrier::new(CONNS + 1));
    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            let ids: Vec<usize> = (c * per_conn..(c + 1) * per_conn).collect();
            let (opened, feeding) = (Arc::clone(&opened), Arc::clone(&feeding));
            std::thread::spawn(move || drive(addr, ids, opened, feeding))
        })
        .collect();

    opened.wait();
    let concurrent = server.open_sessions();
    let t0 = Instant::now();
    feeding.wait();
    let reports: Vec<ThreadReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = t0.elapsed();
    server.shutdown();

    // Offline oracle: the same dictionary over each session's
    // concatenated stream, single-shot.
    let compiled: Vec<Pattern> = patterns()
        .iter()
        .map(|(bytes, wild)| {
            Pattern::from_bytes(bytes, *wild, Alphabet::EIGHT_BIT).expect("loadtest pattern")
        })
        .collect();
    let oracle = PatternDictionary::new(&compiled, Default::default()).matcher();
    let mut exact = true;
    let mut delivered = 0u64;
    let mut expected = 0u64;
    for report in &reports {
        for (session, events) in &report.events {
            let symbols: Vec<Symbol> = session_text(*session)
                .iter()
                .map(|&b| Symbol::new(b))
                .collect();
            let want: Vec<Match> = oracle
                .find_all(&symbols)
                .iter()
                .map(|m| Match {
                    pattern: m.pattern as u32,
                    end: m.end as u64,
                })
                .collect();
            expected += want.len() as u64;
            delivered += events.len() as u64;
            if *events != want {
                exact = false;
            }
        }
    }
    let delivery_ratio = if expected > 0 {
        delivered as f64 / expected as f64
    } else {
        0.0
    };

    let mut latencies: Vec<Duration> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    latencies.sort_unstable();
    let feeds = latencies.len();
    let mean = latencies.iter().sum::<Duration>().as_secs_f64() / feeds as f64;
    let p50 = latencies[feeds / 2].as_secs_f64();
    let p99 = latencies[(feeds - 1).min(feeds * 99 / 100)].as_secs_f64();
    let mean_over_p99 = mean / p99;
    let chars: u64 = reports.iter().map(|r| r.chars).sum();
    let rate = chars as f64 / wall.as_secs_f64();

    writeln!(
        out,
        "\n  sessions concurrently open at rendezvous: {concurrent} (target {sessions})"
    )
    .unwrap();
    writeln!(
        out,
        "  aggregate: {chars} chars in {:.3} s = {:.2} Mchar/s across {feeds} feeds",
        wall.as_secs_f64(),
        rate / 1e6,
    )
    .unwrap();
    writeln!(
        out,
        "  feed latency: mean {:.3} ms | p50 {:.3} ms | p99 {:.3} ms | mean/p99 {mean_over_p99:.3}",
        mean * 1e3,
        p50 * 1e3,
        p99 * 1e3,
    )
    .unwrap();
    writeln!(
        out,
        "  events: {delivered} delivered vs {expected} oracle (ratio {delivery_ratio:.3})"
    )
    .unwrap();

    // JSON for the CI gate: the rate is advisory; the two ratios are
    // hardware-independent and enforced.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"serve_chars_per_sec\": {rate:.1},");
    let _ = writeln!(json, "  \"serve_delivery_ratio\": {delivery_ratio:.3},");
    let _ = writeln!(json, "  \"serve_mean_over_p99\": {mean_over_p99:.3},");
    let _ = writeln!(json, "  \"serve_sessions\": {sessions},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", simd_level());
    let _ = writeln!(json, "  \"chunk_bytes\": {CHUNK},");
    let _ = writeln!(json, "  \"chunks_per_session\": {CHUNKS}");
    json.push_str("}\n");
    super::write_snapshot(&mut out, json_path, &json);

    writeln!(
        out,
        "\n  all sessions admitted concurrently: {}",
        concurrent == sessions
    )
    .unwrap();
    writeln!(out, "  serve events equal offline oracle: {exact}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn serve_figure_is_exact() {
        let path = std::env::temp_dir().join("pm_test_serve.json");
        let text = super::serve_to(path.to_str().unwrap());
        assert!(
            text.contains("serve events equal offline oracle: true"),
            "{text}"
        );
        assert!(
            text.contains("all sessions admitted concurrently: true"),
            "{text}"
        );
    }
}
