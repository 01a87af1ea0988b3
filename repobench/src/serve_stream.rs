//! `serve_stream`: a closed loop of one client thread on one
//! connection against an in-process `MatchServer` (one worker, one
//! shard), streaming 64 interleaved sessions in 4 KiB `FEED` chunks.
//!
//! The front door does most of the work here: protocol codec, session
//! bookkeeping, byte-budget leases and the per-chunk byte→`Symbol`
//! conversion around a small (256-pattern) dictionary's `feed`.

use crate::gen::{self, BytePattern, Oracle, Rng};
use crate::measure::{median, micros, percentile, ratio, timed, Digest, Outcome, Region, Spent};
use pm_chip::dictionary::{DictionaryMatcher, PatternDictionary};
use pm_chip::throughput::SuperWidth;
use pm_serve::protocol::{Decoder, Frame, Match};
use pm_serve::{ClientError, MatchClient, MatchServer, ServeConfig};
use pm_systolic::symbol::{Alphabet, Symbol};
use std::collections::HashMap;
use std::time::Duration;

const PATTERNS: usize = 256;
/// Every `WILD_EVERY`-th pattern carries one wild card (8 of 256).
const WILD_EVERY: usize = 32;
const SESSIONS: usize = 64;
const CHUNK: usize = 4 << 10;
/// A session closes, and a fresh one opens in its slot, after this
/// many bytes.
const SESSION_BYTES: usize = 256 << 10;
/// About one planted occurrence per this many bytes.
const PLANT_EVERY: usize = 256;
/// Distinct session texts; sessions cycle through them.
const TEXT_POOL: usize = 96;
const SETUP_REPS: usize = 7;
const BUSY_RETRIES: u32 = 8;
/// Chunks replayed offline for the traced front-door breakdown.
const REPLAY_CHUNKS: usize = 8192;
/// Session texts the offline `find_all` and AC rates are taken over.
const OFFLINE_TEXTS: usize = 16;

struct Inputs {
    patterns: Vec<BytePattern>,
    texts: Vec<Vec<u8>>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let patterns: Vec<BytePattern> = (0..PATTERNS)
        .map(|i| {
            let len = rng.range(4, 16);
            let p = BytePattern::random(&mut rng, len, 8);
            if i % WILD_EVERY == WILD_EVERY - 1 {
                let at = rng.below(len);
                p.with_wildcard(&mut rng, at)
            } else {
                p
            }
        })
        .collect();
    let texts = (0..TEXT_POOL)
        .map(|t| {
            let mut rng = Rng::new(seed, 1000 + t as u64);
            let mut text = vec![0u8; SESSION_BYTES];
            rng.fill(&mut text, 8);
            gen::plant(&mut text, &patterns, PLANT_EVERY, &mut rng);
            text
        })
        .collect();
    Inputs { patterns, texts }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        shards: 1,
        ..ServeConfig::default()
    }
}

fn client_err(what: &str) -> impl Fn(ClientError) -> String + '_ {
    move |e| format!("serve_stream {what}: {e}")
}

/// Server start, connect, pattern declaration and the first open.
fn set_up(inputs: &Inputs) -> Result<(MatchServer, MatchClient, u64), String> {
    let server = MatchServer::start(config()).map_err(|e| format!("server start: {e}"))?;
    let mut client = MatchClient::connect(server.local_addr()).map_err(client_err("connect"))?;
    for (id, p) in inputs.patterns.iter().enumerate() {
        let got = client
            .add_pattern(&p.bytes, p.wild)
            .map_err(client_err("ADD_PATTERN"))?;
        if got as usize != id {
            return Err(format!("pattern {id} was assigned id {got}"));
        }
    }
    let first = client.open_session().map_err(client_err("OPEN"))?;
    Ok((server, client, first))
}

/// `FEED` with busy retries paced by the server's hints.
fn feed(
    client: &mut MatchClient,
    session: u64,
    bytes: &[u8],
    busy: &mut u64,
) -> Result<Vec<Match>, ClientError> {
    let mut attempt = 0;
    loop {
        match client.feed(session, bytes) {
            Err(ClientError::Busy { retry_after_ms, .. }) if attempt < BUSY_RETRIES => {
                *busy += 1;
                attempt += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            res => {
                *busy += u64::from(matches!(res, Err(ClientError::Busy { .. })));
                return res.map(|(events, _)| events);
            }
        }
    }
}

/// One session slot of the round robin.
#[derive(Default)]
struct Slot {
    id: u64,
    /// Index of the session's text in the pool.
    text: usize,
    fed: usize,
    events: Digest,
    /// Ordinal of this session instance (for the replay log).
    instance: usize,
    /// A request on this session failed; its events are not checked.
    broken: bool,
}

/// A closed session, kept for the oracle check after the run.
struct Finished {
    text: usize,
    fed: usize,
    /// `None` for a broken session.
    events: Option<Digest>,
}

/// One chunk as the traced pass saw it, for the offline replay.
struct ChunkRec {
    instance: usize,
    text: usize,
    offset: usize,
    events: usize,
}

/// The closed loop's state across passes.
#[derive(Default)]
struct Loop {
    slots: Vec<Slot>,
    instances: usize,
    busy: u64,
    finished: Vec<Finished>,
}

#[derive(Default)]
struct Pass {
    chars: u64,
    spent: Spent,
    rtts_us: Vec<f64>,
    opens_us: Vec<f64>,
    log: Vec<ChunkRec>,
}

impl Loop {
    /// Puts session `id` in slot `s` with the next text of the pool.
    fn assign(&mut self, s: usize, id: u64) {
        let n = self.instances;
        self.instances += 1;
        self.slots[s] = Slot {
            id,
            text: n % TEXT_POOL,
            instance: n,
            ..Slot::default()
        };
    }

    /// Opens a fresh session in slot `s`, returning the OPEN round trip.
    fn open(
        &mut self,
        client: &mut MatchClient,
        s: usize,
        out: &mut Outcome,
    ) -> Result<Duration, String> {
        out.attempted += 1;
        let (id, rtt) = timed(|| client.open_session_with_retry(BUSY_RETRIES));
        self.assign(s, id.map_err(client_err("OPEN"))?);
        Ok(rtt)
    }

    /// Closes slot `s`'s session and keeps what it received for the
    /// oracle check.
    fn close(&mut self, client: &mut MatchClient, s: usize, out: &mut Outcome) {
        let slot = &self.slots[s];
        out.attempted += 1;
        if client.close_session(slot.id).is_err() {
            out.failed += 1;
        }
        self.finished.push(Finished {
            text: slot.text,
            fed: slot.fed,
            events: (!slot.broken).then_some(slot.events),
        });
    }

    /// Round-robin `FEED`s until `budget` of wall clock is spent.
    fn pass(
        &mut self,
        client: &mut MatchClient,
        inputs: &Inputs,
        budget: Duration,
        traced: bool,
        out: &mut Outcome,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let region = Region::start();
        'run: loop {
            for s in 0..SESSIONS {
                if region.elapsed() >= budget {
                    break 'run;
                }
                let slot = &mut self.slots[s];
                let chunk = &inputs.texts[slot.text][slot.fed..slot.fed + CHUNK];
                out.attempted += 1;
                let (res, rtt) = timed(|| feed(client, slot.id, chunk, &mut self.busy));
                let done = match res {
                    Ok(events) => {
                        pass.rtts_us.push(micros(rtt));
                        if traced {
                            pass.log.push(ChunkRec {
                                instance: slot.instance,
                                text: slot.text,
                                offset: slot.fed,
                                events: events.len(),
                            });
                        }
                        for e in &events {
                            slot.events.add(u64::from(e.pattern), e.end);
                        }
                        slot.fed += CHUNK;
                        pass.chars += CHUNK as u64;
                        slot.fed == SESSION_BYTES
                    }
                    Err(_) => {
                        // The stream is broken; retire the session
                        // unchecked (the failure is counted).
                        out.failed += 1;
                        slot.broken = true;
                        true
                    }
                };
                if done {
                    self.close(client, s, out);
                    let rtt = self.open(client, s, out)?;
                    pass.opens_us.push(micros(rtt));
                }
            }
        }
        pass.spent = region.finish();
        Ok(pass)
    }

    /// The oracle check: each session's events equal the oracle's on
    /// the prefix of its text it was fed.
    fn verify(&self, inputs: &Inputs, oracle: &Oracle, out: &mut Outcome) {
        let mut expected: Vec<Option<Vec<(u64, u64)>>> = vec![None; TEXT_POOL];
        for f in &self.finished {
            let Some(events) = f.events else {
                continue;
            };
            let all = expected[f.text].get_or_insert_with(|| {
                oracle
                    .find_all(&gen::symbols(&inputs.texts[f.text]))
                    .into_iter()
                    .map(|m| (m.pattern as u64, m.end as u64))
                    .collect()
            });
            let fed = all.partition_point(|&(_, end)| (end as usize) < f.fed);
            out.check(Digest::of(all[..fed].iter().copied()) == events);
        }
    }
}

/// Offline timings of the front door's own steps per chunk.
#[derive(Default)]
struct Replay {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    /// Decode `FEED` + byte→`Symbol` + `feed` + encode the responses.
    server_us: Vec<f64>,
    feed_secs: f64,
    bytes: usize,
    replayed: u64,
    mismatched: u64,
}

/// Replays the traced pass's chunks offline through the public
/// functions the server and client call per chunk: `Frame::encode`,
/// `Decoder::push` + `next`, byte→`Symbol` and
/// `DictionaryMatcher::feed`.
fn replay(inputs: &Inputs, dict: &PatternDictionary, log: &[ChunkRec]) -> Replay {
    let proto = dict.matcher();
    let mut matchers: HashMap<usize, DictionaryMatcher> = HashMap::new();
    let mut r = Replay::default();
    for rec in log.iter().take(REPLAY_CHUNKS) {
        // Replay only sessions the traced pass saw from their start, so
        // the offline matcher carries the same boundary state.
        if rec.offset == 0 {
            matchers.insert(rec.instance, proto.clone());
        }
        let Some(matcher) = matchers.get_mut(&rec.instance) else {
            continue;
        };
        r.replayed += 1;
        let session = rec.instance as u64;
        let feed_frame = Frame::Feed {
            session,
            bytes: inputs.texts[rec.text][rec.offset..rec.offset + CHUNK].to_vec(),
        };
        let mut wire = Vec::with_capacity(CHUNK + 16);
        let ((), enc_feed) = timed(|| feed_frame.encode(&mut wire));
        let mut decoder = Decoder::new();
        let (decoded, dec_feed) = timed(|| {
            decoder.push(&wire);
            decoder.next()
        });
        let Ok(Some(Frame::Feed { bytes, .. })) = decoded else {
            r.mismatched += 1;
            continue;
        };
        let (syms, conv): (Vec<Symbol>, _) = timed(|| gen::symbols(&bytes));
        let (events, feed) = timed(|| matcher.feed(&syms));
        let responses = [
            Frame::MatchEvents {
                session,
                events: events
                    .iter()
                    .map(|e| Match {
                        pattern: e.pattern as u32,
                        end: e.end as u64,
                    })
                    .collect(),
            },
            Frame::FeedOk {
                session,
                consumed: (rec.offset + CHUNK) as u64,
            },
        ];
        let mut resp_wire = Vec::new();
        let ((), enc_resp) = timed(|| responses.iter().for_each(|f| f.encode(&mut resp_wire)));
        let mut client_dec = Decoder::new();
        let (frames, dec_resp) = timed(|| {
            client_dec.push(&resp_wire);
            let mut n = 0;
            while let Ok(Some(_)) = client_dec.next() {
                n += 1;
            }
            n
        });
        if frames != responses.len() || events.len() != rec.events {
            r.mismatched += 1;
        }
        r.encode_us.push(micros(enc_feed + enc_resp));
        r.decode_us.push(micros(dec_feed + dec_resp));
        r.server_us.push(micros(dec_feed + conv + feed + enc_resp));
        r.feed_secs += feed.as_secs_f64();
        r.bytes += CHUNK;
    }
    r
}

/// Reads one counter from the Prometheus exposition.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let inputs = generate(seed);
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(MatchServer, MatchClient, u64)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, mut client, _)) = kept.take() {
            client.bye().map_err(client_err("BYE"))?;
            MatchServer::shutdown(server);
        }
        let (up, took) = timed(|| set_up(&inputs));
        setups.push(took.as_secs_f64());
        kept = Some(up?);
    }
    let (server, mut client, first) = kept.expect("at least one set-up");

    let mut lp = Loop::default();
    lp.slots.resize_with(SESSIONS, Slot::default);
    out.attempted += 1;
    lp.assign(0, first);
    for s in 1..SESSIONS {
        lp.open(&mut client, s, &mut out)?;
    }

    let (plain, traced) = if trace {
        let plain = lp.pass(&mut client, &inputs, budget / 2, false, &mut out)?;
        let traced = lp.pass(&mut client, &inputs, budget / 2, true, &mut out)?;
        (plain, Some(traced))
    } else {
        (
            lp.pass(&mut client, &inputs, budget, false, &mut out)?,
            None,
        )
    };
    for s in 0..SESSIONS {
        lp.close(&mut client, s, &mut out);
    }
    let metrics_text = client.metrics().map_err(client_err("METRICS"))?;
    client.bye().map_err(client_err("BYE"))?;
    server.shutdown();
    eprintln!(
        "serve_stream: {} sessions streamed, {} busy replies",
        lp.instances, lp.busy
    );
    let oracle = Oracle::new(&inputs.patterns, Alphabet::EIGHT_BIT);
    lp.verify(&inputs, &oracle, &mut out);

    let Some(traced) = traced else {
        out.push("setup_s", median(&setups));
        out.push("mchar_per_cpu_s", plain.spent.mchar_per_cpu_s(plain.chars));
        out.push("feed_p50_us", percentile(&plain.rtts_us, 0.5));
        return Ok(out);
    };

    let patterns: Vec<_> = inputs
        .patterns
        .iter()
        .map(|p| p.pattern(Alphabet::EIGHT_BIT))
        .collect();
    let mut compiles = Vec::new();
    let mut dict = None;
    for _ in 0..SETUP_REPS {
        let (d, took) = timed(|| {
            let d = PatternDictionary::new(&patterns, SuperWidth::default());
            let _ = d.matcher();
            d
        });
        compiles.push(took.as_secs_f64());
        dict = Some(d);
    }
    let dict = dict.expect("compiled");
    let stats = *dict.stats();

    let rep = replay(&inputs, &dict, &traced.log);
    out.attempted += rep.replayed;
    out.failed += rep.mismatched;
    out.mismatched += rep.mismatched;

    // Offline rates on the same dictionary and texts (one thread, so
    // wall time is its CPU time).
    let matcher = dict.matcher();
    let texts: Vec<Vec<Symbol>> = inputs.texts[..OFFLINE_TEXTS]
        .iter()
        .map(|t| gen::symbols(t))
        .collect();
    let (_, farm) = timed(|| {
        texts
            .iter()
            .map(|t| matcher.find_all(t).len())
            .sum::<usize>()
    });
    let (_, ac) = timed(|| {
        texts
            .iter()
            .map(|t| oracle.find_all(t).len())
            .sum::<usize>()
    });
    let offline_mchar = (OFFLINE_TEXTS * SESSION_BYTES) as f64 / farm.as_secs_f64() / 1e6;

    let rtt_p50 = percentile(&traced.rtts_us, 0.5);
    out.push("feed_p99_us", percentile(&traced.rtts_us, 0.99));
    out.push("wall_mchar_per_s", plain.spent.mchar_per_s(plain.chars));
    out.push("protocol.encode_us", median(&rep.encode_us));
    out.push("protocol.decode_us", median(&rep.decode_us));
    out.push("server.residual_us", rtt_p50 - median(&rep.server_us));
    out.push("session.open_us", median(&traced.opens_us));
    out.push("server.busy_replies", lp.busy as f64);
    for (metric, counter_name) in [
        ("server.sessions_opened", "pm_sessions_opened_total"),
        ("server.sessions_closed", "pm_sessions_closed_total"),
        ("server.sessions_rejected", "pm_sessions_rejected_total"),
        ("server.frames", "pm_frames_total"),
    ] {
        out.push(metric, counter(&metrics_text, counter_name));
    }
    out.push(
        "serve_over_offline",
        ratio(plain.spent.mchar_per_cpu_s(plain.chars), offline_mchar),
    );
    out.push("dictionary.compile_s", median(&compiles));
    out.push(
        "dictionary.feed_us_per_mib",
        ratio(rep.feed_secs * 1e6, rep.bytes as f64 / (1 << 20) as f64),
    );
    out.push(
        "dictionary.over_ac",
        ratio(ac.as_secs_f64(), farm.as_secs_f64()),
    );
    out.push("dictionary.groups", stats.groups as f64);
    out.push("dictionary.occupancy", stats.occupancy());
    out.push("dictionary.dedup_ratio", stats.dedup_ratio());
    out.push(
        "trace_overhead_frac",
        1.0 - ratio(
            traced.spent.mchar_per_cpu_s(traced.chars),
            plain.spent.mchar_per_cpu_s(plain.chars),
        ),
    );
    Ok(out)
}
