//! Server configuration: capacity, budgets and backpressure pacing.

use pm_chip::host::RetryPolicy;
use pm_chip::throughput::SuperWidth;
use std::net::SocketAddr;

/// Everything the front door needs to know before it binds.
///
/// The defaults are sized for a loopback load test: thousands of
/// sessions, a few megabytes of in-flight text, and millisecond-scale
/// backpressure hints. A deployment would raise the budgets to match
/// its memory and lower the session cap to match its core count — the
/// invariant the config protects is the paper's §5 one: the host side
/// must bound its buffering so the fixed-function engine, not memory
/// pressure, is the limit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind. Port 0 picks an ephemeral port (tests).
    pub addr: SocketAddr,
    /// Worker threads multiplexing connections. 0 means one per
    /// available core (thread-per-core).
    pub workers: usize,
    /// Widest group sessions' dictionaries are planned at: every group
    /// but the last is this wide, and the last is as narrow as its
    /// lanes allow.
    pub width: SuperWidth,
    /// Shards in the memory system the server routes sessions over.
    /// Each shard owns a slice of the global byte budget; sessions are
    /// pinned to a shard by id, so one hot shard backpressures only
    /// the sessions it owns. `1` (the default) keeps the whole budget
    /// in a single pool — the pre-shard behaviour, exactly.
    pub shards: usize,
    /// Global cap on concurrently open sessions; opens beyond it get
    /// `SERVER_BUSY` with a retry hint (admission control).
    pub max_sessions: usize,
    /// Per-connection cap on declared patterns.
    pub max_patterns: usize,
    /// Longest accepted pattern, in symbols.
    pub max_pattern_len: usize,
    /// Per-session byte budget: the largest `FEED` chunk a session may
    /// send in one frame; oversized chunks are a hard error, not a
    /// retry. It bounds the chunk a session buffers. The matcher's
    /// carried array state is separate and fixed: one bit per farm cell,
    /// `kmax × W` words per group, at most 32 KiB at these defaults
    /// (4096 patterns of 64 symbols on 8 W8 groups).
    pub session_budget_bytes: usize,
    /// Global byte budget: total `FEED` bytes in flight across all
    /// sessions, leased from a `SlotPool`. Exhaustion is retriable
    /// backpressure.
    pub global_budget_bytes: u64,
    /// Pacing for `SERVER_BUSY` retry hints and the idle watchdog —
    /// the same discipline the resilient host bus uses for sick
    /// hardware, pointed at slow clients.
    pub retry: RetryPolicy,
    /// Connections silent for this long are reaped by the stall
    /// watchdog (0 disables). Sessions they own are closed and their
    /// budget returns to the pool.
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            workers: 0,
            width: SuperWidth::default(),
            shards: 1,
            max_sessions: 4096,
            max_patterns: 4096,
            max_pattern_len: 64,
            session_budget_bytes: 64 << 10,
            global_budget_bytes: 8 << 20,
            retry: RetryPolicy::default(),
            idle_timeout_ms: 30_000,
        }
    }
}

impl ServeConfig {
    /// Worker threads after resolving `0` to the core count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Milliseconds a client is told to back off before retry number
    /// `attempt` (1-based): the `RetryPolicy` backoff schedule read at
    /// a 1 beat = 1 ms timescale, clamped to 10 s so a saturated
    /// schedule stays a hint rather than a ban.
    pub fn retry_after_ms(&self, attempt: u32) -> u32 {
        self.retry.backoff_beats(attempt).clamp(1, 10_000) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.effective_workers() >= 1);
        assert!(c.max_sessions >= 1000, "north star: thousands of sessions");
        assert!(c.session_budget_bytes as u64 <= c.global_budget_bytes);
    }

    #[test]
    fn retry_hints_follow_the_policy_and_clamp() {
        let c = ServeConfig {
            retry: RetryPolicy {
                backoff_base_beats: 8,
                backoff_factor: 4,
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        };
        assert_eq!(c.retry_after_ms(1), 8);
        assert_eq!(c.retry_after_ms(2), 32);
        assert_eq!(c.retry_after_ms(u32::MAX), 10_000, "clamped, not banned");
    }
}
