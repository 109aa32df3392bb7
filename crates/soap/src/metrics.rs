//! Engine-side instrumentation, registered in [`obs::global`].
//!
//! All metrics are `static` atomics registered once behind a [`Once`]:
//! after the first call every update is a relaxed fetch-add, so the
//! per-call accounting adds no locks and no allocation to
//! `SoapEngine::call_with`.

use std::sync::Once;

use obs::{Counter, Gauge, Histogram};

/// Counters and latency for `SoapEngine::call_with`.
pub struct EngineMetrics {
    /// `bx_engine_calls_total` — calls started.
    pub calls: Counter,
    /// `bx_engine_attempts_total` — exchanges attempted (a call with two
    /// retries contributes three).
    pub attempts: Counter,
    /// `bx_engine_retries_total` — backoff sleeps taken before another
    /// attempt.
    pub retries: Counter,
    /// `bx_engine_deadline_expired_total` — calls aborted at the
    /// deadline gate before an attempt.
    pub deadline_expired: Counter,
    /// `bx_engine_circuit_open_total` — attempts rejected by an open
    /// circuit breaker.
    pub circuit_open: Counter,
    /// `bx_engine_call_latency_nanoseconds` — wall time of the whole
    /// call, every attempt and backoff included.
    pub call_latency: Histogram,
    /// `bx_engine_scattered_bytes_total` — typed-reply array bytes read
    /// from the socket straight into typed slots, not into the reply
    /// buffer.
    pub scattered_bytes: Counter,
}

impl EngineMetrics {
    const fn new() -> EngineMetrics {
        EngineMetrics {
            calls: Counter::new(),
            attempts: Counter::new(),
            retries: Counter::new(),
            deadline_expired: Counter::new(),
            circuit_open: Counter::new(),
            call_latency: Histogram::new(),
            scattered_bytes: Counter::new(),
        }
    }
}

/// The engine's metrics (registered on first use).
pub fn engine() -> &'static EngineMetrics {
    static METRICS: EngineMetrics = EngineMetrics::new();
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| {
        let r = obs::global();
        r.register_counter(
            "bx_engine_calls_total",
            "SOAP calls started.",
            &[],
            &METRICS.calls,
        );
        r.register_counter(
            "bx_engine_attempts_total",
            "Exchanges attempted across all calls (retries included).",
            &[],
            &METRICS.attempts,
        );
        r.register_counter(
            "bx_engine_retries_total",
            "Backoff waits taken before re-attempting a call.",
            &[],
            &METRICS.retries,
        );
        r.register_counter(
            "bx_engine_deadline_expired_total",
            "Calls aborted because the end-to-end deadline expired.",
            &[],
            &METRICS.deadline_expired,
        );
        r.register_counter(
            "bx_engine_circuit_open_total",
            "Attempts rejected by an open circuit breaker.",
            &[],
            &METRICS.circuit_open,
        );
        r.register_histogram(
            "bx_engine_call_latency_nanoseconds",
            "Wall time of a whole call, attempts and backoff included.",
            &[],
            &METRICS.call_latency,
        );
        r.register_counter(
            "bx_engine_scattered_bytes_total",
            "Typed-reply array bytes received straight into typed slots.",
            &[],
            &METRICS.scattered_bytes,
        );
    });
    &METRICS
}

/// Counters for the streaming pipeline (client and server sides share
/// them — a relay contributes on both). The server side is counted in
/// the one streamed-exchange session, the client side in
/// `HttpBinding`'s stream half.
pub struct StreamMetrics {
    /// `bx_stream_exchanges_total` — streamed exchanges started, counted
    /// at each end of each leg.
    pub streams: Counter,
    /// `bx_stream_parts_in_total` — message parts received (manifest
    /// included).
    pub parts_in: Counter,
    /// `bx_stream_parts_out_total` — message parts sent (manifest
    /// included).
    pub parts_out: Counter,
    /// `bx_stream_part_bytes_max` — high-watermark of one encoded part:
    /// the largest window any streamed exchange ever made this process
    /// buffer. Constant-memory operation means this stays near the part
    /// size no matter how large the messages get.
    pub part_bytes_max: Gauge,
}

impl StreamMetrics {
    const fn new() -> StreamMetrics {
        StreamMetrics {
            streams: Counter::new(),
            parts_in: Counter::new(),
            parts_out: Counter::new(),
            part_bytes_max: Gauge::new(),
        }
    }
}

/// The streaming pipeline's metrics (registered on first use).
pub fn stream() -> &'static StreamMetrics {
    static METRICS: StreamMetrics = StreamMetrics::new();
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| {
        let r = obs::global();
        r.register_counter(
            "bx_stream_exchanges_total",
            "Streamed exchanges started.",
            &[],
            &METRICS.streams,
        );
        r.register_counter(
            "bx_stream_parts_in_total",
            "Streamed message parts received, manifests included.",
            &[],
            &METRICS.parts_in,
        );
        r.register_counter(
            "bx_stream_parts_out_total",
            "Streamed message parts sent, manifests included.",
            &[],
            &METRICS.parts_out,
        );
        r.register_gauge(
            "bx_stream_part_bytes_max",
            "High-watermark of one encoded streamed part (the realized window).",
            &[],
            &METRICS.part_bytes_max,
        );
    });
    &METRICS
}

/// Count one streamed part a node moved through `counter` (`parts_in`
/// or `parts_out`) and feed its size to `part_bytes_max`.
pub(crate) fn count_part(counter: &Counter, part: &[u8]) {
    counter.inc();
    stream().part_bytes_max.record_max(part.len() as f64);
}
