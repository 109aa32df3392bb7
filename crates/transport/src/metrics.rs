//! Transport-layer instrumentation, registered in [`obs::global`].
//!
//! The steady-state hot path (per-message byte counts,
//! handler latency) touches only `static` atomics: registration happens
//! once behind a [`Once`], after which every update is a relaxed
//! fetch-add — no locks, no allocation, so the bench crate's
//! alloc-counter gates stay green with instrumentation compiled in.
//! Error paths and per-endpoint breaker metrics go through the
//! registry's get-or-create accessors instead; those paths are already
//! off the fast path, so the label rendering they pay is fine.

use std::sync::{Arc, Once};

use obs::{Counter, Gauge, Histogram};

use crate::error::TransportError;

/// Per-transport server-side instrumentation
/// (`{transport="tcp"}` / `{transport="http"}`).
pub struct ServerMetrics {
    /// `bx_server_connections_total` — connections accepted.
    pub connections: Counter,
    /// `bx_server_connections_active` — connections currently open.
    pub connections_active: Gauge,
    /// `bx_server_requests_total` — requests dispatched to handlers.
    pub requests: Counter,
    /// `bx_server_bytes_in_total` — request payload bytes read.
    pub bytes_in: Counter,
    /// `bx_server_bytes_out_total` — response payload bytes written.
    pub bytes_out: Counter,
    /// `bx_server_handler_latency_nanoseconds` — time spent in the
    /// application handler per message.
    pub handler_latency: Histogram,
    /// `bx_server_accept_to_dispatch_nanoseconds` — time from accept to
    /// the connection being registered with an event-loop worker; grows
    /// when workers can't keep up with the accept rate.
    pub accept_to_dispatch: Histogram,
    /// `bx_server_requests_inflight` — requests admitted past the shed
    /// check whose response has not yet been fully written. One half of
    /// the overload signal ([`crate::OverloadConfig::max_inflight`]).
    pub requests_inflight: Gauge,
    /// `bx_server_gathered_replies_total` — replies whose large pieces
    /// went to the socket from the handler's memory ([`crate::gather`]).
    pub gathered_replies: Counter,
    /// `bx_server_gather_spilled_bytes_total` — bytes of gathered
    /// replies the socket did not take while the handler ran, copied into
    /// the connection's reply buffer instead.
    pub gather_spilled_bytes: Counter,
}

impl ServerMetrics {
    const fn new() -> ServerMetrics {
        ServerMetrics {
            connections: Counter::new(),
            connections_active: Gauge::new(),
            requests: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            handler_latency: Histogram::new(),
            accept_to_dispatch: Histogram::new(),
            requests_inflight: Gauge::new(),
            gathered_replies: Counter::new(),
            gather_spilled_bytes: Counter::new(),
        }
    }

    fn register(&'static self, transport: &'static str) {
        let labels = &[("transport", transport)];
        let r = obs::global();
        r.register_counter(
            "bx_server_connections_total",
            "Connections accepted by a server.",
            labels,
            &self.connections,
        );
        r.register_gauge(
            "bx_server_connections_active",
            "Connections currently open on a server.",
            labels,
            &self.connections_active,
        );
        r.register_counter(
            "bx_server_requests_total",
            "Requests dispatched to a server's handler.",
            labels,
            &self.requests,
        );
        r.register_counter(
            "bx_server_bytes_in_total",
            "Request payload bytes read by a server.",
            labels,
            &self.bytes_in,
        );
        r.register_counter(
            "bx_server_bytes_out_total",
            "Response payload bytes written by a server.",
            labels,
            &self.bytes_out,
        );
        r.register_histogram(
            "bx_server_handler_latency_nanoseconds",
            "Time spent in the application handler per message.",
            labels,
            &self.handler_latency,
        );
        r.register_histogram(
            "bx_server_accept_to_dispatch_nanoseconds",
            "Time from accept to event-loop registration.",
            labels,
            &self.accept_to_dispatch,
        );
        r.register_gauge(
            "bx_server_requests_inflight",
            "Requests admitted and not yet fully answered.",
            labels,
            &self.requests_inflight,
        );
        r.register_counter(
            "bx_server_gathered_replies_total",
            "Replies whose large pieces went to the socket from the handler's memory.",
            labels,
            &self.gathered_replies,
        );
        r.register_counter(
            "bx_server_gather_spilled_bytes_total",
            "Bytes of gathered replies the socket did not take at once, copied to the reply buffer.",
            labels,
            &self.gather_spilled_bytes,
        );
    }
}

/// Count one request shed by the overload signal before any decode or
/// handler work (`bx_server_shed_total{transport=,reason=}`; reasons:
/// `inflight`, `queue_delay`).
pub fn count_shed(transport: &'static str, reason: &'static str) {
    obs::global()
        .counter(
            "bx_server_shed_total",
            "Requests shed before handler work, by transport and reason.",
            &[("transport", transport), ("reason", reason)],
        )
        .inc();
}

/// Count one connection turned away at admission
/// (`bx_server_rejected_connections_total{transport=,reason=}`; reasons:
/// `conn_cap` for the server-wide cap, `worker_slab` for the per-worker
/// slab bound).
pub fn count_rejected(transport: &'static str, reason: &'static str) {
    obs::global()
        .counter(
            "bx_server_rejected_connections_total",
            "Connections rejected at admission, by transport and reason.",
            &[("transport", transport), ("reason", reason)],
        )
        .inc();
}

/// Count one handler panic caught by the reactor's `catch_unwind`
/// isolation (`bx_server_handler_panics_total{transport=}`). The
/// connection is answered with an error/closed, the worker survives, and
/// the event lands here instead of being silently swallowed.
pub fn count_handler_panic(transport: &'static str) {
    obs::global()
        .counter(
            "bx_server_handler_panics_total",
            "Handler panics caught by the reactor's unwind isolation.",
            &[("transport", transport)],
        )
        .inc();
}

/// Record that raising the listen backlog at bind failed
/// (`bx_server_backlog_raise_failed{transport=}` = 1). Without this a
/// refused backlog masquerades as mysterious connect failures under
/// flood.
pub fn backlog_raise_failed(transport: &'static str) {
    obs::global()
        .gauge(
            "bx_server_backlog_raise_failed",
            "1 when raising the listen backlog failed at bind.",
            &[("transport", transport)],
        )
        .set(1.0);
}

/// The per-worker loop-iteration counter
/// (`bx_server_worker_loop_iterations_total{transport=,worker=}`), so
/// event-loop imbalance across workers is visible in a scrape. Called
/// once at worker startup; the returned handle is a relaxed atomic.
pub fn worker_loop_iterations(transport: &'static str, worker: usize) -> Arc<Counter> {
    obs::global().counter(
        "bx_server_worker_loop_iterations_total",
        "Event-loop iterations per reactor worker.",
        &[("transport", transport), ("worker", &worker.to_string())],
    )
}

/// The framed-TCP server's metrics (registered on first use).
pub fn tcp_server() -> &'static ServerMetrics {
    static METRICS: ServerMetrics = ServerMetrics::new();
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| METRICS.register("tcp"));
    &METRICS
}

/// The HTTP server's metrics (registered on first use).
pub fn http_server() -> &'static ServerMetrics {
    static METRICS: ServerMetrics = ServerMetrics::new();
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| METRICS.register("http"));
    &METRICS
}

/// Count one server-side connection error, typed by
/// [`error_kind`]. Replaces the old `eprintln!` tallies; error paths are
/// off the hot path, so the registry lookup here is acceptable.
pub fn count_server_error(transport: &'static str, kind: &'static str) {
    obs::global()
        .counter(
            "bx_server_connection_errors_total",
            "Connection-handling errors, by transport and error kind.",
            &[("transport", transport), ("kind", kind)],
        )
        .inc();
}

/// A stable label value for a [`TransportError`] class.
pub fn error_kind(e: &TransportError) -> &'static str {
    match e {
        TransportError::Io(_) => "io",
        TransportError::FrameTooLarge { .. } => "frame_too_large",
        TransportError::ConnectionClosed => "closed",
        TransportError::ConnectFailed { .. } => "connect_failed",
        TransportError::TimedOut { .. } => "timed_out",
        TransportError::BadHttp { .. } => "bad_http",
        TransportError::HttpStatus { .. } => "http_status",
    }
}

/// Count of recovered lock poisonings
/// (`bx_breaker_lock_poisoned_total`). A panicked lock holder no longer
/// cascades — the inner state is recovered and the event lands here.
pub fn lock_poisonings() -> &'static Counter {
    static POISONED: Counter = Counter::new();
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| {
        obs::global().register_counter(
            "bx_breaker_lock_poisoned_total",
            "Mutex poisonings recovered instead of propagated.",
            &[],
            &POISONED,
        );
    });
    &POISONED
}

/// Per-endpoint breaker instrumentation, shared by every clone of a
/// [`crate::BreakerHandle`].
pub struct BreakerMetrics {
    /// `bx_breaker_state{endpoint=}` — 0 closed, 1 half-open, 2 open.
    pub state: Arc<Gauge>,
    /// `bx_breaker_trips_total{endpoint=}`.
    pub trips: Arc<Counter>,
    /// `bx_breaker_window_failure_rate{endpoint=}` — failed fraction of
    /// the sliding window at last observation.
    pub failure_rate: Arc<Gauge>,
}

impl BreakerMetrics {
    /// The shared metrics for `endpoint`, created on first use.
    pub fn for_endpoint(endpoint: &str) -> Arc<BreakerMetrics> {
        let labels = &[("endpoint", endpoint)];
        let r = obs::global();
        Arc::new(BreakerMetrics {
            state: r.gauge(
                "bx_breaker_state",
                "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
                labels,
            ),
            trips: r.counter(
                "bx_breaker_trips_total",
                "Times the circuit breaker tripped open.",
                labels,
            ),
            failure_rate: r.gauge(
                "bx_breaker_window_failure_rate",
                "Failure fraction of the breaker's sliding window.",
                labels,
            ),
        })
    }
}
