//! A framed-TCP message server.
//!
//! The server half of the raw `BXSA/TCP` binding: accepts connections,
//! reads length-prefixed messages, and replies with the handler's output.
//! Connections persist across messages (unlike one-shot HTTP) — raw TCP
//! has no per-request protocol overhead, which is part of why the paper's
//! `SOAP over BXSA/TCP` wins on the LAN.
//!
//! Since the reactor port, connections are served by a fixed pool of
//! event-loop workers ([`crate::reactor`]) instead of a thread per
//! connection: the same `bind_*` surface, per-connection handler state,
//! and buffer-reuse discipline, but concurrency is bounded by worker
//! count, not thread count, so tens of thousands of idle-ish connections
//! cost file descriptors rather than stacks.
//!
//! Resilience: a connection that times out mid-read, trips the frame
//! limit, or dies mid-message takes a typed error path — the connection
//! is dropped, the error is counted by kind in
//! `bx_server_connection_errors_total{transport="tcp"}`, and the
//! listener stays alive for everyone else.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use crate::error::TransportResult;
use crate::faulty::SharedInjector;
use crate::metrics;
use crate::reactor::conn::FramedDriver;
use crate::reactor::overload::{Overload, OverloadConfig};
use crate::reactor::server::{EventServer, ReactorConfig, DEFAULT_DRAIN};

/// Per-connection service limits for a [`TcpServer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpServerConfig {
    /// Budget for making read progress on a message. A client that
    /// stalls mid-frame is disconnected when this expires (`None` =
    /// wait forever, the pre-resilience behaviour).
    pub read_timeout: Option<Duration>,
    /// Budget for each reply write (a client that stops draining its
    /// receive window).
    pub write_timeout: Option<Duration>,
    /// Overload protection: connection cap, request shedding, and the
    /// whole-message (slow-loris) deadline. Default: everything off.
    pub overload: OverloadConfig,
}

/// Per-reply knobs a handler may set — most importantly, capping the
/// reply's write budget to the *caller's* remaining deadline instead of
/// the server's static [`TcpServerConfig`]. Reset before each message.
#[derive(Debug, Default)]
pub struct ReplyControl {
    write_budget: Option<Duration>,
}

impl ReplyControl {
    /// Cap the budget for writing this reply (combined with the static
    /// config by taking the minimum). A handler that knows the caller
    /// only has 80 ms left should not spend 5 s pushing bytes at it.
    pub fn cap_write(&mut self, budget: Duration) {
        self.write_budget = Some(self.write_budget.map_or(budget, |b| b.min(budget)));
    }

    /// The cap set for this reply, if any.
    pub fn write_budget(&self) -> Option<Duration> {
        self.write_budget
    }

    pub(crate) fn reset(&mut self) {
        self.write_budget = None;
    }
}

/// A running framed-TCP server.
pub struct TcpServer {
    inner: EventServer,
}

impl TcpServer {
    /// Bind and serve: `handler` maps each request message to a response
    /// message.
    pub fn bind<H>(addr: &str, handler: H) -> TransportResult<TcpServer>
    where
        H: Fn(Vec<u8>) -> Vec<u8> + Send + Sync + 'static,
    {
        TcpServer::bind_with(addr, TcpServerConfig::default(), move |request, out| {
            *out = handler(request.to_vec());
        })
    }

    /// [`bind`](TcpServer::bind) with explicit per-connection limits and
    /// caller-managed buffers: `handler` reads the request slice and
    /// writes the response into `out` (handed over cleared).
    pub fn bind_with<H>(
        addr: &str,
        config: TcpServerConfig,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        H: Fn(&[u8], &mut Vec<u8>) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, None, None, || (), move |_: &mut (), request, out, _ctl| {
            handler(request, out)
        })
    }

    /// Bind and serve with caller-managed buffers: `handler` reads the
    /// request slice and writes the response into `out` (handed over
    /// cleared). Each connection cycles one request and one response
    /// buffer for its whole lifetime, so steady-state service of
    /// similarly-sized messages does no per-message allocation.
    #[deprecated(since = "0.9.0", note = "use `TcpServer::bind_with` or `ServerBuilder::bind(addr).serve_framed(...)`")]
    pub fn bind_buffered<H>(addr: &str, handler: H) -> TransportResult<TcpServer>
    where
        H: Fn(&[u8], &mut Vec<u8>) + Send + Sync + 'static,
    {
        TcpServer::bind_with(addr, TcpServerConfig::default(), handler)
    }

    /// [`bind_buffered`](TcpServer::bind_buffered) with explicit
    /// per-connection limits.
    #[deprecated(since = "0.9.0", note = "use `TcpServer::bind_with` or `ServerBuilder::bind(addr).serve_framed(...)`")]
    pub fn bind_buffered_with<H>(
        addr: &str,
        config: TcpServerConfig,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        H: Fn(&[u8], &mut Vec<u8>) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, None, None, || (), move |_: &mut (), request, out, _ctl| {
            handler(request, out)
        })
    }

    /// [`bind_buffered_with`](TcpServer::bind_buffered_with) plus
    /// per-connection handler state: `init` runs once per accepted
    /// connection, and the value it returns is threaded through every
    /// message on that connection. This is where connection-scoped
    /// scratch lives — decode documents refilled in place, session
    /// counters — extending the buffer-reuse discipline from the two
    /// payload buffers to whatever the handler needs to keep warm.
    ///
    /// The state never leaves the event-loop worker that owns its
    /// connection, so it needs no `Send`/`Sync`; only the `init` factory
    /// is shared.
    #[deprecated(since = "0.9.0", note = "use `ServerBuilder::bind(addr).serve_framed(init, handler)`")]
    pub fn bind_scoped_with<S, I, H>(
        addr: &str,
        config: TcpServerConfig,
        init: I,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &[u8], &mut Vec<u8>) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, None, None, init, move |state, request, out, _ctl| {
            handler(state, request, out)
        })
    }

    /// [`bind_scoped_with`](TcpServer::bind_scoped_with) plus a
    /// [`ReplyControl`] the handler may use to cap this reply's write
    /// budget — the hook deadline-aware services use to bound the reply
    /// write by the caller's remaining time instead of the static config.
    #[deprecated(since = "0.9.0", note = "use `ServerBuilder::bind(addr).serve_framed(init, handler)`")]
    pub fn bind_scoped_ctl_with<S, I, H>(
        addr: &str,
        config: TcpServerConfig,
        init: I,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, None, None, init, handler)
    }

    /// [`bind_scoped_ctl_with`](TcpServer::bind_scoped_ctl_with) plus the
    /// canned payload overload protection answers with: `shed_payload`
    /// (typically an encoded SOAP Server fault carrying a
    /// `retry-after-ms=` detail) is sent — length-prefixed — as the reply
    /// to a request shed under [`OverloadConfig`] pressure, and as the
    /// parting frame of a connection rejected at the cap in
    /// `reject_when_full` mode. Without a payload (the other `bind_*`
    /// variants), shed and rejected connections are simply closed.
    #[deprecated(since = "0.9.0", note = "use `ServerBuilder::bind(addr).shed_payload(...).serve_framed(init, handler)`")]
    pub fn bind_scoped_ctl_overload_with<S, I, H>(
        addr: &str,
        config: TcpServerConfig,
        shed_payload: Option<Vec<u8>>,
        init: I,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, shed_payload, None, init, handler)
    }

    /// [`bind_scoped_ctl_with`](TcpServer::bind_scoped_ctl_with) with
    /// every *accepted* stream wrapped in a
    /// [`crate::faulty::FaultingTransport`] drawing from `injector` —
    /// byte-level fault injection on the server's own read *and write*
    /// paths, so torture tests exercise partial-write handling under a
    /// live accept loop, not just unit-level decode.
    #[deprecated(since = "0.9.0", note = "use `ServerBuilder::bind(addr).faults(...).serve_framed(init, handler)`")]
    pub fn bind_scoped_faulty_with<S, I, H>(
        addr: &str,
        config: TcpServerConfig,
        injector: SharedInjector,
        init: I,
        handler: H,
    ) -> TransportResult<TcpServer>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl) + Send + Sync + 'static,
    {
        bind_framed_inner(addr, config, None, Some(injector), init, handler)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Connections that ended with a transport error (truncated frame,
    /// oversize frame, mid-read timeout, reset) since the server started.
    pub fn error_count(&self) -> u64 {
        self.inner.error_count()
    }

    /// Stop accepting and drain: in-flight messages get up to a short
    /// grace period to finish, idle connections close immediately.
    pub fn shutdown(self) {
        self.shutdown_within(DEFAULT_DRAIN);
    }

    /// [`shutdown`](TcpServer::shutdown) with an explicit drain deadline.
    /// Connections still mid-message when it expires are dropped and
    /// counted as `bx_server_connection_errors_total{kind="shutdown_drop"}`.
    pub fn shutdown_within(mut self, drain: Duration) {
        self.inner.shutdown_within(drain);
    }
}

/// The one true framed-TCP bind: every public constructor and the
/// [`crate::ServerBuilder`] funnel through here.
pub(crate) fn bind_framed_inner<S, I, H>(
    addr: &str,
    config: TcpServerConfig,
    shed_payload: Option<Vec<u8>>,
    injector: Option<SharedInjector>,
    init: I,
    handler: H,
) -> TransportResult<TcpServer>
where
    S: 'static,
    I: Fn() -> S + Send + Sync + 'static,
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl) + Send + Sync + 'static,
{
    let m = metrics::tcp_server();
    let handler = Arc::new(handler);
    // A rejected connection gets the shed fault as a complete frame
    // (prefix + payload); a shed request reuses the raw payload.
    let reject_wire = shed_payload.as_ref().map(|p| {
        let mut wire = Vec::with_capacity(4 + p.len());
        wire.extend_from_slice(&(p.len() as u32).to_be_bytes());
        wire.extend_from_slice(p);
        Arc::<[u8]>::from(wire)
    });
    let overload = Arc::new(Overload::new(
        &config.overload,
        reject_wire,
        shed_payload.map(Arc::<[u8]>::from),
    ));
    let driver_overload = Arc::clone(&overload);
    let inner = EventServer::bind(
        addr,
        ReactorConfig {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            transport: "tcp",
            metrics: m,
            injector,
            overload,
        },
        Arc::new(move || {
            Box::new(FramedDriver::new(
                init(),
                Arc::clone(&handler),
                m,
                Arc::clone(&driver_overload),
            )) as Box<dyn crate::reactor::conn::ConnDriver>
        }),
    )?;
    Ok(TcpServer { inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{FramedStream, RECV_CHUNK};
    use std::io::Write;
    use std::net::TcpStream;

    #[test]
    fn echo_roundtrip_multiple_messages() {
        let server = TcpServer::bind("127.0.0.1:0", |mut req| {
            req.reverse();
            req
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        // Multiple messages over one persistent connection.
        for msg in [&b"abc"[..], b"", b"0123456789"] {
            client.send(msg).unwrap();
            let mut expected = msg.to_vec();
            expected.reverse();
            assert_eq!(client.recv().unwrap(), expected);
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn buffered_handler_roundtrip() {
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(
                || (),
                |_scratch, req, out: &mut Vec<u8>, _ctl| {
                    assert!(out.is_empty());
                    out.extend_from_slice(req);
                    out.reverse();
                },
            )
            .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        for msg in [&b"abc"[..], b"", b"0123456789"] {
            client.send(msg).unwrap();
            let mut expected = msg.to_vec();
            expected.reverse();
            assert_eq!(client.recv().unwrap(), expected);
        }
        drop(client);
        server.shutdown();
    }

    /// The reactor keeps its payload buffer at the high-water length
    /// across requests; a small request after a large one on the same
    /// connection must still reach the handler as exactly its own bytes,
    /// with no stale tail from the earlier request.
    #[test]
    fn small_request_after_a_large_one_carries_no_stale_tail() {
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(
                || (),
                |_scratch, req, out: &mut Vec<u8>, _ctl| out.extend_from_slice(req),
            )
            .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        let large: Vec<u8> = (0..3 * RECV_CHUNK as u32 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let middle = vec![0x5a; RECV_CHUNK / 2];
        for msg in [&large[..], b"tiny", b"", &middle, b"abc", &large, b"z"] {
            client.send(msg).unwrap();
            assert_eq!(client.recv().unwrap(), msg, "{}-byte request", msg.len());
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = TcpServer::bind("127.0.0.1:0", |req| req).unwrap();
        let addr = server.local_addr().to_string();
        crossbeam::thread::scope(|s| {
            let mut joins = Vec::new();
            for i in 0u8..6 {
                let addr = addr.clone();
                joins.push(s.spawn(move |_| {
                    let mut c = FramedStream::connect(&addr).unwrap();
                    let payload = vec![i; 100_000];
                    c.send(&payload).unwrap();
                    assert_eq!(c.recv().unwrap(), payload);
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        })
        .unwrap();
        server.shutdown();
    }

    #[test]
    fn large_payload_roundtrip() {
        let server = TcpServer::bind("127.0.0.1:0", |req| req).unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        let payload: Vec<u8> = (0..2_000_000u32).map(|i| i as u8).collect();
        client.send(&payload).unwrap();
        assert_eq!(client.recv().unwrap(), payload);
        server.shutdown();
    }

    #[test]
    fn half_written_frame_is_counted_and_listener_survives() {
        let server = TcpServer::bind("127.0.0.1:0", |req| req).unwrap();
        let addr = server.local_addr();
        // A client that declares 100 bytes, writes 3, and vanishes.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&100u32.to_be_bytes()).unwrap();
            raw.write_all(b"abc").unwrap();
        } // dropped: half-written frame
          // The listener must still serve the next client.
        let mut client = FramedStream::connect(&addr.to_string()).unwrap();
        client.send(b"still alive?").unwrap();
        assert_eq!(client.recv().unwrap(), b"still alive?");
        drop(client);
        // The bad connection was accounted as a typed error. (Poll: the
        // event loop races the assertion.)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.error_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.error_count() >= 1, "truncation must be counted");
        server.shutdown();
    }

    #[test]
    fn stalled_client_times_out_and_listener_survives() {
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .read_timeout(Duration::from_millis(40))
            .write_timeout(Duration::from_secs(5))
            .serve_framed(
                || (),
                |_scratch, req, out: &mut Vec<u8>, _ctl| out.extend_from_slice(req),
            )
            .unwrap();
        let addr = server.local_addr();
        // Stall mid-frame: prefix only, then silence.
        let mut staller = TcpStream::connect(addr).unwrap();
        staller.write_all(&8u32.to_be_bytes()).unwrap();
        // Wait for the server's read budget to fire.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.error_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.error_count() >= 1, "stall must surface as an error");
        // And fresh clients are still served.
        let mut client = FramedStream::connect(&addr.to_string()).unwrap();
        client.send(b"after the stall").unwrap();
        assert_eq!(client.recv().unwrap(), b"after the stall");
        drop((client, staller));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_an_in_flight_message() {
        // A handler that parks for 300 ms: shutdown issued right after
        // the request must still deliver the reply (drain > nap).
        let server = TcpServer::bind("127.0.0.1:0", |req| {
            std::thread::sleep(Duration::from_millis(300));
            req
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        client.send(b"draining").unwrap();
        std::thread::sleep(Duration::from_millis(50)); // request in flight
        let done = std::thread::spawn(move || server.shutdown_within(Duration::from_secs(5)));
        assert_eq!(client.recv().unwrap(), b"draining", "in-flight reply must drain");
        done.join().unwrap();
    }
}
