//! A framed-TCP message server.
//!
//! The server half of the raw `BXSA/TCP` binding: accepts connections,
//! reads length-prefixed messages, and replies with the handler's output.
//! Connections persist across messages (unlike one-shot HTTP) — raw TCP
//! has no per-request protocol overhead, which is part of why the paper's
//! `SOAP over BXSA/TCP` wins on the LAN.
//!
//! Bind one with [`ServerBuilder::serve_framed`](crate::ServerBuilder::serve_framed);
//! it runs as a [`Server`]. Connections are served by a fixed pool of
//! event-loop workers ([`crate::reactor`]) with per-connection handler
//! state and reused buffers, so concurrency is bounded by worker count,
//! not thread count, and tens of thousands of idle-ish connections cost
//! file descriptors rather than stacks.
//!
//! Resilience: a connection that times out mid-read, trips the frame
//! limit, or dies mid-message takes a typed error path — the connection
//! is dropped, the error is counted by kind in
//! `bx_server_connection_errors_total{transport="tcp"}`, and the
//! listener stays alive for everyone else.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use crate::error::TransportResult;
use crate::faulty::SharedInjector;
use crate::framed::MAX_FRAME_LEN;
use crate::gather::{Framing, GatherSink, Gathered, ReplyConn};
use crate::metrics;
use crate::reactor::conn::FramedDriver;
use crate::reactor::overload::{Overload, OverloadConfig};
use crate::reactor::server::{ReactorConfig, Server};

/// Per-connection service limits for a framed-TCP [`Server`].
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
///
/// On a live connection it also lends the handler the socket, for a
/// reply whose large pieces go out straight from the handler's memory
/// ([`gather`](ReplyControl::gather) here on framed TCP,
/// [`Reply::gather`](crate::Reply::gather) on HTTP; see
/// [`crate::gather`]).
#[derive(Default)]
pub struct ReplyControl<'c> {
    write_budget: Option<Duration>,
    pub(crate) conn: Option<ReplyConn<'c>>,
}

impl std::fmt::Debug for ReplyControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyControl")
            .field("write_budget", &self.write_budget)
            .field("can_gather", &self.can_gather())
            .finish()
    }
}

impl<'c> ReplyControl<'c> {
    /// The control a connection lends its handler: the socket, where the
    /// framing of a gathered reply goes, and the buffer a gather spills
    /// into (cleared here).
    pub(crate) fn for_conn(
        io: &'c mut (dyn Write + Send),
        framing: Framing<'c>,
        spill: &'c mut Vec<u8>,
    ) -> ReplyControl<'c> {
        spill.clear();
        ReplyControl {
            write_budget: None,
            conn: Some(ReplyConn {
                io,
                framing,
                spill,
                gathered: Gathered::default(),
            }),
        }
    }

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

    /// Does this reply go to a live connection that can take a gathered
    /// reply?
    pub fn can_gather(&self) -> bool {
        self.conn.as_ref().is_some_and(|c| !c.gathered.started)
    }

    /// Has a gathered reply been started? Whatever the handler leaves in
    /// its reply buffer is then not sent.
    pub fn gathered(&self) -> bool {
        self.conn.as_ref().is_some_and(|c| c.gathered.started)
    }

    /// Start a framed-TCP reply of `len` bytes that goes to the socket
    /// from the handler's memory: the length prefix goes out with the
    /// first piece handed to the returned sink, and the reply buffer the
    /// handler was given is not sent. `None` — and nothing staged — when
    /// the connection is not framed TCP, a gather was already started,
    /// or `len` is over [`MAX_FRAME_LEN`].
    pub fn gather(&mut self, len: usize) -> Option<GatherSink<'_>> {
        let ReplyConn {
            io,
            framing: Framing::Prefix(prefix),
            spill,
            gathered,
        } = self.conn.as_mut()?
        else {
            return None;
        };
        if gathered.started || len > MAX_FRAME_LEN {
            return None;
        }
        **prefix = (len as u32).to_be_bytes();
        *gathered = Gathered {
            started: true,
            len,
            framing_len: prefix.len(),
            ..Gathered::default()
        };
        Some(GatherSink {
            io: &mut **io,
            framing: &prefix[..],
            spill,
            gathered,
        })
    }

    /// The write cap, and the gathered reply if one was started.
    pub(crate) fn finish(self) -> (Option<Duration>, Option<Gathered>) {
        let gathered = self.conn.map(|c| c.gathered).filter(|g| g.started);
        (self.write_budget, gathered)
    }
}

/// The one framed-TCP bind, behind
/// [`ServerBuilder::serve_framed`](crate::ServerBuilder::serve_framed).
pub(crate) fn bind_framed_inner<S, I, H>(
    addr: &str,
    config: TcpServerConfig,
    shed_payload: Option<Vec<u8>>,
    injector: Option<SharedInjector>,
    init: I,
    handler: H,
) -> TransportResult<Server>
where
    S: 'static,
    I: Fn() -> S + Send + Sync + 'static,
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl<'_>) + Send + Sync + 'static,
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
    Server::start(
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
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{FramedStream, RECV_CHUNK};
    use std::io::Write;
    use std::net::TcpStream;

    #[test]
    fn echo_roundtrip_multiple_messages() {
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(
                || (),
                |_scratch, req, out, _ctl| {
                    out.extend_from_slice(req);
                    out.reverse();
                },
            )
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
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(|| (), |_scratch, req, out, _ctl| out.extend_from_slice(req))
            .unwrap();
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
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(|| (), |_scratch, req, out, _ctl| out.extend_from_slice(req))
            .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        let payload: Vec<u8> = (0..2_000_000u32).map(|i| i as u8).collect();
        client.send(&payload).unwrap();
        assert_eq!(client.recv().unwrap(), payload);
        server.shutdown();
    }

    #[test]
    fn half_written_frame_is_counted_and_listener_survives() {
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(|| (), |_scratch, req, out, _ctl| out.extend_from_slice(req))
            .unwrap();
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
        let server = crate::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(
                || (),
                |_scratch, req, out, _ctl| {
                    std::thread::sleep(Duration::from_millis(300));
                    out.extend_from_slice(req);
                },
            )
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
