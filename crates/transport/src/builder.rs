//! One builder for every server shape, and the only way to bind one.
//!
//! Chain the options you need on [`ServerBuilder`], then finish with
//! [`serve_framed`](ServerBuilder::serve_framed) (the framed-TCP
//! binding) or [`serve_http`](ServerBuilder::serve_http) (HTTP/1.1 with
//! keep-alive and streaming). Both finishers take the same handler
//! shape: `init` builds per-connection scratch, and the handler gets
//! that scratch, the request borrowed from the connection's buffers, a
//! reply buffer the connection reuses, and a [`ReplyControl`]. Every
//! finish returns the same running [`Server`].
//!
//! ```no_run
//! use transport::ServerBuilder;
//!
//! let framed = ServerBuilder::bind("127.0.0.1:0")
//!     .read_timeout(std::time::Duration::from_secs(5))
//!     .serve_framed(
//!         || Vec::<u8>::new(), // per-connection scratch
//!         |_scratch, request, out, _ctl| out.extend_from_slice(request),
//!     )
//!     .unwrap();
//! let http = ServerBuilder::bind("127.0.0.1:0")
//!     .serve_http(
//!         || (),
//!         |_scratch, head, body, reply, _ctl| {
//!             reply.header("Content-Type", "text/plain");
//!             reply.body.extend_from_slice(head.path.as_bytes());
//!             reply.body.extend_from_slice(body);
//!         },
//!     )
//!     .unwrap();
//! # drop((framed, http));
//! ```

use std::sync::Arc;
use std::time::Duration;

use crate::error::TransportResult;
use crate::faulty::SharedInjector;
use crate::http::server::{bind_http_inner, HttpServerConfig, Reply, RequestHead};
use crate::http::streaming::{StreamFactory, StreamSession};
use crate::reactor::overload::OverloadConfig;
use crate::reactor::server::Server;
use crate::tcpserver::{bind_framed_inner, ReplyControl, TcpServerConfig};

/// A chainable server configuration, finished by a `serve_*` call.
#[derive(Clone)]
pub struct ServerBuilder {
    addr: String,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    overload: OverloadConfig,
    metrics_path: Option<&'static str>,
    shed_payload: Option<Vec<u8>>,
    injector: Option<SharedInjector>,
    stream_factory: Option<StreamFactory>,
}

impl ServerBuilder {
    /// Start building a server for `addr` (port 0 = ephemeral).
    pub fn bind(addr: &str) -> ServerBuilder {
        ServerBuilder {
            addr: addr.to_owned(),
            read_timeout: None,
            write_timeout: None,
            overload: OverloadConfig::default(),
            metrics_path: None,
            shed_payload: None,
            injector: None,
            stream_factory: None,
        }
    }

    /// Budget for making read progress on a message (and the idle
    /// allowance between keep-alive requests).
    pub fn read_timeout(mut self, budget: Duration) -> ServerBuilder {
        self.read_timeout = Some(budget);
        self
    }

    /// Budget for writing each reply.
    pub fn write_timeout(mut self, budget: Duration) -> ServerBuilder {
        self.write_timeout = Some(budget);
        self
    }

    /// Overload protection (connection cap, shedding, slow-loris
    /// deadline).
    pub fn overload(mut self, config: OverloadConfig) -> ServerBuilder {
        self.overload = config;
        self
    }

    /// Serve process metrics on `GET <path>` (HTTP servers only).
    pub fn metrics_path(mut self, path: &'static str) -> ServerBuilder {
        self.metrics_path = Some(path);
        self
    }

    /// Canned payload answered to shed/rejected requests (framed servers
    /// only; typically a pre-encoded SOAP Server fault). It is the reply
    /// to a request shed under [`OverloadConfig`] pressure and the
    /// parting frame of a connection rejected at the cap; without one,
    /// shed and rejected connections are simply closed.
    pub fn shed_payload(mut self, payload: Vec<u8>) -> ServerBuilder {
        self.shed_payload = Some(payload);
        self
    }

    /// Wrap every accepted stream in byte-level fault injection (framed
    /// servers only).
    pub fn faults(mut self, injector: SharedInjector) -> ServerBuilder {
        self.injector = Some(injector);
        self
    }

    /// Serve chunked requests through streaming sessions: `factory` is
    /// consulted per chunked request head; a `Some` session receives one
    /// part per chunk and streams its reply (HTTP servers only — see
    /// [`crate::http::streaming`]).
    pub fn stream_factory<F>(mut self, factory: F) -> ServerBuilder
    where
        F: Fn(&RequestHead<'_>) -> Option<Box<dyn StreamSession>> + Send + Sync + 'static,
    {
        self.stream_factory = Some(Arc::new(factory));
        self
    }

    /// Finish as a framed-TCP server: `init` builds per-connection
    /// scratch, `handler` maps each request to a response with a
    /// [`ReplyControl`] for deadline-aware reply capping. The response
    /// buffer arrives cleared; each connection reuses one request and
    /// one response buffer for its lifetime. The scratch never leaves the event-loop
    /// worker that owns its connection, so it needs no `Send`/`Sync`;
    /// only `init` is shared.
    pub fn serve_framed<S, I, H>(self, init: I, handler: H) -> TransportResult<Server>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl<'_>) + Send + Sync + 'static,
    {
        let config = TcpServerConfig {
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            overload: self.overload,
        };
        bind_framed_inner(
            &self.addr,
            config,
            self.shed_payload,
            self.injector,
            init,
            handler,
        )
    }

    /// Finish as an HTTP/1.1 server, with the handler shape of
    /// [`serve_framed`](ServerBuilder::serve_framed): `init` builds
    /// per-connection scratch, and `handler` gets it with the request
    /// head and body borrowed from the connection's buffers, the
    /// connection's [`Reply`] (reset to an empty `200 OK`) and a
    /// [`ReplyControl`]. Chunked requests de-chunk into the same body
    /// buffer unless a [`stream_factory`](ServerBuilder::stream_factory)
    /// takes them.
    pub fn serve_http<S, I, H>(self, init: I, handler: H) -> TransportResult<Server>
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, &RequestHead<'_>, &[u8], &mut Reply, &mut ReplyControl<'_>)
            + Send
            + Sync
            + 'static,
    {
        let config = HttpServerConfig {
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            metrics_path: self.metrics_path,
            overload: self.overload,
        };
        bind_http_inner(&self.addr, config, self.stream_factory, init, handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::FramedStream;
    use crate::http::client::HttpConnection;
    use crate::http::request::HttpRequest;
    use crate::http::response::HttpResponse;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builder_serves_framed_with_scratch() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .read_timeout(Duration::from_secs(5))
            .serve_framed(
                || 0u64,
                |count, request, out, _ctl| {
                    *count += 1;
                    out.extend_from_slice(request);
                    out.extend_from_slice(format!(" #{count}").as_bytes());
                },
            )
            .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = FramedStream::connect(&addr).unwrap();
        client.send(b"msg").unwrap();
        assert_eq!(client.recv().unwrap(), b"msg #1");
        client.send(b"msg").unwrap();
        assert_eq!(client.recv().unwrap(), b"msg #2", "scratch persists per connection");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn builder_serves_http_with_scratch() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || 0u64,
                |count, head, body, reply, _ctl| {
                    *count += 1;
                    reply.body.extend_from_slice(head.path.as_bytes());
                    reply.body.extend_from_slice(body);
                    reply
                        .body
                        .extend_from_slice(format!(" #{count}").as_bytes());
                },
            )
            .unwrap();
        let mut conn = HttpConnection::new(&server.local_addr().to_string());
        let request = HttpRequest::post("/x", "text/plain", b"-go".to_vec());
        assert_eq!(conn.exchange(&request).unwrap().body, b"/x-go #1");
        assert_eq!(
            conn.exchange(&request).unwrap().body,
            b"/x-go #2",
            "scratch persists per connection"
        );
        server.shutdown();
    }

    /// The reply buffer belongs to the connection: after the first
    /// request, every handler on a keep-alive connection finds one
    /// already big enough.
    #[test]
    fn keep_alive_handlers_keep_their_reply_buffer() {
        const REPLY: usize = 64 * 1024;
        let short = Arc::new(AtomicUsize::new(0));
        let short_in_handler = Arc::clone(&short);
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                move |_, _head, _body, reply, _ctl| {
                    if reply.body.capacity() < REPLY {
                        short_in_handler.fetch_add(1, Ordering::Relaxed);
                    }
                    reply.body.resize(REPLY, b'x');
                },
            )
            .unwrap();
        let mut conn = HttpConnection::new(&server.local_addr().to_string());
        let request = HttpRequest::post("/", "text/plain", b"go".to_vec());
        let mut response = HttpResponse::empty();
        for _ in 0..100 {
            conn.exchange_into(&request, &mut response).unwrap();
            assert_eq!(response.body.len(), REPLY);
        }
        assert_eq!(conn.reuse_count(), 99, "one keep-alive connection");
        assert_eq!(
            short.load(Ordering::Relaxed),
            1,
            "only the first handler may start from an empty buffer"
        );
        server.shutdown();
    }
}
