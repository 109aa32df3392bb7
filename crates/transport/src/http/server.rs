//! The HTTP/1.1 server (the Apache stand-in).
//!
//! An evented server with keep-alive and pipelining: connections are
//! parked on a fixed pool of event-loop workers ([`crate::reactor`]),
//! each serving as many requests as the peer cares to send before
//! `Connection: close` (from either side) or the idle budget ends it.
//! Bind one with
//! [`ServerBuilder::serve_http`](crate::ServerBuilder::serve_http); it
//! runs as a [`Server`].
//!
//! The handler has the framed server's shape: per-connection scratch
//! built by `init`, the request borrowed from the connection — a
//! [`RequestHead`] over the connection's head buffer and the body as a
//! slice of its body buffer — and a per-connection [`Reply`] to fill.
//! The body buffer stays at its high-water length and the reply buffer
//! keeps its capacity, so a warm keep-alive connection serves requests
//! without allocating or zero-filling anything.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use crate::error::{TransportError, TransportResult};
use crate::gather::{Framing, GatherSink, Gathered, ReplyConn};
use crate::http::response::HttpResponse;
use crate::metrics;
use crate::reactor::conn::HttpDriver;
use crate::reactor::overload::{Overload, OverloadConfig};
use crate::reactor::server::{ReactorConfig, Server};
use crate::tcpserver::ReplyControl;

/// Per-connection limits for an HTTP [`Server`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpServerConfig {
    /// Budget for making read progress on a request (headers + body) —
    /// and the idle allowance for a keep-alive connection between
    /// requests. A client that stalls mid-request is disconnected (and
    /// counted) when this expires; a connection that is merely idle
    /// closes quietly.
    pub read_timeout: Option<Duration>,
    /// Budget for writing the response.
    pub write_timeout: Option<Duration>,
    /// When set, `GET <metrics_path>` is answered by the server itself
    /// with the process-wide metrics in Prometheus text format
    /// ([`metrics_response`]), before the application handler sees the
    /// request.
    pub metrics_path: Option<&'static str>,
    /// Overload protection: connection cap, request shedding, and the
    /// whole-message (slow-loris) deadline. Rejected connections and
    /// shed requests are answered `503 Service Unavailable` with
    /// `Retry-After` and `Connection: close`. Default: everything off.
    pub overload: OverloadConfig,
}

/// The `/metrics` scrape response: everything registered in
/// [`obs::global`], rendered as Prometheus text exposition.
pub fn metrics_response() -> HttpResponse {
    HttpResponse::ok(
        "text/plain; version=0.0.4",
        obs::global().render().into_bytes(),
    )
}

/// A request head borrowed from the connection's head buffer: no string
/// is allocated per request.
#[derive(Debug, Clone, Copy)]
pub struct RequestHead<'a> {
    /// Request method (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Request target (origin-form path).
    pub path: &'a str,
    text: &'a str,
    headers: &'a [(Range<usize>, Range<usize>)],
}

impl<'a> RequestHead<'a> {
    /// Headers in arrival order, names and values trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone + 'a {
        let text = self.text;
        self.headers
            .iter()
            .map(move |(n, v)| (&text[n.clone()], &text[v.clone()]))
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        crate::http::find_header(self.headers(), name)
    }
}

/// How a request head declares its body.
pub(crate) enum BodyKind {
    Length(usize),
    Chunked,
}

/// A connection's parsed request head: the head text (copied out of the
/// read buffer into storage the connection reuses) and the spans of its
/// parts, viewed as a [`RequestHead`].
#[derive(Default)]
pub(crate) struct ParsedHead {
    text: String,
    method: Range<usize>,
    path: Range<usize>,
    headers: Vec<(Range<usize>, Range<usize>)>,
    /// The request's `Connection:` disposition (RFC 7230 §6).
    pub(crate) keep_alive: bool,
}

impl ParsedHead {
    /// Parse a request head (request line and headers, without the blank
    /// line) into this storage, returning how its body is delimited.
    pub(crate) fn parse(&mut self, head: &[u8]) -> TransportResult<BodyKind> {
        let head = std::str::from_utf8(head).map_err(|_| TransportError::BadHttp {
            what: "request head is not UTF-8".into(),
        })?;
        self.text.clear();
        self.text.push_str(head);
        self.headers.clear();
        let text = self.text.as_str();
        let span = |part: &str| {
            let start = part.as_ptr() as usize - text.as_ptr() as usize;
            start..start + part.len()
        };
        let mut lines = text.split("\r\n");
        let first = lines.next().unwrap_or("");
        let mut parts = first.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m, p, v),
            _ => {
                return Err(TransportError::BadHttp {
                    what: format!("bad request line {first:?}"),
                })
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(TransportError::BadHttp {
                what: format!("unsupported version {version:?}"),
            });
        }
        (self.method, self.path) = (span(method), span(path));
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| TransportError::BadHttp {
                    what: format!("header line without a colon: {line:?}"),
                })?;
            if self.headers.len() == crate::http::MAX_HEADERS {
                return Err(TransportError::BadHttp {
                    what: "too many headers".into(),
                });
            }
            self.headers.push((span(name.trim()), span(value.trim())));
        }
        let head = self.view();
        let keep_alive = crate::http::keep_alive_disposition(version == "HTTP/1.1", head.headers());
        let body = if crate::http::body_is_chunked(head.headers()) {
            BodyKind::Chunked
        } else {
            match head.header("Content-Length") {
                Some(v) => BodyKind::Length(v.parse().map_err(|_| TransportError::BadHttp {
                    what: format!("bad Content-Length {v:?}"),
                })?),
                None => BodyKind::Length(0),
            }
        };
        self.keep_alive = keep_alive;
        Ok(body)
    }

    /// The parsed head, borrowed.
    pub(crate) fn view(&self) -> RequestHead<'_> {
        RequestHead {
            method: &self.text[self.method.clone()],
            path: &self.text[self.path.clone()],
            text: &self.text,
            headers: &self.headers,
        }
    }
}

/// A connection's reply, filled by the handler: `200 OK` with no headers
/// and an empty body when the handler starts. The connection keeps it
/// across requests, so a handler that writes into [`body`](Reply::body)
/// reuses the previous reply's capacity.
#[derive(Debug)]
pub struct Reply {
    status: u16,
    reason: String,
    /// Header lines as they go on the wire (`Name: value\r\n`).
    headers: Vec<u8>,
    /// The handler asked for `Connection: close`.
    close: bool,
    /// The reply body.
    pub body: Vec<u8>,
}

impl Default for Reply {
    fn default() -> Reply {
        Reply {
            status: 200,
            reason: "OK".into(),
            headers: Vec::new(),
            close: false,
            body: Vec::new(),
        }
    }
}

impl Reply {
    /// Set the status line.
    pub fn set_status(&mut self, status: u16, reason: &str) {
        self.status = status;
        self.reason.clear();
        self.reason.push_str(reason);
    }

    /// Add a header. `Content-Length` is the server's to write and is
    /// dropped; a `Connection:` header with a `close` token closes the
    /// connection after this reply (the server writes the one
    /// `Connection:` header itself, stating what it will do).
    pub fn header(&mut self, name: &str, value: &str) {
        if name.eq_ignore_ascii_case("connection") {
            self.close |= crate::http::wants_close([(name, value)].into_iter());
        } else if !name.eq_ignore_ascii_case("content-length") {
            crate::http::push_header(&mut self.headers, name, value);
        }
    }

    /// Replace the whole reply with `response`.
    pub fn respond(&mut self, response: HttpResponse) {
        self.set_status(response.status, &response.reason);
        self.headers.clear();
        self.close = false;
        for (name, value) in &response.headers {
            self.header(name, value);
        }
        self.body = response.body;
    }

    /// Back to `200 OK`, no headers, empty body (capacity kept).
    pub(crate) fn reset(&mut self) {
        self.set_status(200, "OK");
        self.headers.clear();
        self.close = false;
        self.body.clear();
    }

    /// Does the handler want the connection closed after this reply?
    pub(crate) fn wants_close(&self) -> bool {
        self.close
    }

    /// The wire head into `head` (contents replaced): status line,
    /// headers, `Content-Length` and one `Connection:` header.
    pub(crate) fn write_head(&self, keep_alive: bool, head: &mut Vec<u8>) {
        self.write_head_with(self.body.len(), &[], keep_alive, head);
    }

    /// [`write_head`](Reply::write_head) for a body of `len` bytes, with
    /// `extra` headers after this reply's own (`Content-Length` and
    /// `Connection:` among them dropped: those are the server's).
    fn write_head_with(
        &self,
        len: usize,
        extra: &[(&str, &str)],
        keep_alive: bool,
        head: &mut Vec<u8>,
    ) {
        head.clear();
        crate::http::push_status_line(head, self.status, &self.reason);
        head.extend_from_slice(&self.headers);
        for &(name, value) in extra {
            if !name.eq_ignore_ascii_case("content-length") && !name.eq_ignore_ascii_case("connection")
            {
                crate::http::push_header(head, name, value);
            }
        }
        crate::http::push_framing(head, Some(len), keep_alive);
    }

    /// Start sending this reply with a `len`-byte body that goes to the
    /// socket from the handler's memory (see [`crate::gather`]): the
    /// head — this reply's status and headers as they stand now, then
    /// `extra`, then `Content-Length: len` — goes out with the first
    /// piece handed to the returned sink, and [`body`](Reply::body) is
    /// not sent. `None` — and nothing staged — when `ctl` is not an HTTP
    /// connection's, a gather was already started, or `len` is over
    /// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN).
    pub fn gather<'s>(
        &self,
        ctl: &'s mut ReplyControl<'_>,
        len: usize,
        extra: &[(&str, &str)],
    ) -> Option<GatherSink<'s>> {
        let ReplyConn {
            io,
            framing: Framing::Http { head, keep_alive },
            spill,
            gathered,
        } = ctl.conn.as_mut()?
        else {
            return None;
        };
        if gathered.started || len > crate::MAX_FRAME_LEN {
            return None;
        }
        let keep_alive = *keep_alive && !self.close;
        self.write_head_with(len, extra, keep_alive, head);
        *gathered = Gathered {
            started: true,
            len,
            framing_len: head.len(),
            keep_alive,
            ..Gathered::default()
        };
        Some(GatherSink {
            io: &mut **io,
            framing: &head[..],
            spill,
            gathered,
        })
    }
}

/// The one HTTP bind, behind
/// [`ServerBuilder::serve_http`](crate::ServerBuilder::serve_http).
pub(crate) fn bind_http_inner<S, I, H>(
    addr: &str,
    config: HttpServerConfig,
    stream_factory: Option<crate::http::streaming::StreamFactory>,
    init: I,
    handler: H,
) -> TransportResult<Server>
where
    S: 'static,
    I: Fn() -> S + Send + Sync + 'static,
    H: Fn(&mut S, &RequestHead<'_>, &[u8], &mut Reply, &mut ReplyControl<'_>)
        + Send
        + Sync
        + 'static,
{
    let m = metrics::http_server();
    let handler = Arc::new(handler);
    let metrics_path = config.metrics_path;
    // The canned wire bytes a connection rejected at the cap receives:
    // a complete 503 with Retry-After, honest `Connection: close`.
    let reject = HttpResponse::service_unavailable(config.overload.retry_after_hint);
    let mut reject_wire = Vec::with_capacity(256);
    reject.write_head(Some(reject.body.len()), false, &mut reject_wire);
    reject_wire.extend_from_slice(&reject.body);
    let overload = Arc::new(Overload::new(
        &config.overload,
        Some(Arc::<[u8]>::from(reject_wire)),
        None,
    ));
    let driver_overload = Arc::clone(&overload);
    Server::start(
        addr,
        ReactorConfig {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            transport: "http",
            metrics: m,
            injector: None,
            overload,
        },
        Arc::new(move || {
            Box::new(HttpDriver::new(
                init(),
                Arc::clone(&handler),
                m,
                metrics_path,
                Arc::clone(&driver_overload),
                stream_factory.clone(),
            )) as Box<dyn crate::reactor::conn::ConnDriver>
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client::{http_get, send_request};
    use crate::http::request::HttpRequest;
    use crate::ServerBuilder;
    use std::io::BufReader;
    use std::net::TcpStream;

    #[test]
    fn serves_concurrent_requests() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                |(), head, _body, reply, _ctl| reply.body.extend_from_slice(head.path.as_bytes()),
            )
            .unwrap();
        let addr = server.local_addr().to_string();
        crossbeam::thread::scope(|s| {
            let mut joins = Vec::new();
            for i in 0..8 {
                let addr = addr.clone();
                joins.push(s.spawn(move |_| {
                    let path = format!("/req/{i}");
                    assert_eq!(http_get(&addr, &path).unwrap(), path.as_bytes());
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
    fn malformed_request_gets_400() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|| (), |(), _head, _body, _reply, _ctl| {})
            .unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        use std::io::Write;
        stream.write_all(b"GARBAGE REQUEST LINE\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let resp = HttpResponse::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|| (), |(), _head, _body, _reply, _ctl| {})
            .unwrap();
        let addr = server.local_addr().to_string();
        assert!(send_request(&addr, &HttpRequest::get("/")).is_ok());
        server.shutdown();
        // A second server can immediately rebind a fresh ephemeral port.
        let server2 = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|| (), |(), _head, _body, _reply, _ctl| {})
            .unwrap();
        drop(server2); // Drop also shuts down cleanly.
    }

    #[test]
    fn one_shot_clients_still_get_connection_close() {
        // The stock client helpers say `Connection: close`; the server
        // must honor it and say so in its own response header.
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|| (), |(), _head, _body, reply, _ctl| reply.body.push(b'x'))
            .unwrap();
        let addr = server.local_addr().to_string();
        let resp = send_request(&addr, &HttpRequest::get("/")).unwrap();
        assert_eq!(resp.header("connection"), Some("close"));
        server.shutdown();
    }

    /// An echo server: the reply body is the request body.
    fn echo_server() -> Server {
        ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                |(), _head, body, reply, _ctl| reply.body.extend_from_slice(body),
            )
            .unwrap()
    }

    /// The server twin of `reused_buffer_body_reads_carry_no_stale_tail`:
    /// large, tiny, empty, half and large bodies through one keep-alive
    /// connection's high-water body buffer, sent both with
    /// `Content-Length` and chunked. Each handler sees exactly its own
    /// body, with no tail left from a longer earlier one.
    #[test]
    fn keep_alive_bodies_carry_no_stale_tail() {
        use crate::http::client::HttpConnection;

        let server = echo_server();
        let mut conn = HttpConnection::new(&server.local_addr().to_string());
        let mut response = HttpResponse::empty();
        for body in crate::framed::tests::reply_sequence() {
            let request = HttpRequest::post("/", "application/octet-stream", body);
            conn.exchange_into(&request, &mut response).unwrap();
            assert!(
                response.body == request.body,
                "{}-byte sized body",
                request.body.len()
            );

            conn.stream_begin(&request).unwrap();
            for part in request.body.chunks(64 * 1024) {
                conn.stream_send_part(part).unwrap();
            }
            conn.stream_finish_send().unwrap();
            assert!(
                !conn.stream_read_head(&mut response).unwrap(),
                "buffered reply"
            );
            assert!(
                response.body == request.body,
                "{}-byte chunked body",
                request.body.len()
            );
        }
        assert_eq!(conn.reuse_count(), 9, "one keep-alive connection");
        server.shutdown();
    }

    /// A head sent one byte per write and a body sent in small writes
    /// with pauses: the driver runs out of input mid-head and mid-body
    /// (`WouldBlock`) many times, resumes each time, and the handler sees
    /// the exact bytes.
    #[test]
    fn trickled_requests_arrive_intact() {
        use std::io::Write;
        use std::time::Duration;

        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let body: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        let head = format!(
            "POST /trickle HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        for byte in head.as_bytes() {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
        }
        for piece in body.chunks(97) {
            stream.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let response = HttpResponse::read_from(&mut BufReader::new(stream)).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body == body, "the echoed body matches");
        server.shutdown();
    }
}
