//! HTTP client helpers (the libcurl stand-in) and the keep-alive
//! [`HttpConnection`].

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::deadline::Timeouts;
use crate::error::{TransportError, TransportResult};
use crate::framed::{connect_stream, BodySink};
use crate::http::chunked::{self, ChunkDecoder};
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;

/// A persistent HTTP/1.1 client connection with keep-alive reuse.
///
/// Requests go out with `Connection: keep-alive`; the socket is kept for
/// the next exchange whenever the server's response promises reuse
/// (explicit `Connection: keep-alive` — a server that says nothing, or
/// `close`, gets a fresh connection next time). Connects are lazy, so
/// constructing one costs nothing until the first exchange.
///
/// **Stale-connection handling.** A kept socket can die between
/// exchanges (server restarted, idle timeout fired). If that surfaces
/// before any response byte arrives — a write-side pipe error or EOF at
/// byte zero — the request provably never reached a handler, so it is
/// resent once on a fresh connection. Errors after the first response
/// byte, and timeouts, are never resent here: whether the exchange is
/// replayable at all is the retry layer's call, not the socket cache's.
///
/// A warm exchange allocates nothing: the request head is written from a
/// reused buffer, the response head is parsed into the response's reused
/// strings, and socket timeouts are set only when they change.
#[derive(Debug)]
pub struct HttpConnection {
    addr: String,
    timeouts: Timeouts,
    stream: Option<BufReader<TcpStream>>,
    /// The (read, write) timeouts set on the kept socket.
    applied: (Option<Duration>, Option<Duration>),
    /// Reused request-head buffer.
    head: Vec<u8>,
    reuses: u64,
    phase: StreamPhase,
}

/// Where a chunked (streaming) exchange stands on this connection.
#[derive(Debug)]
enum StreamPhase {
    /// No streaming exchange in flight; plain exchanges are fine.
    Idle,
    /// Chunked request head written; parts may be sent.
    Sending,
    /// Chunked reply head read; parts may be pulled. `keep` caches the
    /// response's connection disposition until the terminator arrives.
    Receiving { dec: ChunkDecoder, keep: bool },
}

/// Why one wire attempt failed: a provably-unstarted exchange on a stale
/// kept socket (safe to resend), or a real error.
enum Attempt {
    Stale,
    Fatal(TransportError),
}

impl HttpConnection {
    /// A lazily-connected keep-alive client for `addr` (no timeouts).
    pub fn new(addr: &str) -> HttpConnection {
        HttpConnection {
            addr: addr.to_owned(),
            timeouts: Timeouts::none(),
            stream: None,
            applied: (None, None),
            head: Vec::new(),
            reuses: 0,
            phase: StreamPhase::Idle,
        }
    }

    /// Set the per-phase budgets applied to every exchange (chainable).
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> HttpConnection {
        self.timeouts = timeouts;
        self
    }

    /// Is a socket currently kept for reuse?
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Exchanges that reused a kept socket (diagnostics).
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }

    /// Drop the kept socket (the next exchange reconnects). Abandons any
    /// streaming exchange in flight — the socket cannot be reused with
    /// half a chunked message on it.
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.phase = StreamPhase::Idle;
    }

    /// Send `request` and return the response.
    pub fn exchange(&mut self, request: &HttpRequest) -> TransportResult<HttpResponse> {
        let mut response = HttpResponse::empty();
        self.exchange_into(request, &mut response)?;
        Ok(response)
    }

    /// [`exchange`](HttpConnection::exchange) into a reusable response
    /// value (body capacity kept across calls).
    pub fn exchange_into(
        &mut self,
        request: &HttpRequest,
        response: &mut HttpResponse,
    ) -> TransportResult<()> {
        let timeouts = self.timeouts;
        self.exchange_with_into(request, &[&request.body], &timeouts, response)
    }

    /// [`exchange_into`](HttpConnection::exchange_into) with the body
    /// borrowed from the caller as `body` concatenated (`request.body`
    /// is ignored; `Content-Length` is the parts' total) and per-call
    /// budgets — the hook deadline-aware callers use to clamp each
    /// exchange to the remaining end-to-end budget. The head and the
    /// body parts go out in one gather write, so the payload is never
    /// copied into the request; a resend after a stale kept socket
    /// writes the same parts.
    pub fn exchange_with_into(
        &mut self,
        request: &HttpRequest,
        body: &[&[u8]],
        timeouts: &Timeouts,
        response: &mut HttpResponse,
    ) -> TransportResult<()> {
        self.exchange_with(request, body, timeouts, response, None)
    }

    /// [`exchange_with_into`](HttpConnection::exchange_with_into) with a
    /// success body read through `sink` as it arrives (see
    /// [`HttpResponse::read_to`]); `response` gets the head, and the body
    /// of any other status.
    pub fn exchange_with_to(
        &mut self,
        request: &HttpRequest,
        body: &[&[u8]],
        timeouts: &Timeouts,
        response: &mut HttpResponse,
        sink: &mut dyn BodySink,
    ) -> TransportResult<()> {
        self.exchange_with(request, body, timeouts, response, Some(sink))
    }

    fn exchange_with<'s>(
        &mut self,
        request: &HttpRequest,
        body: &[&[u8]],
        timeouts: &Timeouts,
        response: &mut HttpResponse,
        mut sink: Option<&mut (dyn BodySink + 's)>,
    ) -> TransportResult<()> {
        if !matches!(self.phase, StreamPhase::Idle) {
            // A plain exchange over a half-finished chunked message would
            // desynchronize the connection; start fresh instead.
            self.disconnect();
        }
        let mut resent = false;
        loop {
            let reused = self.stream.is_some();
            self.connected(timeouts)?;
            let reader = self.stream.as_mut().expect("just connected");
            let attempt = try_exchange(
                reader,
                request,
                body,
                timeouts,
                response,
                sink.as_deref_mut(),
                &mut self.head,
            );
            match attempt {
                Ok(()) => {
                    if crate::http::response_keeps_alive(crate::http::pairs(&response.headers)) {
                        if reused {
                            self.reuses += 1;
                        }
                    } else {
                        self.stream = None;
                    }
                    return Ok(());
                }
                Err(Attempt::Stale) if reused && !resent => {
                    // The kept socket had died; nothing reached a
                    // handler, so one resend on a fresh connection.
                    self.stream = None;
                    resent = true;
                }
                Err(Attempt::Stale) => {
                    self.stream = None;
                    return Err(TransportError::ConnectionClosed);
                }
                Err(Attempt::Fatal(e)) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
    }

    /// The kept socket, or a fresh connection, carrying the per-call
    /// budgets; a kept socket's timeouts are set only when they change.
    fn connected(&mut self, timeouts: &Timeouts) -> TransportResult<&mut BufReader<TcpStream>> {
        let fresh = self.stream.is_none();
        if fresh {
            let stream = connect_stream(&self.addr, timeouts.connect)?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("just connected");
        if fresh || self.applied != (timeouts.read, timeouts.write) {
            let socket = reader.get_ref();
            socket.set_read_timeout(timeouts.read)?;
            socket.set_write_timeout(timeouts.write)?;
            self.applied = (timeouts.read, timeouts.write);
        }
        Ok(reader)
    }

    // --- Streaming (chunked) exchanges -----------------------------------
    //
    // A streaming exchange walks the connection through a small state
    // machine instead of one `exchange` call:
    //
    // ```text
    // stream_begin → stream_send_part* → stream_finish_send
    //   → stream_read_head → (stream_next_part_into* | buffered body)
    // ```
    //
    // Only the head write may transparently reconnect (nothing
    // irreplayable has been sent at that point). Any failure after the
    // first part is fatal for this exchange and poisons the socket — the
    // retry decision belongs to the caller, who knows whether the
    // operation is replayable.

    /// Start a chunked (streaming) request: write the head with
    /// `Transfer-Encoding: chunked`. `request.body` is ignored — the
    /// payload goes out via [`stream_send_part`](Self::stream_send_part).
    pub fn stream_begin(&mut self, request: &HttpRequest) -> TransportResult<()> {
        let timeouts = self.timeouts;
        self.stream_begin_with(request, &timeouts)
    }

    /// [`stream_begin`](Self::stream_begin) with per-call budgets.
    pub fn stream_begin_with(
        &mut self,
        request: &HttpRequest,
        timeouts: &Timeouts,
    ) -> TransportResult<()> {
        if !matches!(self.phase, StreamPhase::Idle) {
            self.disconnect();
        }
        let mut resent = false;
        loop {
            let reused = self.stream.is_some();
            let reader = self.connected(timeouts)?;
            match request.write_chunked_head_to(&mut reader.get_ref(), true) {
                Ok(()) => {
                    if reused {
                        self.reuses += 1;
                    }
                    self.phase = StreamPhase::Sending;
                    return Ok(());
                }
                Err(TransportError::Io(io)) if TransportError::io_is_timeout(&io) => {
                    self.stream = None;
                    return Err(TransportError::TimedOut {
                        elapsed: std::time::Duration::ZERO,
                        budget: timeouts.write.unwrap_or_default(),
                    });
                }
                Err(TransportError::Io(io)) if is_stale_pipe(&io) && reused && !resent => {
                    self.stream = None;
                    resent = true;
                }
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
    }

    /// Send one message part as one chunk. Empty parts are skipped (an
    /// empty chunk would terminate the body).
    pub fn stream_send_part(&mut self, part: &[u8]) -> TransportResult<()> {
        if !matches!(self.phase, StreamPhase::Sending) {
            return Err(TransportError::BadHttp {
                what: "stream_send_part outside a streaming send".into(),
            });
        }
        if part.is_empty() {
            return Ok(());
        }
        let reader = self.stream.as_mut().expect("sending phase has a socket");
        if let Err(e) = chunked::write_chunk_to(&mut reader.get_ref(), part) {
            self.disconnect();
            return Err(e);
        }
        Ok(())
    }

    /// Terminate the request body (zero-length chunk) and flush.
    pub fn stream_finish_send(&mut self) -> TransportResult<()> {
        use std::io::Write as _;

        if !matches!(self.phase, StreamPhase::Sending) {
            return Err(TransportError::BadHttp {
                what: "stream_finish_send outside a streaming send".into(),
            });
        }
        let reader = self.stream.as_mut().expect("sending phase has a socket");
        let mut socket = reader.get_ref();
        if let Err(e) = socket
            .write_all(b"0\r\n\r\n")
            .and_then(|()| socket.flush())
        {
            self.disconnect();
            return Err(TransportError::Io(e));
        }
        Ok(())
    }

    /// Read the response head. Returns `true` when the reply body is
    /// chunked — pull parts with
    /// [`stream_next_part_into`](Self::stream_next_part_into) until it
    /// returns `false`. Returns `false` when the reply was buffered
    /// (e.g. a fault): the whole body is already in `response.body` and
    /// the exchange is complete.
    pub fn stream_read_head(&mut self, response: &mut HttpResponse) -> TransportResult<bool> {
        if !matches!(self.phase, StreamPhase::Sending) {
            return Err(TransportError::BadHttp {
                what: "stream_read_head outside a streaming exchange".into(),
            });
        }
        let reader = self.stream.as_mut().expect("sending phase has a socket");
        if let Err(e) = HttpResponse::read_head_into(reader, response) {
            self.disconnect();
            return Err(e);
        }
        let keep = crate::http::response_keeps_alive(crate::http::pairs(&response.headers));
        if crate::http::body_is_chunked(crate::http::pairs(&response.headers)) {
            self.phase = StreamPhase::Receiving {
                dec: ChunkDecoder::new(),
                keep,
            };
            response.body.clear();
            return Ok(true);
        }
        let result = crate::http::read_body_into(reader, &response.headers, &mut response.body);
        self.phase = StreamPhase::Idle;
        match result {
            Ok(()) => {
                if !keep {
                    self.stream = None;
                }
                Ok(false)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Pull the next reply part (one chunk) into `out` (contents
    /// replaced). Returns `false` once the terminator has been consumed —
    /// the exchange is complete and the socket is kept per the response's
    /// connection disposition. Parts larger than `max` are refused.
    pub fn stream_next_part_into(
        &mut self,
        out: &mut Vec<u8>,
        max: usize,
    ) -> TransportResult<bool> {
        let StreamPhase::Receiving { ref mut dec, keep } = self.phase else {
            return Err(TransportError::BadHttp {
                what: "stream_next_part_into outside a streaming reply".into(),
            });
        };
        let reader = self.stream.as_mut().expect("receiving phase has a socket");
        match chunked::read_one_chunk_into(reader, dec, out, max) {
            Ok(true) => Ok(true),
            Ok(false) => {
                self.phase = StreamPhase::Idle;
                if !keep {
                    self.stream = None;
                }
                Ok(false)
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }
}

/// One wire attempt on an established connection, building the request
/// head in `head`; the response body goes to `sink` when there is one.
fn try_exchange<'s>(
    reader: &mut BufReader<TcpStream>,
    request: &HttpRequest,
    body: &[&[u8]],
    timeouts: &Timeouts,
    response: &mut HttpResponse,
    sink: Option<&mut (dyn BodySink + 's)>,
    head: &mut Vec<u8>,
) -> Result<(), Attempt> {
    let started = Instant::now();
    if let Err(e) = request.write_with_body(&mut reader.get_ref(), body, true, head) {
        return Err(match e {
            TransportError::Io(io) if TransportError::io_is_timeout(&io) => {
                Attempt::Fatal(TransportError::TimedOut {
                    elapsed: started.elapsed(),
                    budget: timeouts.write.unwrap_or_default(),
                })
            }
            TransportError::Io(io) if is_stale_pipe(&io) => Attempt::Stale,
            TransportError::ConnectionClosed => Attempt::Stale,
            other => Attempt::Fatal(other),
        });
    }
    // Peek before parsing: EOF (or a reset) at response byte zero means
    // the peer closed without seeing the request — the stale-socket case.
    let started = Instant::now();
    match reader.fill_buf() {
        Ok([]) => return Err(Attempt::Stale),
        Ok(_) => {}
        Err(io) if TransportError::io_is_timeout(&io) => {
            return Err(Attempt::Fatal(TransportError::TimedOut {
                elapsed: started.elapsed(),
                budget: timeouts.read.unwrap_or_default(),
            }))
        }
        Err(io) if is_stale_pipe(&io) => return Err(Attempt::Stale),
        Err(io) => return Err(Attempt::Fatal(TransportError::Io(io))),
    }
    match sink {
        Some(sink) => HttpResponse::read_to(reader, response, sink),
        None => HttpResponse::read_from_into(reader, response),
    }
    .map_err(|e| match e {
        TransportError::Io(io) if TransportError::io_is_timeout(&io) => {
            Attempt::Fatal(TransportError::TimedOut {
                elapsed: started.elapsed(),
                budget: timeouts.read.unwrap_or_default(),
            })
        }
        other => Attempt::Fatal(other),
    })
}

/// Error kinds that mean "the kept peer was already gone".
fn is_stale_pipe(io: &std::io::Error) -> bool {
    matches!(
        io.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Send one request to `addr` and read the response (one connection per
/// request, matching the servers' `Connection: close` behaviour), with no
/// time budgets.
pub fn send_request(addr: &str, request: &HttpRequest) -> TransportResult<HttpResponse> {
    send_request_with(addr, request, &Timeouts::none())
}

/// [`send_request`] with per-phase time budgets: connect failures surface
/// as [`TransportError::ConnectFailed`], read/write expiries as
/// [`TransportError::TimedOut`].
pub fn send_request_with(
    addr: &str,
    request: &HttpRequest,
    timeouts: &Timeouts,
) -> TransportResult<HttpResponse> {
    let mut response = HttpResponse::empty();
    send_request_with_into(addr, request, timeouts, &mut response)?;
    Ok(response)
}

/// [`send_request_with`], parsing the response into a reusable value
/// whose body buffer's capacity survives across calls — a client issuing
/// many similarly-sized requests receives allocation-free (bar headers).
pub fn send_request_with_into(
    addr: &str,
    request: &HttpRequest,
    timeouts: &Timeouts,
    response: &mut HttpResponse,
) -> TransportResult<()> {
    let mut stream = connect_stream(addr, timeouts.connect)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeouts.read)?;
    stream.set_write_timeout(timeouts.write)?;
    let started = Instant::now();
    request.write_to(&mut stream).map_err(|e| match e {
        TransportError::Io(io) if TransportError::io_is_timeout(&io) => TransportError::TimedOut {
            elapsed: started.elapsed(),
            budget: timeouts.write.unwrap_or_default(),
        },
        other => other,
    })?;
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    HttpResponse::read_from_into(&mut reader, response).map_err(|e| match e {
        TransportError::Io(io) if TransportError::io_is_timeout(&io) => TransportError::TimedOut {
            elapsed: started.elapsed(),
            budget: timeouts.read.unwrap_or_default(),
        },
        other => other,
    })
}

/// GET `path` from `addr`, returning the body; non-2xx is an error
/// carrying the status, a diagnostic body prefix, and any `Retry-After`.
pub fn http_get(addr: &str, path: &str) -> TransportResult<Vec<u8>> {
    let resp = send_request(addr, &HttpRequest::get(path))?;
    if !resp.is_success() {
        return Err(resp.status_error());
    }
    Ok(resp.body)
}

/// POST `body` to `path` at `addr`, returning the full response (SOAP
/// needs to read fault bodies out of 500s, so status checking is left to
/// the caller).
pub fn http_post(
    addr: &str,
    path: &str,
    content_type: &str,
    body: Vec<u8>,
) -> TransportResult<HttpResponse> {
    send_request(addr, &HttpRequest::post(path, content_type, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerBuilder;
    use std::time::Duration;

    #[test]
    fn get_and_post_against_real_server() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                |(), head, body, reply, _ctl| match (head.method, head.path) {
                    ("GET", "/hello") => reply.body.extend_from_slice(b"world"),
                    ("POST", "/echo") => reply.body.extend_from_slice(body),
                    _ => reply.respond(HttpResponse::not_found()),
                },
            )
            .unwrap();
        let addr = server.local_addr().to_string();

        assert_eq!(http_get(&addr, "/hello").unwrap(), b"world");
        let resp = http_post(&addr, "/echo", "text/plain", b"payload".to_vec()).unwrap();
        assert_eq!(resp.body, b"payload");

        let err = http_get(&addr, "/missing").unwrap_err();
        match err {
            TransportError::HttpStatus {
                status: 404,
                body_prefix,
                ..
            } => assert_eq!(body_prefix, b"not found"),
            other => panic!("expected 404 with body, got {other:?}"),
        }

        server.shutdown();
    }

    #[test]
    fn connect_failure_is_typed() {
        let err = send_request("127.0.0.1:1", &HttpRequest::get("/")).unwrap_err();
        assert!(matches!(err, TransportError::ConnectFailed { .. }), "{err:?}");
    }

    #[test]
    fn silent_server_times_out() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let err = send_request_with(
            &addr,
            &HttpRequest::get("/"),
            &Timeouts {
                connect: Some(Duration::from_secs(5)),
                read: Some(Duration::from_millis(40)),
                write: Some(Duration::from_secs(5)),
            },
        )
        .unwrap_err();
        assert!(matches!(err, TransportError::TimedOut { .. }), "{err:?}");
        let _ = hold.join();
    }
}
