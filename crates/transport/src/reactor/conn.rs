//! Per-connection state machines for the readiness loop.
//!
//! A [`ConnDriver`] owns everything about one connection except the
//! socket: parse state, request/response buffers, handler scratch. The
//! worker calls [`drive`](ConnDriver::drive) whenever the socket is (or
//! may be) ready; the driver runs its state machine until the socket
//! would block, then reports which readiness it needs next. Drivers are
//! created on the worker thread that owns them and never migrate, so
//! handler state needs no `Send` — the same property the old
//! thread-per-connection servers gave to connection-scoped scratch.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::overload::{DriveCtx, Overload};
use crate::error::{TransportError, TransportResult};
use crate::faulty::FaultingTransport;
use crate::framed::{MAX_FRAME_LEN, RECV_CHUNK};
use crate::http::chunked::{self, ChunkDecoder, ChunkEvent};
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;
use crate::http::streaming::{StreamFactory, StreamReply, StreamRequestHead, StreamSession};
use crate::metrics::ServerMetrics;
use crate::pool::BufferPool;
use crate::tcpserver::ReplyControl;

/// The socket as the driver sees it: plain, or wrapped in the
/// fault-injecting decorator (whose injected stalls surface as
/// `WouldBlock` — indistinguishable from "not ready", which on a
/// level-triggered loop simply retries the event).
pub(crate) enum ConnIo {
    Plain(TcpStream),
    Faulty(FaultingTransport<TcpStream>),
}

impl ConnIo {
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            ConnIo::Plain(s) => s.as_raw_fd(),
            ConnIo::Faulty(f) => f.get_ref().as_raw_fd(),
        }
    }
}

impl Read for ConnIo {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Plain(s) => s.read(out),
            ConnIo::Faulty(f) => f.read(out),
        }
    }
}

impl Write for ConnIo {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Plain(s) => s.write(data),
            ConnIo::Faulty(f) => f.write(data),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            ConnIo::Plain(s) => s.write_vectored(bufs),
            // The decorator has no vectored path; one slice per call keeps
            // its per-event fault accounting intact.
            ConnIo::Faulty(f) => match bufs.iter().find(|b| !b.is_empty()) {
                Some(first) => f.write(first),
                None => Ok(0),
            },
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ConnIo::Plain(s) => s.flush(),
            ConnIo::Faulty(f) => f.flush(),
        }
    }
}

/// What a driver wants from the event loop after a `drive` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wants {
    /// Wake me when the socket is readable.
    Read,
    /// Wake me when the socket is writable.
    Write,
    /// Done (clean close) — deregister and drop the connection.
    Close,
    /// Drive me again this loop iteration even without socket readiness:
    /// the driver hit its per-drive dispatch quota with more pipelined
    /// requests already buffered in user space, where epoll cannot see
    /// them. The worker re-drives these after serving every other ready
    /// connection — the fairness bound on pipelining depth.
    Again,
}

/// One `drive` outcome: the wanted readiness plus the write budget the
/// handler capped this reply to (a [`ReplyControl`] deadline becomes a
/// write *deadline* on a non-blocking socket — the loop arms it and
/// times the connection out if the peer won't drain the reply in time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub wants: Wants,
    pub write_cap: Option<Duration>,
}

impl Step {
    fn read() -> Step {
        Step {
            wants: Wants::Read,
            write_cap: None,
        }
    }

    fn write(cap: Option<Duration>) -> Step {
        Step {
            wants: Wants::Write,
            write_cap: cap,
        }
    }

    fn close() -> Step {
        Step {
            wants: Wants::Close,
            write_cap: None,
        }
    }

    fn again() -> Step {
        Step {
            wants: Wants::Again,
            write_cap: None,
        }
    }
}

/// Requests one `drive` call may serve before yielding the worker to
/// other connections. A peer that pipelines deeper than this still gets
/// every request answered — in slices, interleaved with everyone else's
/// traffic — instead of monopolizing its worker for the whole batch.
const MAX_DISPATCHES_PER_DRIVE: usize = 16;

/// A per-connection protocol state machine.
pub(crate) trait ConnDriver {
    /// Advance the state machine until the socket would block (or the
    /// dispatch quota yields). `ctx` carries the drain flag and the age
    /// of the event batch being served — the queue-delay half of the
    /// shed signal.
    fn drive(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<Step>;

    /// Is a message partially read, being handled, or partially written?
    /// Idle connections (`false`) are closed quietly on timeout or drain;
    /// in-flight ones are errors (`timed_out`) or drops (`shutdown_drop`).
    fn in_flight(&self) -> bool;
}

/// Run the handler, turning a panic into a typed connection error so one
/// poisoned request cannot take down the worker (and every other
/// connection parked on it) the way it took down a dedicated thread.
fn run_handler(f: impl FnOnce()) -> TransportResult<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| {
        TransportError::Io(std::io::Error::other("handler panicked"))
    })
}

/// Read into `buf[*filled..]`, translating the outcome for a state
/// machine: `Ok(true)` made progress, `Ok(false)` would block,
/// `Err(ConnectionClosed)` on EOF.
fn read_some(io: &mut ConnIo, buf: &mut [u8], filled: &mut usize) -> TransportResult<bool> {
    loop {
        match io.read(&mut buf[*filled..]) {
            Ok(0) => return Err(TransportError::ConnectionClosed),
            Ok(n) => {
                *filled += n;
                return Ok(true);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

// ---------------------------------------------------------------------
// Framed TCP
// ---------------------------------------------------------------------

enum FramedPhase {
    /// Reading the 4-byte length prefix (`filled` bytes so far).
    Prefix { filled: usize },
    /// Reading `expected` payload bytes into `request[..expected]`
    /// (`filled` bytes so far).
    Payload { expected: usize, filled: usize },
    /// Writing prefix + response (`written` of `4 + response.len()`).
    Write { written: usize },
}

/// The framed-TCP state machine: length-prefixed request in, handler,
/// length-prefixed response out, repeat. Mirrors the blocking
/// `FramedStream` semantics — chunk-bounded payload growth, the
/// [`MAX_FRAME_LEN`] cap before allocation, clean EOF only at a message
/// boundary — as a resumable non-blocking machine.
pub(crate) struct FramedDriver<S, H> {
    state: S,
    handler: Arc<H>,
    metrics: &'static ServerMetrics,
    overload: Arc<Overload>,
    phase: FramedPhase,
    prefix: [u8; 4],
    /// Payload buffer, kept at its high-water length so a request never
    /// pays to zero bytes an earlier request already initialized; the
    /// current request is the `expected`-byte prefix.
    request: Vec<u8>,
    response: Vec<u8>,
    out_prefix: [u8; 4],
    ctl: ReplyControl,
    /// This driver holds one unit of the inflight gauge (a dispatched
    /// request whose response write hasn't completed) — released at
    /// write-complete, or in `Drop` when the connection dies mid-write.
    holds_inflight: bool,
}

impl<S, H> FramedDriver<S, H>
where
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl),
{
    pub(crate) fn new(
        state: S,
        handler: Arc<H>,
        metrics: &'static ServerMetrics,
        overload: Arc<Overload>,
    ) -> Self {
        FramedDriver {
            state,
            handler,
            metrics,
            overload,
            phase: FramedPhase::Prefix { filled: 0 },
            prefix: [0; 4],
            request: Vec::new(),
            response: Vec::new(),
            out_prefix: [0; 4],
            ctl: ReplyControl::default(),
            holds_inflight: false,
        }
    }

    /// Shed the just-read request if the overload signal says so: the
    /// configured fault payload is staged as the response (no decode, no
    /// handler), or the connection closes when no payload was configured.
    /// Returns the step to take, or `None` to admit the request.
    fn maybe_shed(&mut self, ctx: &DriveCtx) -> Option<Option<Step>> {
        let inflight_with_me = self.metrics.requests_inflight.get() as i64 + 1;
        let reason = self.overload.should_shed(inflight_with_me, ctx.batch_age())?;
        crate::metrics::count_shed("tcp", reason);
        match self.overload.shed_payload.clone() {
            Some(payload) => {
                self.response.clear();
                self.response.extend_from_slice(&payload);
                self.ctl.reset();
                self.out_prefix = (self.response.len() as u32).to_be_bytes();
                self.phase = FramedPhase::Write { written: 0 };
                Some(None)
            }
            None => Some(Some(Step::close())),
        }
    }

    fn dispatch(&mut self, len: usize) -> TransportResult<()> {
        self.metrics.bytes_in.add(len as u64);
        self.metrics.requests.inc();
        self.metrics.requests_inflight.add(1.0);
        self.holds_inflight = true;
        self.response.clear();
        self.ctl.reset();
        let started = Instant::now();
        let (state, handler) = (&mut self.state, &self.handler);
        let (request, response, ctl) = (&self.request[..len], &mut self.response, &mut self.ctl);
        if let Err(e) = run_handler(|| handler(state, request, response, ctl)) {
            crate::metrics::count_handler_panic("tcp");
            return Err(e);
        }
        let elapsed = started.elapsed();
        self.metrics.handler_latency.observe_duration(elapsed);
        self.overload.observe_handler_latency(elapsed);
        if self.response.len() > MAX_FRAME_LEN {
            return Err(TransportError::FrameTooLarge {
                declared: self.response.len() as u64,
            });
        }
        self.out_prefix = (self.response.len() as u32).to_be_bytes();
        self.phase = FramedPhase::Write { written: 0 };
        Ok(())
    }
}

impl<S, H> Drop for FramedDriver<S, H> {
    fn drop(&mut self) {
        if self.holds_inflight {
            self.metrics.requests_inflight.add(-1.0);
        }
    }
}

impl<S, H> ConnDriver for FramedDriver<S, H>
where
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl),
{
    fn drive(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<Step> {
        let mut served = 0usize;
        loop {
            match &mut self.phase {
                FramedPhase::Prefix { filled } => {
                    while *filled < 4 {
                        let at_boundary = *filled == 0;
                        match read_some(io, &mut self.prefix, filled) {
                            Ok(true) => {}
                            Ok(false) => return Ok(Step::read()),
                            Err(TransportError::ConnectionClosed) if at_boundary => {
                                return Ok(Step::close());
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    let expected = u32::from_be_bytes(self.prefix) as usize;
                    if expected > MAX_FRAME_LEN {
                        return Err(TransportError::FrameTooLarge {
                            declared: expected as u64,
                        });
                    }
                    self.phase = FramedPhase::Payload {
                        expected,
                        filled: 0,
                    };
                }
                FramedPhase::Payload { expected, filled } => {
                    let expected = *expected;
                    // Chunk-bounded growth, resumable across WouldBlock:
                    // the buffer only grows (zero-filled) up to one chunk
                    // past the bytes received, and is never shrunk, so
                    // only bytes no earlier request reached are zeroed.
                    while *filled < expected {
                        let target = expected.min(*filled + RECV_CHUNK);
                        if self.request.len() < target {
                            self.request.resize(target, 0);
                        }
                        match read_some(io, &mut self.request[..target], filled) {
                            Ok(true) => {}
                            Ok(false) => return Ok(Step::read()),
                            Err(e) => return Err(e),
                        }
                    }
                    // The payload is complete but not yet decoded — the
                    // cheapest point to turn the request away.
                    match self.maybe_shed(ctx) {
                        Some(Some(step)) => return Ok(step),
                        Some(None) => {}
                        None => self.dispatch(expected)?,
                    }
                }
                FramedPhase::Write { written } => {
                    let total = 4 + self.response.len();
                    while *written < total {
                        let bufs = if *written < 4 {
                            [
                                IoSlice::new(&self.out_prefix[*written..]),
                                IoSlice::new(&self.response),
                            ]
                        } else {
                            [
                                IoSlice::new(&self.response[*written - 4..]),
                                IoSlice::new(&[]),
                            ]
                        };
                        match io.write_vectored(&bufs) {
                            Ok(0) => {
                                return Err(TransportError::Io(std::io::Error::new(
                                    std::io::ErrorKind::WriteZero,
                                    "socket accepted no bytes",
                                )))
                            }
                            Ok(n) => *written += n,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(Step::write(self.ctl.write_budget()));
                            }
                            Err(e) => return Err(TransportError::Io(e)),
                        }
                    }
                    self.metrics.bytes_out.add(self.response.len() as u64);
                    if self.holds_inflight {
                        self.metrics.requests_inflight.add(-1.0);
                        self.holds_inflight = false;
                    }
                    if ctx.draining {
                        return Ok(Step::close());
                    }
                    self.phase = FramedPhase::Prefix { filled: 0 };
                    served += 1;
                    if served >= MAX_DISPATCHES_PER_DRIVE {
                        // Yield the worker; any further pipelined frames
                        // sit in the kernel buffer, which level-triggered
                        // epoll keeps reporting as readable.
                        return Ok(Step::read());
                    }
                }
            }
        }
    }

    fn in_flight(&self) -> bool {
        !matches!(self.phase, FramedPhase::Prefix { filled: 0 })
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1
// ---------------------------------------------------------------------

/// Cap on accumulated header bytes before a request is rejected — a peer
/// that trickles an endless head can't grow the buffer unboundedly.
const MAX_HEAD_LEN: usize = 64 * 1024;

/// Per-read append granularity for the head buffer.
const HEAD_READ_CHUNK: usize = 8 * 1024;

/// Cap on one streamed part (one chunk) — a hostile peer declaring a
/// giant chunk is refused before the part buffer grows to match.
const MAX_STREAM_PART: usize = 4 * 1024 * 1024;

/// How far ahead of the socket the streaming reply path will pull parts:
/// once at least this many staged bytes are waiting to be written, no
/// more parts are pulled until the peer drains them — the backpressure
/// bound that keeps a streamed reply O(window) regardless of reply size.
const STREAM_WRITE_WINDOW: usize = 64 * 1024;

enum HttpPhase {
    /// Accumulating head bytes until the blank line.
    Head,
    /// Reading `remaining` body bytes for the parsed request.
    Body { remaining: usize },
    /// Reading a chunked request body. `streaming` feeds each completed
    /// chunk to the stream session as one part; otherwise the body is
    /// de-chunked into the ordinary request buffer for buffered dispatch.
    ChunkedBody { streaming: bool },
    /// Writing `head_out` + `body_out` (`written` bytes done).
    Write { written: usize },
    /// Writing a streamed (chunked) reply: flush `head_out` + the staged
    /// chunk batch in `body_out`, refill from the session when drained,
    /// finish once `source_done` and everything is on the wire.
    StreamWrite { written: usize, source_done: bool },
}

/// A request head parsed off the connection buffer, waiting for its body.
struct PendingRequest {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    keep_alive: bool,
}

/// How a request head declares its body.
enum BodyKind {
    Length(usize),
    Chunked,
}

/// The HTTP/1.1 state machine with keep-alive and pipelining.
///
/// Requests are parsed straight out of a connection read buffer, so a
/// pipelined batch is served back-to-back without extra socket reads;
/// while a response write is backpressured the machine stops consuming
/// input (no unbounded buffering of a client that won't read). The
/// `Connection:` disposition follows RFC 7230 §6: 1.1 defaults to
/// keep-alive, 1.0 to close, any `close` token (including conflicting
/// duplicate headers) closes conservatively.
pub(crate) struct HttpDriver<H> {
    handler: Arc<H>,
    metrics: &'static ServerMetrics,
    metrics_path: Option<&'static str>,
    pool: Arc<BufferPool>,
    overload: Arc<Overload>,
    phase: HttpPhase,
    read_buf: Vec<u8>,
    pending: Option<PendingRequest>,
    body: Vec<u8>,
    head_out: Vec<u8>,
    body_out: Vec<u8>,
    /// Disposition of the response currently being written.
    keep_alive: bool,
    /// The oversize-request path counts `frame_too_large` once per
    /// rejection, like the blocking server did.
    ctl: ReplyControl,
    /// One unit of the inflight gauge held by a dispatched request whose
    /// response hasn't fully gone out (released in `Drop` if the
    /// connection dies mid-write).
    holds_inflight: bool,
    /// Per-request streaming decision hook (None = always buffered).
    stream_factory: Option<StreamFactory>,
    /// The live stream session while a chunked exchange is in flight.
    session: Option<Box<dyn StreamSession>>,
    /// Chunked-body parse state (reset when a chunked body starts).
    chunk_dec: ChunkDecoder,
}

impl<H> HttpDriver<H>
where
    H: Fn(&HttpRequest, &mut ReplyControl) -> HttpResponse,
{
    pub(crate) fn new(
        handler: Arc<H>,
        metrics: &'static ServerMetrics,
        metrics_path: Option<&'static str>,
        pool: Arc<BufferPool>,
        overload: Arc<Overload>,
        stream_factory: Option<StreamFactory>,
    ) -> Self {
        let body = pool.take();
        HttpDriver {
            handler,
            metrics,
            metrics_path,
            pool,
            overload,
            phase: HttpPhase::Head,
            read_buf: Vec::new(),
            pending: None,
            body,
            head_out: Vec::new(),
            body_out: Vec::new(),
            keep_alive: false,
            ctl: ReplyControl::default(),
            holds_inflight: false,
            stream_factory,
            session: None,
            chunk_dec: ChunkDecoder::new(),
        }
    }

    /// Append socket bytes to the head buffer. `Ok(true)` = progress.
    fn fill_head_buf(&mut self, io: &mut ConnIo) -> TransportResult<bool> {
        let have = self.read_buf.len();
        self.read_buf.resize(have + HEAD_READ_CHUNK, 0);
        let mut filled = have;
        let outcome = read_some(io, &mut self.read_buf, &mut filled);
        self.read_buf.truncate(filled);
        outcome
    }

    /// Queue `response` for writing and flip to the write phase.
    fn stage_response(&mut self, response: HttpResponse) {
        // A handler that explicitly says `Connection: close` wins over
        // the negotiated disposition; the serialized header always states
        // what the server will actually do.
        if crate::http::wants_close(&response.headers) {
            self.keep_alive = false;
        }
        response.serialize_head(self.keep_alive, &mut self.head_out);
        // The new body takes the previous one's place; that one goes back
        // to the pool, unless it already did once it was on the wire.
        recycle(&self.pool, std::mem::replace(&mut self.body_out, response.body));
        self.phase = HttpPhase::Write { written: 0 };
    }

    /// Parse one request head out of `read_buf` if the blank line has
    /// arrived. `Ok(true)` = a request is pending (or a parse-error,
    /// reject, or shed response was staged); `Ok(false)` = need more
    /// bytes.
    fn try_parse_head(&mut self, ctx: &DriveCtx) -> TransportResult<bool> {
        let Some(head_end) = find_head_end(&self.read_buf) else {
            if self.read_buf.len() > MAX_HEAD_LEN {
                // Reply like the blocking server replied to any malformed
                // request, then close.
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request("request head too large"));
            }
            return Ok(self.read_buf.len() > MAX_HEAD_LEN);
        };
        let parsed = parse_request_head(&self.read_buf[..head_end]);
        self.read_buf.drain(..head_end + 4);
        match parsed {
            Ok((pending, BodyKind::Chunked)) => {
                // Shed chunked requests at head-parse time like
                // length-delimited ones.
                let inflight_with_me = self.metrics.requests_inflight.get() as i64 + 1;
                if let Some(reason) = self
                    .overload
                    .should_shed(inflight_with_me, ctx.batch_age())
                {
                    crate::metrics::count_shed("http", reason);
                    self.keep_alive = false;
                    self.stage_response(HttpResponse::service_unavailable(
                        self.overload.retry_after_hint,
                    ));
                    return Ok(true);
                }
                self.keep_alive = pending.keep_alive;
                self.chunk_dec.reset();
                self.body.clear();
                let streaming = if let Some(factory) = &self.stream_factory {
                    let head = StreamRequestHead {
                        method: &pending.method,
                        path: &pending.path,
                        headers: &pending.headers,
                    };
                    self.session = factory(&head);
                    self.session.is_some()
                } else {
                    false
                };
                if streaming {
                    // A streamed request is dispatched now — the session
                    // is its handler — and inflight until the reply's
                    // last chunk is on the wire.
                    self.metrics.requests.inc();
                    self.metrics.requests_inflight.add(1.0);
                    self.holds_inflight = true;
                    self.ctl.reset();
                } else {
                    self.pending = Some(pending);
                }
                self.phase = HttpPhase::ChunkedBody { streaming };
                Ok(true)
            }
            Ok((pending, BodyKind::Length(body_len))) => {
                if body_len > MAX_FRAME_LEN {
                    // 413 at header-parse time: the body is never read (it
                    // may never even be sent), the error is counted, and
                    // the connection closes — a peer that declared gigabytes
                    // gets no second request.
                    crate::metrics::count_server_error(
                        "http",
                        crate::metrics::error_kind(&TransportError::FrameTooLarge {
                            declared: body_len as u64,
                        }),
                    );
                    self.keep_alive = false;
                    self.stage_response(HttpResponse::payload_too_large());
                    return Ok(true);
                }
                // Shed check at head-parse time — before the body is read,
                // decoded, or handled. The 503 says `Connection: close`,
                // so any body bytes in flight die with the connection.
                // Metrics scrapes are exempt: observability must survive
                // the very overload it is diagnosing.
                let is_metrics_scrape =
                    self.metrics_path == Some(pending.path.as_str()) && pending.method == "GET";
                if !is_metrics_scrape {
                    let inflight_with_me = self.metrics.requests_inflight.get() as i64 + 1;
                    if let Some(reason) = self
                        .overload
                        .should_shed(inflight_with_me, ctx.batch_age())
                    {
                        crate::metrics::count_shed("http", reason);
                        self.keep_alive = false;
                        self.stage_response(HttpResponse::service_unavailable(
                            self.overload.retry_after_hint,
                        ));
                        return Ok(true);
                    }
                }
                self.keep_alive = pending.keep_alive;
                self.pending = Some(pending);
                self.body.clear();
                self.phase = HttpPhase::Body {
                    remaining: body_len,
                };
                Ok(true)
            }
            Err(e) => {
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request(&e.to_string()));
                Ok(true)
            }
        }
    }

    fn dispatch(&mut self) {
        let pending = self.pending.take().expect("body phase implies a parsed head");
        self.metrics.bytes_in.add(self.body.len() as u64);
        self.metrics.requests.inc();
        self.metrics.requests_inflight.add(1.0);
        self.holds_inflight = true;
        let mut request = HttpRequest {
            method: pending.method,
            path: pending.path,
            headers: pending.headers,
            body: std::mem::take(&mut self.body),
        };
        self.ctl.reset();
        let response = if self.metrics_path == Some(request.path.as_str())
            && request.method == "GET"
        {
            crate::http::server::metrics_response()
        } else {
            let started = Instant::now();
            let handler = Arc::clone(&self.handler);
            let ctl = &mut self.ctl;
            let mut out = None;
            let result = run_handler(|| out = Some(handler(&request, ctl)));
            let elapsed = started.elapsed();
            self.metrics.handler_latency.observe_duration(elapsed);
            self.overload.observe_handler_latency(elapsed);
            match (result, out) {
                (Ok(()), Some(response)) => response,
                // A panicked handler still owes the peer an answer; the
                // connection closes right after it.
                _ => {
                    crate::metrics::count_handler_panic("http");
                    self.keep_alive = false;
                    HttpResponse::server_error(b"handler failed".to_vec())
                }
            }
        };
        // The request body buffer returns to this connection's cycle.
        self.body = std::mem::take(&mut request.body);
        self.stage_response(response);
    }

    /// Pump a chunked request body: decode whatever is buffered, refill
    /// from the socket, feed completed parts to the session (streaming)
    /// or accumulate into the request buffer (buffered fallback).
    /// `Ok(Some(step))` yields to the event loop; `Ok(None)` means the
    /// phase changed — continue the drive loop.
    fn pump_chunked(
        &mut self,
        io: &mut ConnIo,
        ctx: &DriveCtx,
        streaming: bool,
    ) -> TransportResult<Option<Step>> {
        loop {
            let mut consumed = 0;
            let mut ended = false;
            let mut part_err = None;
            while consumed < self.read_buf.len() {
                let (n, event) = match self.chunk_dec.advance(&self.read_buf[consumed..]) {
                    Ok(step) => step,
                    Err(e) => {
                        // Malformed chunked framing: answer like any
                        // other parse error, then close.
                        self.read_buf.clear();
                        self.keep_alive = false;
                        self.stage_response(HttpResponse::bad_request(&e.to_string()));
                        return Ok(None);
                    }
                };
                consumed += n;
                match event {
                    ChunkEvent::NeedMore => break,
                    ChunkEvent::Data { payload, chunk_done } => {
                        let cap = if streaming { MAX_STREAM_PART } else { MAX_FRAME_LEN };
                        if self.body.len() + payload.len() > cap {
                            crate::metrics::count_server_error(
                                "http",
                                crate::metrics::error_kind(&TransportError::FrameTooLarge {
                                    declared: (self.body.len() + payload.len()) as u64,
                                }),
                            );
                            self.read_buf.clear();
                            self.keep_alive = false;
                            self.stage_response(HttpResponse::payload_too_large());
                            return Ok(None);
                        }
                        self.body.extend_from_slice(payload);
                        if streaming && chunk_done {
                            self.metrics.bytes_in.add(self.body.len() as u64);
                            let session =
                                self.session.as_mut().expect("streaming implies a session");
                            if let Err(e) = session.on_part(&self.body) {
                                part_err = Some(e);
                            }
                            self.body.clear();
                            if part_err.is_some() {
                                break;
                            }
                        }
                    }
                    ChunkEvent::End => {
                        ended = true;
                        break;
                    }
                }
            }
            self.read_buf.drain(..consumed);
            if let Some(e) = part_err {
                self.read_buf.clear();
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request(&e.to_string()));
                return Ok(None);
            }
            if ended {
                self.finish_chunked(ctx);
                return Ok(None);
            }
            match self.fill_head_buf(io) {
                Ok(true) => {}
                Ok(false) => return Ok(Some(Step::read())),
                Err(e) => Err(e)?,
            }
        }
    }

    /// The chunked request terminator arrived: dispatch the buffered
    /// fallback, or ask the stream session for its reply.
    fn finish_chunked(&mut self, ctx: &DriveCtx) {
        if ctx.draining {
            self.keep_alive = false;
        }
        if self.session.is_none() {
            self.dispatch();
            return;
        }
        let session = self.session.as_mut().expect("checked above");
        match session.finish() {
            Ok(StreamReply::Buffered(response)) => {
                self.session = None;
                self.stage_response(response);
            }
            Ok(StreamReply::Streamed(response)) => {
                if crate::http::wants_close(&response.headers) {
                    self.keep_alive = false;
                }
                response.serialize_chunked_head(self.keep_alive, &mut self.head_out);
                self.body_out.clear();
                self.phase = HttpPhase::StreamWrite {
                    written: 0,
                    source_done: false,
                };
            }
            Err(e) => {
                self.session = None;
                self.keep_alive = false;
                self.stage_response(HttpResponse::server_error(e.to_string().into_bytes()));
            }
        }
    }
}

impl<H> ConnDriver for HttpDriver<H>
where
    H: Fn(&HttpRequest, &mut ReplyControl) -> HttpResponse,
{
    fn drive(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<Step> {
        let mut served = 0usize;
        loop {
            match &mut self.phase {
                HttpPhase::Head => {
                    if self.try_parse_head(ctx)? {
                        continue;
                    }
                    let at_boundary = self.read_buf.is_empty();
                    match self.fill_head_buf(io) {
                        Ok(true) => {}
                        Ok(false) => return Ok(Step::read()),
                        Err(TransportError::ConnectionClosed) if at_boundary => {
                            // Clean EOF between requests (including a
                            // half-closed peer whose last response just
                            // went out).
                            return Ok(Step::close());
                        }
                        Err(e) => return Err(e),
                    }
                }
                HttpPhase::Body { remaining } => {
                    // Buffered bytes first (pipelined clients send the
                    // body right behind the head), then the socket,
                    // chunk-bounded like the framed payload read.
                    let from_buf = (*remaining).min(self.read_buf.len());
                    if from_buf > 0 {
                        self.body.extend_from_slice(&self.read_buf[..from_buf]);
                        self.read_buf.drain(..from_buf);
                        *remaining -= from_buf;
                    }
                    while *remaining > 0 {
                        let have = self.body.len();
                        let target = have + (*remaining).min(RECV_CHUNK);
                        self.body.resize(target, 0);
                        let mut filled = have;
                        let progressed = read_some(io, &mut self.body[..target], &mut filled);
                        self.body.truncate(filled);
                        match progressed {
                            Ok(true) => *remaining -= filled - have,
                            Ok(false) => return Ok(Step::read()),
                            Err(e) => return Err(e),
                        }
                    }
                    if ctx.draining {
                        // The in-flight request completes, but its
                        // response says close.
                        self.keep_alive = false;
                    }
                    self.dispatch();
                }
                HttpPhase::ChunkedBody { streaming } => {
                    let streaming = *streaming;
                    if let Some(step) = self.pump_chunked(io, ctx, streaming)? {
                        return Ok(step);
                    }
                }
                HttpPhase::StreamWrite {
                    written,
                    source_done,
                } => {
                    let mut written = *written;
                    let mut source_done = *source_done;
                    if written >= self.head_out.len() + self.body_out.len() && !source_done {
                        // Previous batch fully on the wire: stage the next
                        // one, pulling parts only up to the write window —
                        // the backpressure bound.
                        self.head_out.clear();
                        self.body_out.clear();
                        written = 0;
                        while self.body_out.len() < STREAM_WRITE_WINDOW {
                            self.body.clear();
                            let session =
                                self.session.as_mut().expect("stream write implies a session");
                            // An error here is fatal for the connection:
                            // the chunked head already went out, so the
                            // only honest signal is a truncated stream.
                            if !session.next_part(&mut self.body)? {
                                chunked::write_final_chunk(&mut self.body_out);
                                source_done = true;
                                break;
                            }
                            if !self.body.is_empty() {
                                chunked::write_chunk(&mut self.body_out, &self.body);
                            }
                        }
                    }
                    let total = self.head_out.len() + self.body_out.len();
                    while written < total {
                        let head_len = self.head_out.len();
                        let bufs = if written < head_len {
                            [
                                IoSlice::new(&self.head_out[written..]),
                                IoSlice::new(&self.body_out),
                            ]
                        } else {
                            [
                                IoSlice::new(&self.body_out[written - head_len..]),
                                IoSlice::new(&[]),
                            ]
                        };
                        match io.write_vectored(&bufs) {
                            Ok(0) => {
                                return Err(TransportError::Io(std::io::Error::new(
                                    std::io::ErrorKind::WriteZero,
                                    "socket accepted no bytes",
                                )))
                            }
                            Ok(n) => written += n,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                self.phase = HttpPhase::StreamWrite {
                                    written,
                                    source_done,
                                };
                                return Ok(Step::write(self.ctl.write_budget()));
                            }
                            Err(e) => return Err(TransportError::Io(e)),
                        }
                    }
                    self.metrics.bytes_out.add(self.body_out.len() as u64);
                    if source_done {
                        self.session = None;
                        self.body_out.clear();
                        if self.holds_inflight {
                            self.metrics.requests_inflight.add(-1.0);
                            self.holds_inflight = false;
                        }
                        if !self.keep_alive || ctx.draining {
                            return Ok(Step::close());
                        }
                        self.phase = HttpPhase::Head;
                        served += 1;
                        if served >= MAX_DISPATCHES_PER_DRIVE {
                            return Ok(if self.read_buf.is_empty() {
                                Step::read()
                            } else {
                                Step::again()
                            });
                        }
                    } else {
                        self.phase = HttpPhase::StreamWrite {
                            written,
                            source_done,
                        };
                    }
                }
                HttpPhase::Write { written } => {
                    let total = self.head_out.len() + self.body_out.len();
                    while *written < total {
                        let head_len = self.head_out.len();
                        let bufs = if *written < head_len {
                            [
                                IoSlice::new(&self.head_out[*written..]),
                                IoSlice::new(&self.body_out),
                            ]
                        } else {
                            [
                                IoSlice::new(&self.body_out[*written - head_len..]),
                                IoSlice::new(&[]),
                            ]
                        };
                        match io.write_vectored(&bufs) {
                            Ok(0) => {
                                return Err(TransportError::Io(std::io::Error::new(
                                    std::io::ErrorKind::WriteZero,
                                    "socket accepted no bytes",
                                )))
                            }
                            Ok(n) => *written += n,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(Step::write(self.ctl.write_budget()));
                            }
                            Err(e) => return Err(TransportError::Io(e)),
                        }
                    }
                    self.metrics.bytes_out.add(self.body_out.len() as u64);
                    recycle(&self.pool, std::mem::take(&mut self.body_out));
                    if self.holds_inflight {
                        self.metrics.requests_inflight.add(-1.0);
                        self.holds_inflight = false;
                    }
                    if !self.keep_alive || ctx.draining {
                        return Ok(Step::close());
                    }
                    self.phase = HttpPhase::Head;
                    served += 1;
                    if served >= MAX_DISPATCHES_PER_DRIVE {
                        // Pipelined requests beyond the quota sit in the
                        // user-space read buffer where epoll can't see
                        // them: ask the loop for a re-drive instead of
                        // readiness. An empty buffer can wait for epoll.
                        return Ok(if self.read_buf.is_empty() {
                            Step::read()
                        } else {
                            Step::again()
                        });
                    }
                }
            }
        }
    }

    fn in_flight(&self) -> bool {
        match self.phase {
            HttpPhase::Head => !self.read_buf.is_empty(),
            HttpPhase::Body { .. }
            | HttpPhase::ChunkedBody { .. }
            | HttpPhase::Write { .. }
            | HttpPhase::StreamWrite { .. } => true,
        }
    }
}

impl<H> Drop for HttpDriver<H> {
    fn drop(&mut self) {
        // The connection's buffers rejoin the shared cycle.
        recycle(&self.pool, std::mem::take(&mut self.body));
        recycle(&self.pool, std::mem::take(&mut self.body_out));
        if self.holds_inflight {
            self.metrics.requests_inflight.add(-1.0);
        }
    }
}

/// Return a buffer to the shared pool. One with no capacity is dropped
/// instead: parked, it would fill a slot a real buffer needs, and once the
/// pool is full of them every reply buffer is dropped and every handler
/// allocates afresh.
fn recycle(pool: &BufferPool, buf: Vec<u8>) {
    if buf.capacity() > 0 {
        pool.put(buf);
    }
}

/// Find the `\r\n\r\n` terminating a request head; returns its offset.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse a request head (request line + headers, no trailing blank line)
/// into a [`PendingRequest`] plus how the body is delimited.
fn parse_request_head(head: &[u8]) -> TransportResult<(PendingRequest, BodyKind)> {
    let head = std::str::from_utf8(head).map_err(|_| TransportError::BadHttp {
        what: "request head is not UTF-8".into(),
    })?;
    let mut lines = head.split("\r\n");
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
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| TransportError::BadHttp {
            what: format!("header line without a colon: {line:?}"),
        })?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
        if headers.len() > 256 {
            return Err(TransportError::BadHttp {
                what: "too many headers".into(),
            });
        }
    }
    let body = if crate::http::body_is_chunked(&headers) {
        BodyKind::Chunked
    } else {
        match crate::http::find_header(&headers, "Content-Length") {
            Some(v) => BodyKind::Length(v.parse::<usize>().map_err(|_| {
                TransportError::BadHttp {
                    what: format!("bad Content-Length {v:?}"),
                }
            })?),
            None => BodyKind::Length(0),
        }
    };
    let keep_alive = crate::http::keep_alive_disposition(version == "HTTP/1.1", &headers);
    Ok((
        PendingRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            headers,
            keep_alive,
        },
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn request_head_parses_and_negotiates() {
        let (req, body) =
            parse_request_head(b"POST /soap HTTP/1.1\r\nContent-Length: 12\r\nHost: x").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/soap");
        assert!(matches!(body, BodyKind::Length(12)));
        assert!(req.keep_alive, "1.1 defaults to keep-alive");

        let (_, body) = parse_request_head(
            b"POST /soap HTTP/1.1\r\nTransfer-Encoding: chunked\r\nHost: x",
        )
        .unwrap();
        assert!(matches!(body, BodyKind::Chunked));

        let (req, _) = parse_request_head(b"GET / HTTP/1.0\r\nHost: x").unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");

        let (req, _) =
            parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive").unwrap();
        assert!(req.keep_alive, "1.0 opts in explicitly");

        let (req, _) = parse_request_head(b"GET / HTTP/1.1\r\nConnection: close").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn conflicting_connection_headers_close_conservatively() {
        let (req, _) = parse_request_head(
            b"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close",
        )
        .unwrap();
        assert!(!req.keep_alive, "any close token wins");
        let (req, _) =
            parse_request_head(b"GET / HTTP/1.1\r\nConnection: keep-alive, close").unwrap();
        assert!(!req.keep_alive, "close in a token list wins");
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse_request_head(b"NONSENSE").is_err());
        assert!(parse_request_head(b"GET / SPDY/3").is_err());
        assert!(parse_request_head(b"GET / HTTP/1.1\r\nNoColon").is_err());
        assert!(parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: many").is_err());
        assert!(parse_request_head(&[0xff, 0xfe, 0x20, 0x20]).is_err());
    }
}
