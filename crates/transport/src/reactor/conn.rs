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
use crate::gather::{Framing, Gathered};
use crate::http::chunked::{self, ChunkDecoder, ChunkEvent};
use crate::http::response::HttpResponse;
use crate::http::server::{BodyKind, ParsedHead, Reply, RequestHead};
use crate::http::streaming::{StreamFactory, StreamReply, StreamSession, MAX_PART_LEN};
use crate::metrics::ServerMetrics;
use crate::tcpserver::ReplyControl;

/// The socket as the driver sees it: plain, or wrapped in the
/// fault-injecting decorator (whose injected stalls surface as
/// `WouldBlock` — indistinguishable from "not ready", which on a
/// level-triggered loop simply retries the event).
pub(crate) enum ConnIo {
    Plain(TcpStream),
    Faulty(FaultingTransport<TcpStream>),
    /// A scripted in-memory socket for the drivers' unit tests.
    #[cfg(test)]
    Mem(tests::MemIo),
}

impl ConnIo {
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            ConnIo::Plain(s) => s.as_raw_fd(),
            ConnIo::Faulty(f) => f.get_ref().as_raw_fd(),
            #[cfg(test)]
            ConnIo::Mem(_) => -1,
        }
    }
}

impl Read for ConnIo {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Plain(s) => s.read(out),
            ConnIo::Faulty(f) => f.read(out),
            #[cfg(test)]
            ConnIo::Mem(m) => m.read(out),
        }
    }
}

impl Write for ConnIo {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Plain(s) => s.write(data),
            ConnIo::Faulty(f) => f.write(data),
            #[cfg(test)]
            ConnIo::Mem(m) => m.write(data),
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
            #[cfg(test)]
            ConnIo::Mem(m) => m.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ConnIo::Plain(s) => s.flush(),
            ConnIo::Faulty(f) => f.flush(),
            #[cfg(test)]
            ConnIo::Mem(_) => Ok(()),
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
    /// the HTTP driver hit its per-drive dispatch quota with more
    /// pipelined requests already buffered in user space, where epoll cannot see
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

/// Requests one HTTP `drive` call may serve from its input buffer before
/// yielding the worker to other connections. A peer that pipelines
/// deeper than this still gets every request answered — in slices,
/// interleaved with everyone else's traffic — instead of monopolizing
/// its worker for the whole batch. (The framed driver never buffers
/// past the frame it is reading, so it yields after every reply.)
const MAX_DISPATCHES_PER_DRIVE: usize = 16;

/// A per-connection protocol state machine.
pub(crate) trait ConnDriver {
    /// Advance the state machine until the socket would block, a reply
    /// has gone out with nothing buffered behind it, or the HTTP
    /// dispatch quota yields. `ctx` carries the drain flag and the age
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

/// Record one handler run in the handler-latency histogram and the
/// overload signal: the time since `started`, less what the handler's
/// gathered reply spent in socket writes, which is the connection's
/// time, not the handler's.
fn observe_handler(
    metrics: &ServerMetrics,
    overload: &Overload,
    started: Instant,
    gathered: Option<&Gathered>,
) {
    let writes = gathered.map_or(Duration::ZERO, |g| g.write_time);
    let elapsed = started.elapsed().saturating_sub(writes);
    metrics.handler_latency.observe_duration(elapsed);
    overload.observe_handler_latency(elapsed);
}

/// Count a gathered reply, and the bytes of it the socket did not take
/// while the handler ran (`spill`, now in the reply buffer). The spill
/// is counted first, so whoever sees the reply counted sees its spill.
fn count_gathered(metrics: &ServerMetrics, spill: &[u8]) {
    metrics.gather_spilled_bytes.add(spill.len() as u64);
    metrics.gathered_replies.inc();
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

/// Write `first` then `second`, resuming at byte `*written` of the
/// pair: `Ok(true)` once both are on the wire, `Ok(false)` when the
/// socket would block.
fn write_pair(
    io: &mut ConnIo,
    first: &[u8],
    second: &[u8],
    written: &mut usize,
) -> TransportResult<bool> {
    while *written < first.len() + second.len() {
        let bufs = if *written < first.len() {
            [IoSlice::new(&first[*written..]), IoSlice::new(second)]
        } else {
            [
                IoSlice::new(&second[*written - first.len()..]),
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
    Ok(true)
}

/// A request payload in a buffer kept at its high-water length: the
/// payload is the first `len` bytes, and bytes past it, left over from a
/// longer earlier payload, are never zeroed again. Socket reads grow the
/// buffer at most [`RECV_CHUNK`] past the bytes received, so a hostile
/// declared length costs memory only as bytes arrive. Both drivers read
/// their request bodies through it.
#[derive(Default)]
struct MessageBuf {
    buf: Vec<u8>,
    len: usize,
}

impl MessageBuf {
    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Append `data`, overwriting stale bytes before growing.
    fn extend(&mut self, data: &[u8]) {
        let fits = (self.buf.len() - self.len).min(data.len());
        self.buf[self.len..self.len + fits].copy_from_slice(&data[..fits]);
        self.buf.extend_from_slice(&data[fits..]);
        self.len += data.len();
    }

    /// Read from the socket toward a `total`-byte payload: `Ok(true)` made
    /// progress, `Ok(false)` would block.
    fn read_toward(&mut self, io: &mut ConnIo, total: usize) -> TransportResult<bool> {
        let target = total.min(self.len + RECV_CHUNK);
        if self.buf.len() < target {
            self.buf.resize(target, 0);
        }
        read_some(io, &mut self.buf[..target], &mut self.len)
    }
}

// ---------------------------------------------------------------------
// Framed TCP
// ---------------------------------------------------------------------

enum FramedPhase {
    /// Reading the 4-byte length prefix (`filled` bytes so far).
    Prefix { filled: usize },
    /// Reading an `expected`-byte payload into `request`.
    Payload { expected: usize },
    /// Writing prefix + response (`written` of `4 + response.len()`).
    /// After a gathered reply, `response` holds only what the socket did
    /// not take while the handler ran.
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
    request: MessageBuf,
    response: Vec<u8>,
    /// What the socket did not take of a gathered reply, swapped into
    /// `response` once the handler returns.
    spill: Vec<u8>,
    out_prefix: [u8; 4],
    /// The reply's length, whatever part of it the handler already sent.
    reply_len: usize,
    /// The write budget the handler capped this reply to.
    write_cap: Option<Duration>,
    /// This driver holds one unit of the inflight gauge (a dispatched
    /// request whose response write hasn't completed) — released at
    /// write-complete, or in `Drop` when the connection dies mid-write.
    holds_inflight: bool,
}

impl<S, H> FramedDriver<S, H>
where
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl<'_>),
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
            request: MessageBuf::default(),
            response: Vec::new(),
            spill: Vec::new(),
            out_prefix: [0; 4],
            reply_len: 0,
            write_cap: None,
            holds_inflight: false,
        }
    }

    /// Queue `response` whole: its prefix, then all of it.
    fn stage_response(&mut self) {
        self.out_prefix = (self.response.len() as u32).to_be_bytes();
        self.reply_len = self.response.len();
        self.phase = FramedPhase::Write { written: 0 };
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
                self.write_cap = None;
                self.stage_response();
                Some(None)
            }
            None => Some(Some(Step::close())),
        }
    }

    fn dispatch(&mut self, io: &mut ConnIo) -> TransportResult<()> {
        self.metrics.bytes_in.add(self.request.len() as u64);
        self.metrics.requests.inc();
        self.metrics.requests_inflight.add(1.0);
        self.holds_inflight = true;
        self.response.clear();
        let started = Instant::now();
        let mut ctl =
            ReplyControl::for_conn(io, Framing::Prefix(&mut self.out_prefix), &mut self.spill);
        let (state, handler) = (&mut self.state, &self.handler);
        let (request, response) = (self.request.bytes(), &mut self.response);
        let handled = run_handler(|| handler(state, request, response, &mut ctl));
        let (write_cap, gathered) = ctl.finish();
        observe_handler(self.metrics, &self.overload, started, gathered.as_ref());
        if let Err(e) = handled {
            crate::metrics::count_handler_panic("tcp");
            return Err(e);
        }
        self.write_cap = write_cap;
        if let Some(gathered) = gathered {
            std::mem::swap(&mut self.response, &mut self.spill);
            count_gathered(self.metrics, &self.response);
            self.reply_len = gathered.len;
            self.phase = FramedPhase::Write {
                written: gathered.resume_at()?,
            };
            return Ok(());
        }
        if self.response.len() > MAX_FRAME_LEN {
            return Err(TransportError::FrameTooLarge {
                declared: self.response.len() as u64,
            });
        }
        self.stage_response();
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
    H: Fn(&mut S, &[u8], &mut Vec<u8>, &mut ReplyControl<'_>),
{
    fn drive(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<Step> {
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
                    self.request.clear();
                    self.phase = FramedPhase::Payload { expected };
                }
                FramedPhase::Payload { expected } => {
                    let expected = *expected;
                    while self.request.len() < expected {
                        if !self.request.read_toward(io, expected)? {
                            return Ok(Step::read());
                        }
                    }
                    // The payload is complete but not yet decoded — the
                    // cheapest point to turn the request away.
                    match self.maybe_shed(ctx) {
                        Some(Some(step)) => return Ok(step),
                        Some(None) => {}
                        None => self.dispatch(io)?,
                    }
                }
                FramedPhase::Write { written } => {
                    if !write_pair(io, &self.out_prefix, &self.response, written)? {
                        return Ok(Step::write(self.write_cap));
                    }
                    self.metrics.bytes_out.add(self.reply_len as u64);
                    if self.holds_inflight {
                        self.metrics.requests_inflight.add(-1.0);
                        self.holds_inflight = false;
                    }
                    if ctx.draining {
                        return Ok(Step::close());
                    }
                    self.phase = FramedPhase::Prefix { filled: 0 };
                    // Wait for readiness instead of a read that would
                    // almost always block: a caller waiting on this reply
                    // cannot have sent its next request yet. Pipelined
                    // frames sit in the kernel buffer (reads never run
                    // past the current frame), which level-triggered
                    // epoll keeps reporting as readable.
                    return Ok(Step::read());
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

/// Free space the input buffer offers each socket read.
const HEAD_READ_CHUNK: usize = 8 * 1024;

/// How far ahead of the socket the streaming reply path will pull parts:
/// once at least this many staged bytes are waiting to be written, no
/// more parts are pulled until the peer drains them — the backpressure
/// bound that keeps a streamed reply O(window) regardless of reply size.
const STREAM_WRITE_WINDOW: usize = 64 * 1024;

/// Connection input not yet consumed, `buf[start..end]`, in a buffer
/// kept at its high-water length so a read never zero-fills bytes an
/// earlier read already initialized.
#[derive(Default)]
struct InputBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl InputBuf {
    fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.clear();
        }
    }

    fn clear(&mut self) {
        (self.start, self.end) = (0, 0);
    }

    /// Append socket bytes, first moving unconsumed bytes to the front
    /// when the free tail is short. `Ok(true)` = progress.
    fn fill(&mut self, io: &mut ConnIo) -> TransportResult<bool> {
        if self.buf.len() - self.end < HEAD_READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.buf.len() - self.end < HEAD_READ_CHUNK {
                self.buf.resize(self.end + HEAD_READ_CHUNK, 0);
            }
        }
        read_some(io, &mut self.buf, &mut self.end)
    }
}

enum HttpPhase {
    /// Accumulating head bytes until the blank line.
    Head,
    /// Reading the parsed request's `len`-byte body.
    Body { len: usize },
    /// Reading a chunked request body. `streaming` feeds each completed
    /// chunk to the stream session as one part; otherwise the body is
    /// de-chunked into the ordinary request buffer for buffered dispatch.
    ChunkedBody { streaming: bool },
    /// Writing `head_out` + the reply body (`written` bytes done). After
    /// a gathered reply, the body holds only what the socket did not
    /// take while the handler ran.
    Write { written: usize },
    /// Writing a streamed (chunked) reply: flush `head_out` + the staged
    /// chunk batch in the reply body, refill from the session when
    /// drained, finish once `source_done` and everything is on the wire.
    StreamWrite { written: usize, source_done: bool },
}

/// The HTTP/1.1 state machine with keep-alive and pipelining.
///
/// Requests are parsed straight out of the connection's input buffer, so
/// a pipelined batch is served back-to-back without extra socket reads;
/// while a response write is backpressured the machine stops consuming
/// input (no unbounded buffering of a client that won't read). The
/// `Connection:` disposition follows RFC 7230 §6: 1.1 defaults to
/// keep-alive, 1.0 to close, any `close` token (including conflicting
/// duplicate headers) closes conservatively. Every buffer — input, head,
/// body, reply — belongs to the connection and keeps its capacity across
/// requests.
pub(crate) struct HttpDriver<S, H> {
    state: S,
    handler: Arc<H>,
    metrics: &'static ServerMetrics,
    metrics_path: Option<&'static str>,
    overload: Arc<Overload>,
    phase: HttpPhase,
    input: InputBuf,
    /// How much of `input` the head-end search has covered.
    head_scanned: usize,
    head: ParsedHead,
    body: MessageBuf,
    reply: Reply,
    head_out: Vec<u8>,
    /// What the socket did not take of a gathered reply, swapped into
    /// the reply body once the handler returns.
    spill: Vec<u8>,
    /// One part of a streamed reply, pulled from the session.
    part: Vec<u8>,
    /// Disposition of the response currently being written.
    keep_alive: bool,
    /// The reply body's length, whatever part of it the handler already
    /// sent.
    reply_len: usize,
    /// The write budget the handler capped this reply to.
    write_cap: Option<Duration>,
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

impl<S, H> HttpDriver<S, H>
where
    H: Fn(&mut S, &RequestHead<'_>, &[u8], &mut Reply, &mut ReplyControl<'_>),
{
    pub(crate) fn new(
        state: S,
        handler: Arc<H>,
        metrics: &'static ServerMetrics,
        metrics_path: Option<&'static str>,
        overload: Arc<Overload>,
        stream_factory: Option<StreamFactory>,
    ) -> Self {
        HttpDriver {
            state,
            handler,
            metrics,
            metrics_path,
            overload,
            phase: HttpPhase::Head,
            input: InputBuf::default(),
            head_scanned: 0,
            head: ParsedHead::default(),
            body: MessageBuf::default(),
            reply: Reply::default(),
            head_out: Vec::new(),
            spill: Vec::new(),
            part: Vec::new(),
            keep_alive: false,
            reply_len: 0,
            write_cap: None,
            holds_inflight: false,
            stream_factory,
            session: None,
            chunk_dec: ChunkDecoder::new(),
        }
    }

    /// Queue the reply for writing and flip to the write phase. A handler
    /// that explicitly says `Connection: close` wins over the negotiated
    /// disposition; the serialized header always states what the server
    /// will actually do.
    fn stage_reply(&mut self) {
        if self.reply.wants_close() {
            self.keep_alive = false;
        }
        self.reply.write_head(self.keep_alive, &mut self.head_out);
        self.reply_len = self.reply.body.len();
        self.phase = HttpPhase::Write { written: 0 };
    }

    /// Queue a whole `response` (the server's own answers: errors, sheds,
    /// scrapes).
    fn stage_response(&mut self, response: HttpResponse) {
        self.reply.respond(response);
        self.stage_reply();
    }

    /// Answer `503` and close if the overload signal says to shed the
    /// request whose head just arrived.
    fn shed(&mut self, ctx: &DriveCtx) -> bool {
        let inflight_with_me = self.metrics.requests_inflight.get() as i64 + 1;
        let Some(reason) = self.overload.should_shed(inflight_with_me, ctx.batch_age()) else {
            return false;
        };
        crate::metrics::count_shed("http", reason);
        self.keep_alive = false;
        self.stage_response(HttpResponse::service_unavailable(
            self.overload.retry_after_hint,
        ));
        true
    }

    /// Parse one request head out of the input if the blank line has
    /// arrived. `Ok(true)` = a request is pending (or a parse-error,
    /// reject, or shed response was staged); `Ok(false)` = need more
    /// bytes.
    fn try_parse_head(&mut self, ctx: &DriveCtx) -> TransportResult<bool> {
        let Some(head_end) = find_head_end(self.input.data(), &mut self.head_scanned) else {
            let oversized = self.input.data().len() > MAX_HEAD_LEN;
            if oversized {
                // Reply like any other malformed request, then close.
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request("request head too large"));
            }
            return Ok(oversized);
        };
        let parsed = self.head.parse(&self.input.data()[..head_end]);
        self.input.consume(head_end + 4);
        match parsed {
            Ok(BodyKind::Chunked) => {
                // Shed chunked requests at head-parse time like
                // length-delimited ones.
                if self.shed(ctx) {
                    return Ok(true);
                }
                self.keep_alive = self.head.keep_alive;
                self.chunk_dec.reset();
                self.body.clear();
                if let Some(factory) = &self.stream_factory {
                    self.session = factory(&self.head.view());
                }
                let streaming = self.session.is_some();
                if streaming {
                    // A streamed request is dispatched now — the session
                    // is its handler — and inflight until the reply's
                    // last chunk is on the wire.
                    self.metrics.requests.inc();
                    self.metrics.requests_inflight.add(1.0);
                    self.holds_inflight = true;
                    self.write_cap = None;
                }
                self.phase = HttpPhase::ChunkedBody { streaming };
                Ok(true)
            }
            Ok(BodyKind::Length(len)) => {
                if len > MAX_FRAME_LEN {
                    // 413 at header-parse time: the body is never read (it
                    // may never even be sent), the error is counted, and
                    // the connection closes — a peer that declared gigabytes
                    // gets no second request.
                    crate::metrics::count_server_error(
                        "http",
                        crate::metrics::error_kind(&TransportError::FrameTooLarge {
                            declared: len as u64,
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
                if !self.is_metrics_scrape() && self.shed(ctx) {
                    return Ok(true);
                }
                self.keep_alive = self.head.keep_alive;
                self.body.clear();
                self.phase = HttpPhase::Body { len };
                Ok(true)
            }
            Err(e) => {
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request(&e.to_string()));
                Ok(true)
            }
        }
    }

    fn is_metrics_scrape(&self) -> bool {
        let head = self.head.view();
        self.metrics_path == Some(head.path) && head.method == "GET"
    }

    /// Run the handler on the request just read and queue its reply.
    /// Errors only when a gathered reply cannot be finished, so the
    /// connection must close.
    fn dispatch(&mut self, io: &mut ConnIo) -> TransportResult<()> {
        self.metrics.bytes_in.add(self.body.len() as u64);
        self.metrics.requests.inc();
        self.metrics.requests_inflight.add(1.0);
        self.holds_inflight = true;
        self.write_cap = None;
        self.reply.reset();
        if self.is_metrics_scrape() {
            self.reply.respond(crate::http::server::metrics_response());
            self.stage_reply();
            return Ok(());
        }
        let started = Instant::now();
        let mut ctl = ReplyControl::for_conn(
            io,
            Framing::Http {
                head: &mut self.head_out,
                keep_alive: self.keep_alive,
            },
            &mut self.spill,
        );
        let (state, handler, head) = (&mut self.state, &self.handler, self.head.view());
        let (body, reply) = (self.body.bytes(), &mut self.reply);
        let handled = run_handler(|| handler(state, &head, body, reply, &mut ctl));
        let (write_cap, gathered) = ctl.finish();
        observe_handler(self.metrics, &self.overload, started, gathered.as_ref());
        self.write_cap = write_cap;
        if handled.is_err() {
            crate::metrics::count_handler_panic("http");
        }
        match (handled, gathered) {
            // The head may be on the wire: the reply cannot be replaced.
            (Err(e), Some(_)) => Err(e),
            (Err(_), None) => {
                // A panicked handler still owes the peer an answer; the
                // connection closes right after it.
                self.keep_alive = false;
                self.reply
                    .respond(HttpResponse::server_error(b"handler failed".to_vec()));
                self.stage_reply();
                Ok(())
            }
            (Ok(()), Some(gathered)) => self.stage_gathered(gathered),
            (Ok(()), None) => {
                self.stage_reply();
                Ok(())
            }
        }
    }

    /// Finish a reply the handler gathered: the head is staged and
    /// perhaps on the wire, and the spill, which becomes the body to
    /// write, holds what the socket did not take.
    fn stage_gathered(&mut self, gathered: Gathered) -> TransportResult<()> {
        std::mem::swap(&mut self.reply.body, &mut self.spill);
        count_gathered(self.metrics, &self.reply.body);
        self.keep_alive = gathered.keep_alive;
        self.reply_len = gathered.len;
        self.phase = HttpPhase::Write {
            written: gathered.resume_at()?,
        };
        Ok(())
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
            while consumed < self.input.data().len() {
                let (n, event) = match self.chunk_dec.advance(&self.input.data()[consumed..]) {
                    Ok(step) => step,
                    Err(e) => {
                        // Malformed chunked framing: answer like any
                        // other parse error, then close.
                        self.input.clear();
                        self.keep_alive = false;
                        self.stage_response(HttpResponse::bad_request(&e.to_string()));
                        return Ok(None);
                    }
                };
                consumed += n;
                match event {
                    ChunkEvent::NeedMore => break,
                    ChunkEvent::Data { payload, chunk_done } => {
                        let cap = if streaming { MAX_PART_LEN } else { MAX_FRAME_LEN };
                        if self.body.len() + payload.len() > cap {
                            crate::metrics::count_server_error(
                                "http",
                                crate::metrics::error_kind(&TransportError::FrameTooLarge {
                                    declared: (self.body.len() + payload.len()) as u64,
                                }),
                            );
                            self.input.clear();
                            self.keep_alive = false;
                            self.stage_response(HttpResponse::payload_too_large());
                            return Ok(None);
                        }
                        self.body.extend(payload);
                        if streaming && chunk_done {
                            self.metrics.bytes_in.add(self.body.len() as u64);
                            let session =
                                self.session.as_mut().expect("streaming implies a session");
                            if let Err(e) = session.on_part(self.body.bytes()) {
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
            self.input.consume(consumed);
            if let Some(e) = part_err {
                self.input.clear();
                self.keep_alive = false;
                self.stage_response(HttpResponse::bad_request(&e.to_string()));
                return Ok(None);
            }
            if ended {
                self.finish_chunked(io, ctx)?;
                return Ok(None);
            }
            if !self.input.fill(io)? {
                return Ok(Some(Step::read()));
            }
        }
    }

    /// The chunked request terminator arrived: dispatch the buffered
    /// fallback, or ask the stream session for its reply.
    fn finish_chunked(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<()> {
        if ctx.draining {
            self.keep_alive = false;
        }
        let Some(session) = self.session.as_mut() else {
            return self.dispatch(io);
        };
        match session.finish() {
            Ok(StreamReply::Buffered(response)) => {
                self.session = None;
                self.stage_response(response);
            }
            Ok(StreamReply::Streamed(response)) => {
                if crate::http::wants_close(crate::http::pairs(&response.headers)) {
                    self.keep_alive = false;
                }
                response.write_head(None, self.keep_alive, &mut self.head_out);
                self.reply.body.clear();
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
        Ok(())
    }

    /// A reply is on the wire: release the inflight unit and decide
    /// whether the connection goes on (`None`) or what to tell the loop.
    fn reply_done(&mut self, ctx: &DriveCtx, served: &mut usize) -> Option<Step> {
        if self.holds_inflight {
            self.metrics.requests_inflight.add(-1.0);
            self.holds_inflight = false;
        }
        if !self.keep_alive || ctx.draining {
            return Some(Step::close());
        }
        self.phase = HttpPhase::Head;
        *served += 1;
        if self.input.is_empty() {
            // Nothing buffered: wait for readiness instead of a read that
            // would almost always block — a caller waiting on this reply
            // cannot have sent its next request yet, and the
            // level-triggered loop reports anything that did arrive.
            return Some(Step::read());
        }
        // Pipelined requests beyond the quota sit in the user-space input
        // buffer where epoll can't see them: ask the loop for a re-drive
        // instead of readiness.
        (*served >= MAX_DISPATCHES_PER_DRIVE).then(Step::again)
    }
}

impl<S, H> ConnDriver for HttpDriver<S, H>
where
    H: Fn(&mut S, &RequestHead<'_>, &[u8], &mut Reply, &mut ReplyControl<'_>),
{
    fn drive(&mut self, io: &mut ConnIo, ctx: &DriveCtx) -> TransportResult<Step> {
        let mut served = 0usize;
        loop {
            match &mut self.phase {
                HttpPhase::Head => {
                    if self.try_parse_head(ctx)? {
                        continue;
                    }
                    let at_boundary = self.input.is_empty();
                    match self.input.fill(io) {
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
                HttpPhase::Body { len } => {
                    // Buffered bytes first (pipelined clients send the
                    // body right behind the head), then the socket,
                    // chunk-bounded like the framed payload read.
                    let len = *len;
                    let buffered = (len - self.body.len()).min(self.input.data().len());
                    self.body.extend(&self.input.data()[..buffered]);
                    self.input.consume(buffered);
                    while self.body.len() < len {
                        if !self.body.read_toward(io, len)? {
                            return Ok(Step::read());
                        }
                    }
                    if ctx.draining {
                        // The in-flight request completes, but its
                        // response says close.
                        self.keep_alive = false;
                    }
                    self.dispatch(io)?;
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
                    if *written >= self.head_out.len() + self.reply.body.len() && !*source_done {
                        // Previous batch fully on the wire: stage the next
                        // one, pulling parts only up to the write window —
                        // the backpressure bound.
                        self.head_out.clear();
                        self.reply.body.clear();
                        *written = 0;
                        while self.reply.body.len() < STREAM_WRITE_WINDOW {
                            self.part.clear();
                            let session = self
                                .session
                                .as_mut()
                                .expect("stream write implies a session");
                            // An error here is fatal for the connection:
                            // the chunked head already went out, so the
                            // only honest signal is a truncated stream.
                            if !session.next_part(&mut self.part)? {
                                chunked::write_final_chunk(&mut self.reply.body);
                                *source_done = true;
                                break;
                            }
                            if !self.part.is_empty() {
                                chunked::write_chunk(&mut self.reply.body, &self.part);
                            }
                        }
                    }
                    let source_done = *source_done;
                    if !write_pair(io, &self.head_out, &self.reply.body, written)? {
                        return Ok(Step::write(self.write_cap));
                    }
                    self.metrics.bytes_out.add(self.reply.body.len() as u64);
                    if source_done {
                        self.session = None;
                        self.reply.body.clear();
                        if let Some(step) = self.reply_done(ctx, &mut served) {
                            return Ok(step);
                        }
                    }
                }
                HttpPhase::Write { written } => {
                    if !write_pair(io, &self.head_out, &self.reply.body, written)? {
                        return Ok(Step::write(self.write_cap));
                    }
                    self.metrics.bytes_out.add(self.reply_len as u64);
                    if let Some(step) = self.reply_done(ctx, &mut served) {
                        return Ok(step);
                    }
                }
            }
        }
    }

    fn in_flight(&self) -> bool {
        match self.phase {
            HttpPhase::Head => !self.input.is_empty(),
            HttpPhase::Body { .. }
            | HttpPhase::ChunkedBody { .. }
            | HttpPhase::Write { .. }
            | HttpPhase::StreamWrite { .. } => true,
        }
    }
}

impl<S, H> Drop for HttpDriver<S, H> {
    fn drop(&mut self) {
        if self.holds_inflight {
            self.metrics.requests_inflight.add(-1.0);
        }
    }
}

/// Find the `\r\n\r\n` ending a request head in `buf`, resuming where
/// the last search ended: `scanned` is how much of `buf` earlier calls
/// covered (a terminator may straddle that point, so the search backs
/// up three bytes). A head trickled in one byte per read therefore costs
/// linear, not quadratic, work. `scanned` resets to 0 on a find, for the
/// next head.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    let found = buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i);
    *scanned = if found.is_some() { 0 } else { buf.len() };
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(head: &[u8]) -> TransportResult<(ParsedHead, BodyKind)> {
        let mut parsed = ParsedHead::default();
        let body = parsed.parse(head)?;
        Ok((parsed, body))
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(
            find_head_end(b"GET / HTTP/1.1\r\n\r\nbody", &mut 0),
            Some(14)
        );
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", &mut 0), None);
        assert_eq!(find_head_end(b"", &mut 0), None);
    }

    /// A 64 KiB head fed one byte per read: every prefix is searched as
    /// it grows, and the terminator is found across the split. Resuming
    /// the search keeps the whole trickle linear — restarting at byte 0
    /// would cost ~2·10⁹ window compares and take seconds.
    #[test]
    fn trickled_head_end_search_is_linear() {
        let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(MAX_HEAD_LEN - 4, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let started = Instant::now();
        let mut scanned = 0;
        for n in 1..head.len() {
            assert_eq!(find_head_end(&head[..n], &mut scanned), None);
            assert_eq!(scanned, n, "the next search resumes at the end");
        }
        assert_eq!(find_head_end(&head, &mut scanned), Some(head.len() - 4));
        assert_eq!(scanned, 0, "reset for the next head");
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "trickled head search took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn request_head_parses_and_negotiates() {
        let (req, body) = parse(b"POST /soap HTTP/1.1\r\nContent-Length: 12\r\nHost: x").unwrap();
        assert_eq!(req.view().method, "POST");
        assert_eq!(req.view().path, "/soap");
        assert_eq!(req.view().header("host"), Some("x"));
        assert!(matches!(body, BodyKind::Length(12)));
        assert!(req.keep_alive, "1.1 defaults to keep-alive");

        let (_, body) =
            parse(b"POST /soap HTTP/1.1\r\nTransfer-Encoding: chunked\r\nHost: x").unwrap();
        assert!(matches!(body, BodyKind::Chunked));

        let (req, _) = parse(b"GET / HTTP/1.0\r\nHost: x").unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");

        let (req, _) = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive").unwrap();
        assert!(req.keep_alive, "1.0 opts in explicitly");

        let (req, _) = parse(b"GET / HTTP/1.1\r\nConnection: close").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn conflicting_connection_headers_close_conservatively() {
        let (req, _) =
            parse(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close").unwrap();
        assert!(!req.keep_alive, "any close token wins");
        let (req, _) = parse(b"GET / HTTP/1.1\r\nConnection: keep-alive, close").unwrap();
        assert!(!req.keep_alive, "close in a token list wins");
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse(b"NONSENSE").is_err());
        assert!(parse(b"GET / SPDY/3").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nNoColon").is_err());
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: many").is_err());
        assert!(parse(&[0xff, 0xfe, 0x20, 0x20]).is_err());
    }

    /// One head storage reused for a second, shorter request sees only
    /// the second request's headers.
    #[test]
    fn reused_head_storage_holds_only_the_latest_head() {
        let mut head = ParsedHead::default();
        head.parse(b"POST /a HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3")
            .unwrap();
        head.parse(b"GET /b HTTP/1.1\r\nD: 4").unwrap();
        let view = head.view();
        assert_eq!((view.method, view.path), ("GET", "/b"));
        assert_eq!(view.headers().collect::<Vec<_>>(), [("D", "4")]);
        assert_eq!(view.header("a"), None);
    }

    /// An in-memory socket: reads drain `input`; writes land in `output`,
    /// each call taking at most `take` bytes (then `WouldBlock` once
    /// `budget` bytes went out) and sleeping `delay` first.
    #[derive(Default)]
    pub(crate) struct MemIo {
        pub input: std::collections::VecDeque<u8>,
        pub output: Vec<u8>,
        pub take: usize,
        pub budget: usize,
        pub delay: Duration,
    }

    impl Read for MemIo {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.input.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.input.len());
            for (slot, byte) in out.iter_mut().zip(self.input.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    impl Write for MemIo {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            let n = data.len().min(self.take).min(self.budget);
            if n == 0 && !data.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.budget -= n;
            self.output.extend_from_slice(&data[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn mem(request: &[u8], take: usize, budget: usize, delay: Duration) -> ConnIo {
        let mut input = (request.len() as u32).to_be_bytes().to_vec();
        input.extend_from_slice(request);
        ConnIo::Mem(MemIo {
            input: input.into(),
            take,
            budget,
            delay,
            ..MemIo::default()
        })
    }

    fn ctx() -> DriveCtx {
        DriveCtx {
            draining: false,
            batch_started: Instant::now(),
        }
    }

    fn overload() -> Arc<Overload> {
        Arc::new(Overload::new(&Default::default(), None, None))
    }

    /// A framed handler that answers `len` bytes of 0..=255 gathered, in
    /// pieces of `piece` bytes.
    fn gathering_driver(len: usize, piece: usize, overload: &Arc<Overload>) -> Box<dyn ConnDriver> {
        let reply: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let handler = move |_: &mut (), _: &[u8], _: &mut Vec<u8>, ctl: &mut ReplyControl<'_>| {
            let mut sink = ctl.gather(reply.len()).expect("a live connection gathers");
            for chunk in reply.chunks(piece) {
                sink.put(&chunk[..1], &chunk[1..]);
            }
        };
        Box::new(FramedDriver::new(
            (),
            Arc::new(handler),
            crate::metrics::tcp_server(),
            Arc::clone(overload),
        ))
    }

    fn framed_reply(len: usize) -> Vec<u8> {
        let mut wire = (len as u32).to_be_bytes().to_vec();
        wire.extend((0..len).map(|i| i as u8));
        wire
    }

    /// Time the handler's gathered reply spends in socket writes is not
    /// handler time: a socket that takes 40 ms per write leaves the
    /// overload signal (fed the same sample as the handler-latency
    /// histogram) far below one write.
    #[test]
    fn gathered_write_time_is_not_handler_time() {
        let overload = overload();
        let mut driver = gathering_driver(3 * 1024, 1024, &overload);
        let mut io = mem(b"go", usize::MAX, usize::MAX, Duration::from_millis(40));
        let step = driver.drive(&mut io, &ctx()).unwrap();
        assert_eq!(step.wants, Wants::Read, "the reply went out whole");
        let ConnIo::Mem(m) = &io else { unreachable!() };
        assert_eq!(m.output, framed_reply(3 * 1024));
        assert!(
            overload.ewma_latency() < Duration::from_millis(20),
            "handler latency counted the writes: {:?}",
            overload.ewma_latency()
        );
    }

    /// However the socket splits a gathered reply — a few bytes per
    /// write, a stop inside the prefix, inside a head piece or inside a
    /// payload — the bytes on the wire are the flat reply's, the rest
    /// going out from the reply buffer once the socket drains.
    #[test]
    fn a_gathered_reply_survives_every_split() {
        let len = 2000;
        let flat = framed_reply(len);
        for take in [1, 3, 7, 500, usize::MAX] {
            for budget in [0, 2, 4, 5, 300, 1501, usize::MAX] {
                let mut driver = gathering_driver(len, 300, &overload());
                let mut io = mem(b"go", take, budget, Duration::ZERO);
                let mut step = driver.drive(&mut io, &ctx()).unwrap();
                let ConnIo::Mem(m) = &mut io else {
                    unreachable!()
                };
                m.budget = usize::MAX;
                if step.wants == Wants::Write {
                    step = driver.drive(&mut io, &ctx()).unwrap();
                }
                assert_eq!(step.wants, Wants::Read, "take {take} budget {budget}");
                let ConnIo::Mem(m) = &io else { unreachable!() };
                assert_eq!(m.output, flat, "take {take} budget {budget}");
                assert!(!driver.in_flight());
            }
        }
    }

    /// A reply that ends short of the length its framing declared is
    /// never finished: the connection errors out instead.
    #[test]
    fn a_short_gathered_reply_ends_the_connection() {
        let handler = |_: &mut (), _: &[u8], _: &mut Vec<u8>, ctl: &mut ReplyControl<'_>| {
            ctl.gather(10).unwrap().put(b"abc", b"");
        };
        let mut driver = FramedDriver::new(
            (),
            Arc::new(handler),
            crate::metrics::tcp_server(),
            overload(),
        );
        let mut io = mem(b"go", usize::MAX, usize::MAX, Duration::ZERO);
        assert!(driver.drive(&mut io, &ctx()).is_err());
    }

    #[test]
    fn message_buf_keeps_its_high_water_length() {
        let mut buf = MessageBuf::default();
        buf.extend(b"a long first payload");
        buf.clear();
        buf.extend(b"tiny");
        assert_eq!(buf.bytes(), b"tiny");
        buf.extend(b" and then a longer second part");
        assert_eq!(buf.bytes(), b"tiny and then a longer second part");
        buf.clear();
        assert_eq!(buf.bytes(), b"");
    }
}
