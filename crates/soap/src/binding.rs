//! Binding policies (paper §5.3).
//!
//! "The binding concept is an object that implements the binding rules
//! for carrying a SOAP message within or on top of another protocol."
//! The client-side valid expressions are exactly the paper's:
//! `send_request` and `receive_response`. (The server halves,
//! `receive_request`/`send_response`, live in [`crate::server`] where the
//! accept loop owns the connection.)

use transport::faulty::FaultAction;
use transport::{
    BodySink, Deadline, FramedStream, HttpConnection, HttpResponse, SharedInjector, Timeouts,
    TransportError, MAX_PART_LEN,
};

use crate::error::{SoapError, SoapResult};
use crate::fault::SoapFault;
use crate::metrics;

/// Client-side transport binding.
///
/// The buffer-reusing form is the *required* receive method: every
/// binding must be able to land response bytes in caller-owned storage
/// (the engine's steady-state path). The allocating `receive_response`
/// and the exchange conveniences are defaults on top.
pub trait BindingPolicy {
    /// Transmit one request payload.
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()>;
    /// Receive the matching response payload into a reusable buffer
    /// (contents replaced, capacity kept).
    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()>;

    /// Receive the matching response payload into fresh storage. Default:
    /// delegates to
    /// [`receive_response_into`](BindingPolicy::receive_response_into).
    fn receive_response(&mut self) -> SoapResult<Vec<u8>> {
        let mut out = Vec::new();
        self.receive_response_into(&mut out)?;
        Ok(out)
    }

    /// Request/response convenience. Default: delegates through
    /// [`exchange_into`](BindingPolicy::exchange_into).
    fn exchange(&mut self, payload: &[u8], content_type: &str) -> SoapResult<Vec<u8>> {
        let mut out = Vec::new();
        self.exchange_into(payload, content_type, &mut out)?;
        Ok(out)
    }

    /// Request/response into a reusable response buffer — the engine's
    /// steady-state path.
    fn exchange_into(
        &mut self,
        payload: &[u8],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        self.send_request(payload, content_type)?;
        self.receive_response_into(out)
    }

    /// [`exchange_into`](BindingPolicy::exchange_into) with the request
    /// payload given as `parts` concatenated — the engine's gather path
    /// (see [`crate::EncodingPolicy::encode_parts_into`]). Default: one
    /// part goes straight to `exchange_into`; several are concatenated
    /// into a fresh buffer first, so a binding without a gather write
    /// stays correct.
    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        match parts {
            [payload] => self.exchange_into(payload, content_type, out),
            _ => self.exchange_into(&parts.concat(), content_type, out),
        }
    }

    /// [`exchange_parts_into`](BindingPolicy::exchange_parts_into) with
    /// the response body read through `reply` as it arrives, so the
    /// receiver can put parts of it where they are going to be used (the
    /// typed call path places a BXSA reply's large arrays this way).
    /// Default: the whole body into [`BodySink::whole`].
    fn exchange_parts_to(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        reply: &mut dyn BodySink,
    ) -> SoapResult<()> {
        self.exchange_parts_into(parts, content_type, reply.whole())
    }

    /// One-way send (no response expected).
    fn send_one_way(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.send_request(payload, content_type)
    }

    /// Bound the *next* exchanges by a caller's end-to-end deadline:
    /// network-capable bindings narrow their per-phase socket budgets to
    /// what the deadline has left (and fail with the typed timeout once
    /// it is spent). `None` restores the binding's static timeouts.
    /// Default: ignored (in-process bindings have no sockets to bound).
    fn set_call_deadline(&mut self, deadline: Option<Deadline>) {
        let _ = deadline;
    }
}

/// SOAP over HTTP POST: each request is one HTTP exchange, carried over a
/// persistent keep-alive connection.
///
/// "The HTTP binding will create a HTTP request message with the
/// serialized SOAP message as payload" (§5.3). The connection is cached
/// across calls ([`HttpConnection`]) so the steady-state cost per call is
/// one write and one read, not a TCP handshake; a server that answers
/// `Connection: close` simply reverts the binding to one exchange per
/// connect.
#[derive(Debug)]
pub struct HttpBinding {
    addr: String,
    /// SOAPAction header value, if the service wants one.
    pub soap_action: Option<String>,
    /// Per-phase time budgets for each exchange (default: unlimited).
    pub timeouts: Timeouts,
    /// Reusable request head: the path is fixed at construction; the
    /// body is never copied in — each exchange borrows the engine's
    /// encoded payload.
    request: transport::HttpRequest,
    /// Reusable response parse target (body capacity survives).
    response: HttpResponse,
    /// The cached keep-alive connection (reconnects lazily).
    conn: HttpConnection,
    pending: bool,
    /// Live call deadline narrowing `timeouts` for the current call.
    call_deadline: Option<Deadline>,
}

impl HttpBinding {
    /// Bind to an HTTP endpoint (`addr` like `127.0.0.1:8080`).
    pub fn new(addr: &str, path: &str) -> HttpBinding {
        HttpBinding {
            addr: addr.to_owned(),
            soap_action: None,
            timeouts: Timeouts::none(),
            request: transport::HttpRequest::post(path, "", Vec::new()),
            response: HttpResponse::empty(),
            conn: HttpConnection::new(addr),
            pending: false,
            call_deadline: None,
        }
    }

    /// Set per-phase time budgets (chainable).
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> HttpBinding {
        self.timeouts = timeouts;
        self
    }

    /// The endpoint address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Exchanges that reused the cached connection (diagnostics).
    pub fn connection_reuses(&self) -> u64 {
        self.conn.reuse_count()
    }

    /// Point the reusable request's headers at this exchange's content
    /// type and SOAPAction. They are rebuilt only when either changed, so
    /// a steady caller allocates nothing here.
    fn set_headers(&mut self, content_type: &str) {
        let headers = &self.request.headers;
        let current = headers.len() == 1 + usize::from(self.soap_action.is_some())
            && headers[0].1 == content_type
            && headers.get(1).map(|(_, v)| v) == self.soap_action.as_ref();
        if current {
            return;
        }
        let headers = &mut self.request.headers;
        headers.clear();
        headers.push(("Content-Type".into(), content_type.into()));
        if let Some(action) = &self.soap_action {
            headers.push(("SOAPAction".into(), action.clone()));
        }
    }

    // --- streaming half: the one streamed client, used by
    // `SoapEngine::call_streaming` and by the streaming relay's up-link ---
    //
    // The same reusable request scaffold and cached connection, but the
    // body goes out as chunked transfer-encoding: one chunk per message
    // part, written as the caller produces them. Only the head write may
    // transparently reconnect; once the first part is on the wire the
    // exchange is not replayable and any failure poisons the socket.
    // This half counts the client side of the stream metrics.

    /// Open a streamed request: send the chunked head. `deadline`, when
    /// set, narrows every phase budget of the whole exchange.
    pub(crate) fn stream_begin(
        &mut self,
        content_type: &str,
        deadline: Option<&Deadline>,
    ) -> SoapResult<()> {
        self.pending = false;
        self.set_headers(content_type);
        let timeouts = match deadline {
            Some(d) => self.timeouts.clamped_to(d).map_err(SoapError::Transport)?,
            None => self.timeouts,
        };
        self.conn.stream_begin_with(&self.request, &timeouts)?;
        metrics::stream().streams.inc();
        Ok(())
    }

    /// Send one message part as one chunk. A part over the
    /// [`MAX_PART_LEN`] window is refused before anything is written.
    pub(crate) fn stream_send_part(&mut self, part: &[u8]) -> SoapResult<()> {
        if part.len() > MAX_PART_LEN {
            return Err(SoapError::Protocol(format!(
                "encoded part is {} bytes, over the {MAX_PART_LEN} byte streaming window",
                part.len(),
            )));
        }
        self.conn.stream_send_part(part)?;
        metrics::count_part(&metrics::stream().parts_out, part);
        Ok(())
    }

    /// Terminate the request body and land the reply's manifest in `out`
    /// (replaced, capacity kept). `Ok(true)`: the reply is streamed and
    /// its parts follow through
    /// [`stream_next_part_into`](HttpBinding::stream_next_part_into).
    /// `Ok(false)`: the reply was buffered and `out` holds its whole body;
    /// SOAP faults ride in buffered 500s exactly like the non-streamed
    /// path.
    pub(crate) fn stream_reply_manifest(&mut self, out: &mut Vec<u8>) -> SoapResult<bool> {
        self.conn.stream_finish_send()?;
        let streamed = self.conn.stream_read_head(&mut self.response)?;
        if !self.response.is_success() && self.response.status != 500 {
            return Err(SoapError::Transport(self.response.status_error()));
        }
        if !streamed {
            std::mem::swap(out, &mut self.response.body);
            return Ok(false);
        }
        if !self.stream_next_part_into(out)? {
            return Err(SoapError::Protocol(
                "streamed reply ended before its manifest".into(),
            ));
        }
        Ok(true)
    }

    /// Pull the next reply part into `out` (replaced, capacity kept).
    /// `Ok(false)`: the terminator arrived — the reply is complete and
    /// the connection stays reusable.
    pub(crate) fn stream_next_part_into(&mut self, out: &mut Vec<u8>) -> SoapResult<bool> {
        if !self.conn.stream_next_part_into(out, MAX_PART_LEN)? {
            return Ok(false);
        }
        metrics::count_part(&metrics::stream().parts_in, out);
        Ok(true)
    }
}

impl Clone for HttpBinding {
    fn clone(&self) -> HttpBinding {
        // A clone is a fresh client to the same endpoint: sockets are not
        // shareable, so it starts disconnected and dials on first use.
        HttpBinding {
            addr: self.addr.clone(),
            soap_action: self.soap_action.clone(),
            timeouts: self.timeouts,
            request: self.request.clone(),
            response: HttpResponse::empty(),
            conn: HttpConnection::new(&self.addr),
            pending: false,
            call_deadline: self.call_deadline,
        }
    }
}

impl HttpBinding {
    /// One HTTP exchange whose body is `parts` concatenated, written in
    /// one gather write after the head. The response body goes to
    /// `reply` when given; otherwise it waits in `self.response` for
    /// `receive_response_into`.
    fn send_parts(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        reply: Option<&mut dyn BodySink>,
    ) -> SoapResult<()> {
        self.pending = false;
        self.set_headers(content_type);
        // One HTTP exchange = write + read on the cached connection
        // (connect only when cold or the kept socket died); under a call
        // deadline every phase budget narrows to what's left (and an
        // already-spent deadline fails here, before any socket work).
        let timeouts = match &self.call_deadline {
            Some(d) => self.timeouts.clamped_to(d).map_err(SoapError::Transport)?,
            None => self.timeouts,
        };
        let placed = reply.is_some();
        match reply {
            Some(reply) => {
                self.conn.exchange_with_to(
                    &self.request,
                    parts,
                    &timeouts,
                    &mut self.response,
                    reply,
                )?;
                // A fault's 500 body was read into the response whole.
                if self.response.status == 500 {
                    std::mem::swap(reply.whole(), &mut self.response.body);
                }
            }
            None => {
                self.conn
                    .exchange_with_into(&self.request, parts, &timeouts, &mut self.response)?
            }
        }
        // SOAP-over-HTTP delivers faults in 500 responses with a SOAP
        // body; anything else non-2xx is a transport-level error carrying
        // the status, a body prefix, and any Retry-After.
        if !self.response.is_success() && self.response.status != 500 {
            return Err(SoapError::Transport(self.response.status_error()));
        }
        self.pending = !placed;
        Ok(())
    }
}

impl BindingPolicy for HttpBinding {
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.send_parts(&[payload], content_type, None)
    }

    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        self.send_parts(parts, content_type, None)?;
        self.receive_response_into(out)
    }

    fn exchange_parts_to(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        reply: &mut dyn BodySink,
    ) -> SoapResult<()> {
        self.send_parts(parts, content_type, Some(reply))
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        if !std::mem::take(&mut self.pending) {
            return Err(SoapError::Protocol(
                "receive_response before send_request".into(),
            ));
        }
        // Swap keeps both buffers in the reuse cycle: the caller gets
        // the response bytes, the binding gets a capacity-bearing buffer
        // for the next response.
        std::mem::swap(out, &mut self.response.body);
        Ok(())
    }

    fn set_call_deadline(&mut self, deadline: Option<Deadline>) {
        self.call_deadline = deadline;
    }
}

/// SOAP over raw TCP with length-prefixed framing: "the TCP binding will
/// just dump the serialization directly to a TCP connection" (§5.3).
///
/// The connection persists across calls and reconnects lazily after
/// failures.
#[derive(Debug)]
pub struct TcpBinding {
    addr: String,
    /// Per-phase time budgets applied on (re)connect (default: unlimited).
    pub timeouts: Timeouts,
    stream: Option<FramedStream>,
    /// Live call deadline narrowing `timeouts` for the current call.
    call_deadline: Option<Deadline>,
    /// The persistent socket currently carries deadline-narrowed budgets
    /// (they must be restored once the deadline is cleared).
    deadline_applied: bool,
}

impl TcpBinding {
    /// Bind to a framed-TCP endpoint.
    pub fn new(addr: &str) -> TcpBinding {
        TcpBinding {
            addr: addr.to_owned(),
            timeouts: Timeouts::none(),
            stream: None,
            call_deadline: None,
            deadline_applied: false,
        }
    }

    /// Set per-phase time budgets (chainable); applied on next connect.
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> TcpBinding {
        self.timeouts = timeouts;
        self.stream = None; // reconnect with the new budgets
        self
    }

    /// The endpoint address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn stream(&mut self) -> SoapResult<&mut FramedStream> {
        // Under a call deadline every phase narrows to what's left; an
        // already-spent deadline fails here, before any socket work. The
        // connection persists across calls, so deadline budgets are
        // (re)applied per use and the static ones restored afterwards —
        // tracked by `deadline_applied` so deadline-free traffic on a
        // warm connection costs no timeout syscalls.
        let timeouts = match &self.call_deadline {
            Some(d) => self.timeouts.clamped_to(d).map_err(SoapError::Transport)?,
            None => self.timeouts,
        };
        match &mut self.stream {
            None => {
                self.stream = Some(FramedStream::connect_with(&self.addr, &timeouts)?);
                self.deadline_applied = self.call_deadline.is_some();
            }
            Some(stream) => {
                if self.call_deadline.is_some() || self.deadline_applied {
                    stream.set_read_timeout(timeouts.read)?;
                    stream.set_write_timeout(timeouts.write)?;
                    self.deadline_applied = self.call_deadline.is_some();
                }
            }
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    /// Send one frame whose payload is `parts` concatenated, prefix and
    /// parts in one gather write.
    fn send_parts(&mut self, parts: &[&[u8]]) -> SoapResult<()> {
        let result = self.stream()?.send_parts(parts);
        if result.is_err() {
            self.stream = None; // force reconnect next time
        }
        result.map_err(Into::into)
    }
}

impl BindingPolicy for TcpBinding {
    fn send_request(&mut self, payload: &[u8], _content_type: &str) -> SoapResult<()> {
        // Raw TCP carries no metadata; the content type is implicit in
        // the endpoint contract (the generic engine guarantees both ends
        // agree at compile time).
        self.send_parts(&[payload])
    }

    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        _content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        self.send_parts(parts)?;
        self.receive_response_into(out)
    }

    fn exchange_parts_to(
        &mut self,
        parts: &[&[u8]],
        _content_type: &str,
        reply: &mut dyn BodySink,
    ) -> SoapResult<()> {
        self.send_parts(parts)?;
        let result = self.stream()?.recv_to(reply);
        if result.is_err() {
            self.stream = None;
        }
        result.map_err(Into::into)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        let result = self.stream()?.recv_into(out);
        if result.is_err() {
            self.stream = None;
        }
        result.map_err(Into::into)
    }

    fn set_call_deadline(&mut self, deadline: Option<Deadline>) {
        self.call_deadline = deadline;
    }
}

/// A loopback binding for tests and in-process composition: requests are
/// answered by a closure.
pub struct LoopbackBinding<F>
where
    F: FnMut(&[u8]) -> Vec<u8>,
{
    handler: F,
    pending: Option<Vec<u8>>,
    /// Reused buffer a request given in several parts is joined in,
    /// since the handler takes one slice.
    flat: Vec<u8>,
}

impl<F> LoopbackBinding<F>
where
    F: FnMut(&[u8]) -> Vec<u8>,
{
    /// A loopback answering with `handler`.
    pub fn new(handler: F) -> LoopbackBinding<F> {
        LoopbackBinding {
            handler,
            pending: None,
            flat: Vec::new(),
        }
    }
}

impl<F> BindingPolicy for LoopbackBinding<F>
where
    F: FnMut(&[u8]) -> Vec<u8>,
{
    fn send_request(&mut self, payload: &[u8], _content_type: &str) -> SoapResult<()> {
        self.pending = Some((self.handler)(payload));
        Ok(())
    }

    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        _content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        let payload = match parts {
            [payload] => payload,
            _ => {
                self.flat.clear();
                for part in parts {
                    self.flat.extend_from_slice(part);
                }
                &self.flat[..]
            }
        };
        self.pending = Some((self.handler)(payload));
        self.receive_response_into(out)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        let response = self
            .pending
            .take()
            .ok_or_else(|| SoapError::Protocol("receive_response before send_request".into()))?;
        *out = response;
        Ok(())
    }
}

/// A fault-injecting decorator over any [`BindingPolicy`].
///
/// Consults a shared, seeded [`transport::FaultInjector`] at each
/// message-level event and surfaces its decisions as the same typed
/// transport errors a real flaky network would produce:
///
/// * refused connect → [`TransportError::ConnectFailed`] (retry-safe —
///   the request never left the client),
/// * drop mid-exchange → [`TransportError::ConnectionClosed`],
/// * stall → [`TransportError::TimedOut`],
/// * truncate/corrupt → the mutated bytes are passed through for the
///   decoders downstream to reject.
///
/// Sharing one [`SharedInjector`] between a `FaultingBinding` and any
/// [`transport::FaultingTransport`] streams keeps the whole test run on a
/// single deterministic fault schedule.
pub struct FaultingBinding<B: BindingPolicy> {
    inner: B,
    injector: SharedInjector,
}

impl<B: BindingPolicy> FaultingBinding<B> {
    /// Decorate `inner` with faults drawn from `injector`.
    pub fn new(inner: B, injector: SharedInjector) -> FaultingBinding<B> {
        FaultingBinding { inner, injector }
    }

    /// The decorated binding.
    pub fn inner(&mut self) -> &mut B {
        &mut self.inner
    }

    fn surface(&self, action: FaultAction) -> SoapResult<()> {
        match action {
            FaultAction::Drop => Err(SoapError::Transport(TransportError::ConnectionClosed)),
            FaultAction::Stall => Err(SoapError::Transport(TransportError::TimedOut {
                elapsed: std::time::Duration::ZERO,
                budget: std::time::Duration::ZERO,
            })),
            // Deliver / Delay (virtual time) / Truncate / Corrupt: the
            // (possibly mutated) bytes still flow.
            _ => Ok(()),
        }
    }

    /// Send `message` to the inner binding after the injector had its
    /// say: a refused connect, or a drop, stall or mutation of the bytes.
    fn send_message(&mut self, mut message: Vec<u8>, content_type: &str) -> SoapResult<()> {
        // Connect-level refusals happen before any bytes leave the
        // client, so they are the retry-safe failure class.
        if !self.injector.lock().connect_allowed() {
            return Err(SoapError::Transport(TransportError::ConnectFailed {
                addr: "<fault-injector>".into(),
                source: std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "injected connect refusal",
                ),
            }));
        }
        let action = self.injector.lock().mutate_message(&mut message);
        self.surface(action)?;
        self.inner.send_request(&message, content_type)
    }
}

impl<B: BindingPolicy> BindingPolicy for FaultingBinding<B> {
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.send_message(payload.to_vec(), content_type)
    }

    /// The parts are joined into the one copy the injector mutates.
    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        self.send_message(parts.concat(), content_type)?;
        self.receive_response_into(out)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        self.inner.receive_response_into(out)?;
        let action = self.injector.lock().mutate_message(out);
        self.surface(action)
    }

    fn set_call_deadline(&mut self, deadline: Option<Deadline>) {
        self.inner.set_call_deadline(deadline);
    }
}

/// Helper: is this error a SOAP fault (as opposed to a transport/encoding
/// failure)?
pub fn as_fault(err: &SoapError) -> Option<&SoapFault> {
    match err {
        SoapError::Fault(f) => Some(f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_echoes() {
        let mut b = LoopbackBinding::new(|req: &[u8]| {
            let mut v = req.to_vec();
            v.extend_from_slice(b"!");
            v
        });
        let out = b.exchange(b"ping", "text/xml").unwrap();
        assert_eq!(out, b"ping!");
    }

    /// Implements only the required methods, so every default applies.
    struct Minimal {
        sent: Vec<Vec<u8>>,
    }

    impl BindingPolicy for Minimal {
        fn send_request(&mut self, payload: &[u8], _: &str) -> SoapResult<()> {
            self.sent.push(payload.to_vec());
            Ok(())
        }

        fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
            out.clear();
            out.extend_from_slice(b"ok");
            Ok(())
        }
    }

    #[test]
    fn parts_reach_bindings_without_a_gather_write_joined() {
        let mut out = Vec::new();
        let mut minimal = Minimal { sent: Vec::new() };
        minimal
            .exchange_parts_into(&[b"ab", b"", b"cde"], "t", &mut out)
            .unwrap();
        minimal
            .exchange_parts_into(&[b"one"], "t", &mut out)
            .unwrap();
        assert_eq!(minimal.sent, [b"abcde".to_vec(), b"one".to_vec()]);
        assert_eq!(out, b"ok");

        let mut loopback = LoopbackBinding::new(|req: &[u8]| req.iter().rev().copied().collect());
        loopback
            .exchange_parts_into(&[b"12", b"345"], "t", &mut out)
            .unwrap();
        assert_eq!(out, b"54321");
        loopback
            .exchange_parts_into(&[b"x"], "t", &mut out)
            .unwrap();
        assert_eq!(out, b"x");
        loopback
            .exchange_parts_into(&[b"", b"yz"], "t", &mut out)
            .unwrap();
        assert_eq!(out, b"zy");
    }

    #[test]
    fn receive_before_send_is_protocol_error() {
        let mut b = LoopbackBinding::new(|_: &[u8]| vec![]);
        assert!(matches!(
            b.receive_response(),
            Err(SoapError::Protocol(_))
        ));
        let mut h = HttpBinding::new("127.0.0.1:1", "/");
        assert!(matches!(h.receive_response(), Err(SoapError::Protocol(_))));
    }

    #[test]
    fn tcp_binding_roundtrip_against_real_server() {
        let server = transport::ServerBuilder::bind("127.0.0.1:0")
            .serve_framed(
                || (),
                |_scratch, req, out, _ctl| {
                    out.extend_from_slice(req);
                    out.reverse();
                },
            )
            .unwrap();
        let mut binding = TcpBinding::new(&server.local_addr().to_string());
        let out = binding.exchange(b"abc", "application/bxsa").unwrap();
        assert_eq!(out, b"cba");
        // Connection reuse: second exchange on the same stream.
        let out = binding.exchange(b"12345", "application/bxsa").unwrap();
        assert_eq!(out, b"54321");
        // A gathered request is one frame of the parts' total length.
        let mut out = Vec::new();
        binding
            .exchange_parts_into(&[b"ab", b"", b"cd"], "application/bxsa", &mut out)
            .unwrap();
        assert_eq!(out, b"dcba");
        drop(binding);
        server.shutdown();
    }

    #[test]
    fn tcp_binding_reports_connect_failure() {
        // Port 1 is essentially never listening.
        let mut binding = TcpBinding::new("127.0.0.1:1");
        assert!(binding.send_request(b"x", "t").is_err());
    }

    #[test]
    fn http_binding_roundtrip_against_real_server() {
        let server = transport::ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                |(), head, body, reply, _ctl| {
                    assert_eq!(head.method, "POST");
                    assert_eq!(head.header("soapaction"), Some("\"op\""));
                    reply.body.extend_from_slice(body);
                },
            )
            .unwrap();
        let mut binding = HttpBinding::new(&server.local_addr().to_string(), "/soap");
        binding.soap_action = Some("\"op\"".into());
        let out = binding.exchange(b"<x/>", "text/xml").unwrap();
        assert_eq!(out, b"<x/>");
        let mut out = Vec::new();
        binding
            .exchange_parts_into(&[b"<y>", b"", b"</y>"], "text/xml", &mut out)
            .unwrap();
        assert_eq!(out, b"<y></y>");
        server.shutdown();
    }

    #[test]
    fn http_binding_reuses_its_connection() {
        let server = transport::ServerBuilder::bind("127.0.0.1:0")
            .serve_http(
                || (),
                |(), _head, body, reply, _ctl| reply.body.extend_from_slice(body),
            )
            .unwrap();
        let mut binding = HttpBinding::new(&server.local_addr().to_string(), "/soap");
        for i in 0..5u8 {
            let out = binding.exchange(&[i], "text/xml").unwrap();
            assert_eq!(out, [i]);
        }
        // Calls 2..5 all rode the socket call 1 opened.
        assert_eq!(binding.connection_reuses(), 4);
        // A clone is an independent client: it starts disconnected.
        let clone = binding.clone();
        assert_eq!(clone.connection_reuses(), 0);
        server.shutdown();
    }
}
