//! Service-side message processing: registry, dispatch, and faults.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bxdm::Document;

use crate::encoding::{BxsaEncoding, EncodingPolicy};
use crate::envelope::{must_understand, Admitted, DeadlineHeader, Refusal, SoapEnvelope};
use crate::error::{SoapError, SoapResult};
use crate::fault::{FaultCode, SoapFault};
use crate::typed::{
    decode_view_request, peek_bxsa_operation, BxsaView, FromBxsa, ToBxsa, TypedEncoding,
    TypedRequest, TypedScratch,
};
use transport::GatherSink;

/// A service operation: request envelope in, response envelope out.
pub type ServiceHandler =
    dyn Fn(&SoapEnvelope) -> SoapResult<SoapEnvelope> + Send + Sync + 'static;

/// Maps operation names (the local name of the first body entry) to
/// handlers, and records which header types the service understands.
#[derive(Default)]
pub struct ServiceRegistry {
    handlers: HashMap<String, Box<ServiceHandler>>,
    views: HashMap<String, Box<ViewOp>>,
    understood_headers: Vec<String>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Register an operation by name (chainable).
    pub fn with_operation<F>(mut self, name: &str, handler: F) -> ServiceRegistry
    where
        F: Fn(&SoapEnvelope) -> SoapResult<SoapEnvelope> + Send + Sync + 'static,
    {
        self.register(name, handler);
        self
    }

    /// Register an operation by name.
    pub fn register<F>(&mut self, name: &str, handler: F)
    where
        F: Fn(&SoapEnvelope) -> SoapResult<SoapEnvelope> + Send + Sync + 'static,
    {
        self.handlers.insert(name.to_owned(), Box::new(handler));
    }

    /// Register a view handler for an operation that also has a tree
    /// handler ([`register`](ServiceRegistry::register)): a BXSA request
    /// named `name` whose envelope matches `V`'s shape is read in place —
    /// its arrays borrowed from the bytes the transport received — and
    /// answered straight from a reusable `Resp`, with no element tree
    /// either direction. It passes the same `bx:Deadline` arrival gate
    /// as the tree path.
    ///
    /// Everything else takes the tree handler: XML requests, foreign or
    /// `mustUnderstand` headers, other shapes, and every request the
    /// view cannot read, so each error is answered by the tree path. A
    /// handler error answers as it would from the tree handler, through
    /// [`fault_for_error`].
    pub fn register_view<V, Resp, F>(&mut self, name: &str, handler: F)
    where
        V: BxsaView,
        Resp: ToBxsa + Default + Send + 'static,
        F: for<'a> Fn(&V::View<'a>, &mut Resp) -> SoapResult<()> + Send + Sync + 'static,
    {
        let scratch = parking_lot::Mutex::new((Resp::default(), TypedScratch::default()));
        let op = move |enc: &BxsaEncoding,
                       request: &[u8],
                       outcome: &mut HandleOutcome,
                       reply: &mut dyn ReplyTarget|
              -> bool {
            let Ok(Some((deadline, view))) = decode_view_request::<V>(request) else {
                return false;
            };
            with_scratch(&scratch, |(resp, ts)| {
                let handle = |resp: &mut Resp| handler(&view, resp);
                answer_typed(enc, Ok(deadline), handle, resp, ts, outcome, reply);
            });
            true
        };
        self.views.insert(name.to_owned(), Box::new(op));
    }

    /// Declare a header (by local name) as understood, for
    /// `mustUnderstand` checking (chainable).
    pub fn with_understood_header(mut self, local: &str) -> ServiceRegistry {
        self.understood_headers.push(local.to_owned());
        self
    }

    /// Registered operation names (sorted, for diagnostics).
    pub fn operations(&self) -> Vec<&str> {
        let mut ops: Vec<&str> = self.handlers.keys().map(String::as_str).collect();
        ops.sort_unstable();
        ops
    }

    /// Process one request envelope into a response envelope.
    ///
    /// All failure modes are mapped onto SOAP faults:
    /// * un-understood `mustUnderstand` headers → `MustUnderstand`;
    /// * unknown operation → `Client`;
    /// * handler errors → their class under [`fault_for_error`].
    pub fn dispatch(&self, request: &SoapEnvelope) -> SoapEnvelope {
        // mustUnderstand processing (SOAP 1.1 §4.2.3).
        for header in &request.headers {
            if must_understand(header)
                && !self
                    .understood_headers
                    .iter()
                    .any(|h| h == header.name.local())
            {
                return fault_envelope(SoapFault::new(
                    FaultCode::MustUnderstand,
                    &format!("header {:?} not understood", header.name.local()),
                ));
            }
        }
        let Some(op) = request.operation() else {
            return fault_envelope(SoapFault::new(FaultCode::Client, "empty SOAP body"));
        };
        let Some(handler) = self.handlers.get(op) else {
            return fault_envelope(
                SoapFault::new(FaultCode::Client, &format!("unknown operation {op:?}"))
                    .with_detail(&format!("known operations: {:?}", self.operations())),
            );
        };
        handler(request).unwrap_or_else(|e| fault_envelope(fault_for_error(e)))
    }
}

/// Wrap a fault as a response envelope.
pub fn fault_envelope(fault: SoapFault) -> SoapEnvelope {
    SoapEnvelope::with_body(fault.to_element())
}

/// Map a processing error onto the SOAP 1.1 fault class it deserves
/// (SOAP 1.1 §4.4.1): failures *of the sender's message* — undecodable
/// bytes, malformed envelopes — are `Client` faults ("the message ...
/// should not be resent without change"); failures *of the service* —
/// transport trouble behind the server, internal errors — are `Server`
/// faults (the same message may later succeed). A carried [`SoapFault`]
/// keeps its own code. Every handler kind (tree, view, typed, streamed)
/// and every decode path maps its errors through this one function.
pub fn fault_for_error(err: SoapError) -> SoapFault {
    match err {
        SoapError::Fault(f) => f,
        e @ (SoapError::Bxsa(_) | SoapError::Xml(_) | SoapError::Protocol(_)) => {
            SoapFault::new(FaultCode::Client, &e.to_string())
        }
        // Transport trouble behind this node — and a tripped breaker on
        // an upstream it relays to — are the service's problem, not the
        // sender's: `Server` class, the same message may later succeed.
        e @ (SoapError::Transport(_) | SoapError::CircuitOpen { .. }) => {
            SoapFault::new(FaultCode::Server, &e.to_string())
        }
    }
}

/// Reusable server-side decode state: the request document each message
/// is decoded into, refilled in place by
/// [`EncodingPolicy::decode_into`]. Keep one per connection (both
/// servers build one per connection) and steady-state dispatch of
/// similarly-shaped requests does no decode-side allocation.
#[derive(Default)]
pub struct DecodeScratch {
    doc: Document,
}

impl DecodeScratch {
    /// Decode `request` into the scratch document and lend its envelope
    /// to `serve`. The entries are moved out for the loan and put back
    /// afterwards, so the payload is never copied and the next decode
    /// refills the same buffers.
    fn lend<E: EncodingPolicy, R>(
        &mut self,
        encoding: &E,
        request: &[u8],
        serve: impl FnOnce(&SoapEnvelope) -> SoapResult<R>,
    ) -> SoapResult<R> {
        encoding.decode_into(request, &mut self.doc)?;
        let envelope = SoapEnvelope::take_from(&mut self.doc)?;
        let result = serve(&envelope);
        envelope.restore_into(&mut self.doc);
        result
    }
}

/// A type-erased typed-operation servicer: request bytes in, response
/// and outcome out. `false` means the request doesn't fit the typed fast
/// path (foreign headers, wrong operation shape) and the generic tree
/// pipeline must run instead.
type TypedOp = dyn Fn(&[u8], &mut HandleOutcome, &mut dyn ReplyTarget) -> bool + Send + Sync;

/// A type-erased view operation: the service's BXSA policy and the
/// request bytes in, response and outcome out. `false` means the request
/// doesn't fit the view, and the tree pipeline runs instead.
type ViewOp =
    dyn Fn(&BxsaEncoding, &[u8], &mut HandleOutcome, &mut dyn ReplyTarget) -> bool + Send + Sync;

/// Where a reply goes, as [`SoapService::handle`] is given it: always a
/// buffer to encode into and, on a live connection, the socket itself,
/// so that a reply's large packed arrays go out from where the handler
/// holds them instead of through a copy (a gathered reply; see
/// [`transport::gather`]). A plain `Vec<u8>` is a target with no socket.
pub trait ReplyTarget {
    /// The buffer a whole reply is encoded into (contents replaced).
    fn buf(&mut self) -> &mut Vec<u8>;

    /// Can a gathered reply start here? Default: no.
    fn can_gather(&self) -> bool {
        false
    }

    /// Start a gathered reply of `len` bytes: a successful answer (never
    /// a fault), framed and sent through the returned sink. `None` when
    /// the target cannot take one; the reply is then encoded whole into
    /// [`buf`](ReplyTarget::buf). Default: `None`.
    fn gather(&mut self, len: usize) -> Option<GatherSink<'_>> {
        let _ = len;
        None
    }
}

impl ReplyTarget for Vec<u8> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self
    }
}

/// A type-erased operation peek: wire bytes in, borrowed operation name
/// out (`None` when the bytes don't parse far enough to name one).
type TypedPeek = dyn for<'a> Fn(&'a [u8]) -> Option<&'a str> + Send + Sync;

/// Run `f` on an operation's shared scratch, or on fresh scratch when
/// another request holds it: concurrent requests for one operation
/// never wait on each other.
fn with_scratch<S: Default, R>(shared: &parking_lot::Mutex<S>, f: impl FnOnce(&mut S) -> R) -> R {
    match shared.try_lock() {
        Some(mut guard) => f(&mut guard),
        None => f(&mut S::default()),
    }
}

/// Answer a request the typed or view path read (`request` is its
/// `bx:Deadline` header, or the error reading it): `handle` fills `resp`
/// behind the arrival gate, and `resp` is sent straight from its fields
/// ([`TypedEncoding::send_typed`]). An error reading or handling the
/// request is encoded as its [`fault_for_error`] fault; a reply that
/// fails to encode, as [`unencodable_reply`]'s Server fault.
fn answer_typed<E: TypedEncoding, Resp: ToBxsa>(
    enc: &E,
    request: SoapResult<Option<DeadlineHeader>>,
    handle: impl FnOnce(&mut Resp) -> SoapResult<()>,
    resp: &mut Resp,
    ts: &mut TypedScratch,
    outcome: &mut HandleOutcome,
    reply: &mut dyn ReplyTarget,
) {
    let served = request.map_err(fault_for_error).and_then(|deadline| {
        outcome
            .serve_within(deadline.map(|h| h.admit()), |_| {
                handle(resp).map_err(fault_for_error)?;
                enc.send_typed(&*resp, ts, reply)
                    .map_err(unencodable_reply)
            })
            .map_err(fault_for_error)?
    });
    outcome.is_fault = match served {
        Ok(()) => false,
        Err(fault) => encode_reply(enc, fault_envelope(fault), reply.buf()),
    };
}

/// The fault a node answers when its own reply cannot be encoded: the
/// service failed, not the sender's message, so it is a Server fault.
pub(crate) fn unencodable_reply(err: SoapError) -> SoapFault {
    SoapFault::new(
        FaultCode::Server,
        &format!("reply could not be encoded: {err}"),
    )
}

/// Encode a response or fault envelope into `out`, never failing, and
/// return whether the answer is a fault. Every SOAP node answers through
/// this. A response that fails to encode is answered with the encoded
/// [`unencodable_reply`] fault instead; only a fault envelope that
/// itself fails to encode degrades to a plain-text payload, rather than
/// a server panic.
pub(crate) fn encode_reply<E: EncodingPolicy>(
    encoding: &E,
    response: SoapEnvelope,
    out: &mut Vec<u8>,
) -> bool {
    let is_fault = response.is_fault();
    match encoding.encode_into(&response.into_document(), out) {
        Ok(()) => is_fault,
        Err(e) if !is_fault => encode_reply(encoding, fault_envelope(unencodable_reply(e)), out),
        Err(e) => {
            out.clear();
            out.extend_from_slice(format!("encoding failure: {e}").as_bytes());
            true
        }
    }
}

/// A byte-level SOAP service: a registry plus an encoding policy.
///
/// This is the piece both server bindings share — "receiving the message
/// is just the reverse procedure" (paper §5.1): decode bytes → envelope →
/// dispatch → envelope → encode bytes. It never fails: every error
/// becomes an encoded fault envelope.
///
/// Operations registered through
/// [`register_typed`](SoapService::register_typed) additionally get the
/// typed fast path: requests whose envelope matches the expected typed
/// shape are decoded field-by-field straight into a reusable request
/// struct and the response is encoded straight from the response struct
/// — no element tree on either side. On a BXSA service, the registry's
/// views ([`ServiceRegistry::register_view`]) ride the same pre-dispatch
/// and read their requests in place. Requests that don't fit (foreign
/// headers, faults, unexpected shapes) silently fall back to the tree
/// pipeline above, so the fast path is purely an optimization.
pub struct SoapService<E: EncodingPolicy> {
    encoding: E,
    registry: Arc<ServiceRegistry>,
    typed_ops: HashMap<String, Box<TypedOp>>,
    typed_peek: Option<Box<TypedPeek>>,
    stream_ops: HashMap<String, Box<crate::streaming::StreamOpFactory>>,
}

impl<E: EncodingPolicy> SoapService<E> {
    /// Assemble a service.
    pub fn new(encoding: E, registry: Arc<ServiceRegistry>) -> SoapService<E> {
        // Views read BXSA requests only; they are found by the typed
        // pre-dispatch's peek.
        let typed_peek = (encoding.as_bxsa().is_some() && !registry.views.is_empty())
            .then(|| Box::new(peek_bxsa_operation) as Box<TypedPeek>);
        SoapService {
            encoding,
            registry,
            typed_ops: HashMap::new(),
            typed_peek,
            stream_ops: HashMap::new(),
        }
    }

    /// Register a streaming operation: requests arriving as chunked
    /// part streams whose manifest names `name` are served by a fresh
    /// [`crate::StreamOp`] from `factory`, one instance per exchange.
    /// Parts are fed to it as they arrive and its reply parts are
    /// pulled as the client drains them, so neither direction ever
    /// buffers more than one part. Buffered (non-chunked) requests for
    /// the same operation still take the ordinary registry path.
    pub fn register_streaming<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> Box<dyn crate::streaming::StreamOp> + Send + Sync + 'static,
    {
        self.stream_ops.insert(name.to_owned(), Box::new(factory));
    }

    /// Whether any streaming operations are registered (servers only
    /// install the chunked-upgrade hook when there are).
    pub fn has_streaming(&self) -> bool {
        !self.stream_ops.is_empty()
    }

    /// A fresh [`crate::StreamOp`] for `name`, if one is registered.
    pub(crate) fn new_stream_op(&self, name: &str) -> Option<Box<dyn crate::streaming::StreamOp>> {
        self.stream_ops.get(name).map(|f| f())
    }

    /// Serve `request` through the typed fast path if a typed operation
    /// or, on BXSA, a registry view matches. `true` means the response
    /// went to `reply`; `false` means "take the generic pipeline".
    fn try_typed(
        &self,
        request: &[u8],
        outcome: &mut HandleOutcome,
        reply: &mut dyn ReplyTarget,
    ) -> bool {
        let Some(op) = self.typed_peek.as_ref().and_then(|peek| peek(request)) else {
            return false;
        };
        if let Some(serve) = self.typed_ops.get(op) {
            return serve(request, outcome, reply);
        }
        match (self.encoding.as_bxsa(), self.registry.views.get(op)) {
            (Some(bxsa), Some(serve)) => serve(bxsa, request, outcome, reply),
            _ => false,
        }
    }

    /// The service's encoding policy.
    pub fn encoding(&self) -> &E {
        &self.encoding
    }

    /// Process one encoded request into an encoded response sent to
    /// `reply` — the one receive path both servers run. "Receiving the
    /// message is just the reverse procedure" (paper §5.1): decode →
    /// envelope → dispatch → envelope → encode. It never fails: every
    /// error becomes an encoded fault envelope.
    ///
    /// A `Vec<u8>` target receives the whole response (replaced,
    /// capacity kept). A target on a live connection
    /// ([`ReplyTarget::gather`]) takes a successful typed BXSA reply
    /// whose packed arrays are 4 KiB or more in the machine's byte
    /// order, with no checksum, gathered: the arrays go to the socket
    /// from the typed response's fields, not through the reply buffer.
    /// Tree replies are always encoded whole into the buffer.
    ///
    /// The request is decoded into `scratch`'s document in place, so a
    /// server keeping one scratch per connection serves same-shape
    /// request streams without decode-side allocation. A `bx:Deadline`
    /// header passes the one arrival gate every SOAP node runs: a spent
    /// budget is refused without dispatching, and otherwise the
    /// time left after the handler ran comes back as
    /// [`HandleOutcome::reply_budget`] to cap the reply write.
    pub fn handle(
        &self,
        scratch: &mut DecodeScratch,
        request: &[u8],
        reply: &mut dyn ReplyTarget,
    ) -> HandleOutcome {
        let mut outcome = HandleOutcome::default();
        if self.try_typed(request, &mut outcome, reply) {
            return outcome;
        }
        let response = scratch
            .lend(&self.encoding, request, |envelope| {
                // A malformed deadline header errors out of `?` into a
                // Client fault — a budget we failed to read must not be
                // silently waived.
                let arrived = DeadlineHeader::from_envelope(envelope)?.map(|h| h.admit());
                outcome.serve_within(arrived, |_| self.registry.dispatch(envelope))
            })
            .unwrap_or_else(|e| fault_envelope(fault_for_error(e)));
        outcome.is_fault = encode_reply(&self.encoding, response, reply.buf());
        outcome
    }
}

impl<E: TypedEncoding + Clone + Send + Sync + 'static> SoapService<E> {
    /// Register a typed operation: requests named `name` whose envelope
    /// matches `Req`'s shape are decoded field-by-field into a reusable
    /// `Req`, handled, and answered straight from a reusable `Resp` —
    /// no element tree either direction, allocation-free at steady
    /// state. Anything that doesn't fit falls back to the generic tree
    /// pipeline (and from there to a handler registered under the same
    /// name, or a Client fault if none exists).
    ///
    /// `bx:Deadline` passes the same arrival gate as on
    /// [`handle`](SoapService::handle): expired-on-arrival requests are
    /// rejected without running the handler, and the remaining budget
    /// caps the reply write.
    pub fn register_typed<Req, Resp, F>(&mut self, name: &str, handler: F)
    where
        Req: FromBxsa + Send + 'static,
        Resp: ToBxsa + Default + Send + 'static,
        F: Fn(&Req, &mut Resp) -> SoapResult<()> + Send + Sync + 'static,
    {
        if self.typed_peek.is_none() {
            let enc = self.encoding.clone();
            self.typed_peek = Some(Box::new(move |bytes| enc.peek_operation(bytes)));
        }
        let enc = self.encoding.clone();
        // Per-operation scratch: the request/response structs and the
        // frame writer survive between requests, so a steady stream of
        // same-shape calls does no codec allocation. Under concurrent
        // dispatch of the *same* operation, latecomers fall back to
        // fresh scratch rather than waiting on the lock.
        let scratch: parking_lot::Mutex<(Req, Resp, TypedScratch)> =
            parking_lot::Mutex::new((Req::default(), Resp::default(), TypedScratch::default()));
        let op =
            move |request: &[u8], outcome: &mut HandleOutcome, reply: &mut dyn ReplyTarget| -> bool {
                with_scratch(&scratch, |(req, resp, ts)| {
                    // The operation matched but its payload didn't decode:
                    // that's the sender's bad message, not a shape mismatch —
                    // answer the Client fault here (a typed-only operation has
                    // no tree handler to fall back to, and "unknown operation"
                    // would mislead).
                    let deadline = match enc.decode_typed_request(request, req) {
                        Ok(TypedRequest::Matched { deadline }) => Ok(deadline),
                        Ok(TypedRequest::Fallback) => return false,
                        Err(e) => Err(e),
                    };
                    answer_typed(
                        &enc,
                        deadline,
                        |resp| handler(req, resp),
                        resp,
                        ts,
                        outcome,
                        reply,
                    );
                    true
                })
            };
        self.typed_ops.insert(name.to_owned(), Box::new(op));
    }
}

/// What [`SoapService::handle`] (or a relay) decided, beyond the
/// response bytes themselves: everything a transport needs to put the
/// answer on the wire.
#[derive(Debug, Default)]
pub struct HandleOutcome {
    /// The response is a fault (HTTP bindings map this to status 500).
    pub is_fault: bool,
    /// Time left on the request's deadline after handling — the cap for
    /// writing the reply. `None` when the request carried no deadline.
    /// May be zero: the budget ran out *during* handling, and the
    /// transport clamps the write budget to its minimum.
    pub reply_budget: Option<Duration>,
    /// Retry hint for expired-on-arrival rejections, for transports with
    /// an out-of-band place to put it (HTTP `Retry-After`).
    pub retry_after: Option<Duration>,
}

impl HandleOutcome {
    /// Run `serve` behind a request's `bx:Deadline` arrival decision
    /// (`None` when the request carried no header), recording what the
    /// transport needs: a refusal's retry hint, or the reply budget left
    /// once `serve` returns. A refusal comes back as its fault, and
    /// `serve` never runs.
    pub(crate) fn serve_within<R>(
        &mut self,
        arrived: Option<Result<Admitted, Refusal>>,
        serve: impl FnOnce(Option<&Admitted>) -> R,
    ) -> SoapResult<R> {
        let admitted = arrived.transpose().map_err(|refusal| {
            self.retry_after = refusal.retry_after;
            SoapError::Fault(refusal.fault)
        })?;
        let served = serve(admitted.as_ref());
        self.reply_budget = admitted.map(|a| a.remaining());
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::XmlEncoding;
    use bxdm::{AtomicValue, Element};

    fn echo_registry() -> Arc<ServiceRegistry> {
        Arc::new(
            ServiceRegistry::new()
                .with_operation("Echo", |req| {
                    let payload = req.body_element().expect("dispatch checked").clone();
                    Ok(SoapEnvelope::with_body(
                        Element::component("EchoResponse").with_child(payload),
                    ))
                })
                .with_operation("Fail", |_req| {
                    Err(SoapError::Fault(SoapFault::new(
                        FaultCode::Server,
                        "deliberate",
                    )))
                })
                .with_understood_header("Known"),
        )
    }

    fn env(op: &str) -> SoapEnvelope {
        SoapEnvelope::with_body(Element::component(op))
    }

    /// One request through [`SoapService::handle`] on fresh scratch:
    /// the reply bytes and whether they are a fault.
    fn handle_once<E: EncodingPolicy>(service: &SoapService<E>, request: &[u8]) -> (Vec<u8>, bool) {
        let mut out = Vec::new();
        let outcome = service.handle(&mut DecodeScratch::default(), request, &mut out);
        (out, outcome.is_fault)
    }

    #[test]
    fn dispatch_routes_by_operation() {
        let reg = echo_registry();
        let resp = reg.dispatch(&env("Echo"));
        assert_eq!(resp.operation(), Some("EchoResponse"));
    }

    #[test]
    fn unknown_operation_is_client_fault() {
        let reg = echo_registry();
        let resp = reg.dispatch(&env("Nope"));
        let fault = resp.as_fault().unwrap();
        assert_eq!(fault.code, FaultCode::Client);
        assert!(fault.detail.unwrap().contains("Echo"));
    }

    #[test]
    fn handler_faults_propagate() {
        let reg = echo_registry();
        let fault = reg.dispatch(&env("Fail")).as_fault().unwrap();
        assert_eq!(fault.code, FaultCode::Server);
        assert_eq!(fault.string, "deliberate");
    }

    #[test]
    fn must_understand_enforced() {
        let reg = echo_registry();
        let req = env("Echo").with_header(
            Element::component("Mystery").with_attr("soapenv:mustUnderstand", "1"),
        );
        let fault = reg.dispatch(&req).as_fault().unwrap();
        assert_eq!(fault.code, FaultCode::MustUnderstand);

        // Understood headers pass.
        let req = env("Echo").with_header(
            Element::component("Known").with_attr("soapenv:mustUnderstand", "1"),
        );
        assert!(reg.dispatch(&req).as_fault().is_none());
    }

    #[test]
    fn empty_body_is_client_fault() {
        let reg = echo_registry();
        let fault = reg.dispatch(&SoapEnvelope::default()).as_fault().unwrap();
        assert_eq!(fault.code, FaultCode::Client);
    }

    #[test]
    fn service_handles_bytes_end_to_end() {
        let service = SoapService::new(XmlEncoding::default(), echo_registry());
        let req_bytes = XmlEncoding::default()
            .encode(&env("Echo").into_document())
            .unwrap();
        let (resp_bytes, is_fault) = handle_once(&service, &req_bytes);
        assert!(!is_fault);
        let doc = XmlEncoding::default().decode(&resp_bytes).unwrap();
        let resp = SoapEnvelope::from_document(&doc).unwrap();
        assert_eq!(resp.operation(), Some("EchoResponse"));
    }

    #[test]
    fn service_turns_garbage_into_fault_bytes() {
        let service = SoapService::new(XmlEncoding::default(), echo_registry());
        let (resp_bytes, is_fault) = handle_once(&service, b"<<<not xml");
        assert!(is_fault);
        let doc = XmlEncoding::default().decode(&resp_bytes).unwrap();
        assert!(SoapEnvelope::from_document(&doc).unwrap().is_fault());
    }

    #[test]
    fn error_classes_map_to_the_right_fault_codes() {
        // Sender's problem: bad bytes, bad structure.
        let bxsa_err = bxsa::decode(b"junk").unwrap_err();
        assert_eq!(
            fault_for_error(SoapError::Bxsa(bxsa_err)).code,
            FaultCode::Client
        );
        let xml_err = xmltext::parse("<open").unwrap_err();
        assert_eq!(
            fault_for_error(SoapError::Xml(xml_err)).code,
            FaultCode::Client
        );
        assert_eq!(
            fault_for_error(SoapError::Protocol("no Envelope".into())).code,
            FaultCode::Client
        );
        // Service's problem: transport trouble behind the server.
        assert_eq!(
            fault_for_error(SoapError::Transport(
                transport::TransportError::ConnectionClosed
            ))
            .code,
            FaultCode::Server
        );
        // A carried fault keeps its own code.
        let f = SoapFault::new(FaultCode::MustUnderstand, "hdr");
        assert_eq!(
            fault_for_error(SoapError::Fault(f)).code,
            FaultCode::MustUnderstand
        );
    }

    #[test]
    fn typed_payload_survives_dispatch() {
        let reg = echo_registry();
        let req = SoapEnvelope::with_body(
            Element::component("Echo")
                .with_child(Element::leaf("n", AtomicValue::F64(2.5))),
        );
        let resp = reg.dispatch(&req);
        let echoed = resp.body_element().unwrap().find_child("Echo").unwrap();
        assert_eq!(echoed.child_value("n"), Some(&AtomicValue::F64(2.5)));
    }

    mod typed_dispatch {
        use super::*;
        use crate::encoding::BxsaEncoding;
        use crate::envelope::EXPIRED_RETRY_AFTER;
        use crate::typed::probe::{probe, tree_envelope, Probe};
        use crate::typed::{TypedDecode, TypedEncoding, TypedScratch};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// A service whose `Probe` handler doubles the values and bumps
        /// the tag — distinguishable from the echo a tree handler gives.
        fn typed_service() -> SoapService<BxsaEncoding> {
            let mut service =
                SoapService::new(BxsaEncoding::default(), Arc::new(ServiceRegistry::new()));
            service.register_typed::<Probe, Probe, _>("Probe", |req, resp| {
                resp.values.clear();
                resp.values.extend(req.values.iter().map(|v| v * 2.0));
                resp.tag = req.tag + 1;
                Ok(())
            });
            service
        }

        fn typed_request(p: &Probe, deadline: Option<DeadlineHeader>) -> Vec<u8> {
            let enc = BxsaEncoding::default();
            let mut scratch = TypedScratch::default();
            let mut bytes = Vec::new();
            enc.encode_typed(p, deadline.as_ref(), &mut scratch, &mut bytes)
                .unwrap();
            bytes
        }

        #[test]
        fn typed_operation_is_served_end_to_end() {
            let service = typed_service();
            let request = typed_request(&probe(4), None);
            let (reply, is_fault) = handle_once(&service, &request);
            assert!(!is_fault);
            let mut back = Probe::default();
            let decode = BxsaEncoding::default()
                .decode_typed_reply(&reply, &mut back)
                .unwrap();
            assert_eq!(decode, TypedDecode::Matched);
            assert_eq!(back.tag, 43);
            assert_eq!(back.values, probe(4).values.iter().map(|v| v * 2.0).collect::<Vec<_>>());
        }

        #[test]
        fn foreign_header_falls_back_to_the_tree_pipeline() {
            let service = typed_service();
            // A mustUnderstand header the typed path can't check: it must
            // fall back — and the tree pipeline, with no generic handler
            // registered, answers MustUnderstand (not a typed reply).
            let mut envelope = tree_envelope(&probe(2), None);
            envelope = envelope.with_header(
                Element::component("Mystery").with_attr("soapenv:mustUnderstand", "1"),
            );
            let request = BxsaEncoding::default()
                .encode(&envelope.into_document())
                .unwrap();
            let (reply, is_fault) = handle_once(&service, &request);
            assert!(is_fault);
            let doc = BxsaEncoding::default().decode(&reply).unwrap();
            let fault = SoapEnvelope::from_document(&doc)
                .unwrap()
                .as_fault()
                .unwrap();
            assert_eq!(fault.code, FaultCode::MustUnderstand);
        }

        #[test]
        fn matched_operation_with_bad_payload_is_a_client_fault() {
            let service = typed_service();
            // Operation name matches, payload doesn't: a Probe missing
            // its required tag field must answer Client directly (there
            // is no tree handler to fall back to).
            let envelope = SoapEnvelope::with_body(
                Element::component("p:Probe").with_namespace("p", "http://example.org/probe"),
            );
            let request = BxsaEncoding::default()
                .encode(&envelope.into_document())
                .unwrap();
            let (reply, is_fault) = handle_once(&service, &request);
            assert!(is_fault);
            let doc = BxsaEncoding::default().decode(&reply).unwrap();
            let fault = SoapEnvelope::from_document(&doc)
                .unwrap()
                .as_fault()
                .unwrap();
            assert_eq!(fault.code, FaultCode::Client);
        }

        #[test]
        fn expired_deadline_rejects_without_running_the_handler() {
            static RAN: AtomicBool = AtomicBool::new(false);
            let mut service =
                SoapService::new(BxsaEncoding::default(), Arc::new(ServiceRegistry::new()));
            service.register_typed::<Probe, Probe, _>("Probe", |_req, _resp| {
                RAN.store(true, Ordering::SeqCst);
                Ok(())
            });
            let request = typed_request(&probe(1), Some(DeadlineHeader::new(0, 8)));
            let mut out = Vec::new();
            let outcome = service.handle(&mut DecodeScratch::default(), &request, &mut out);
            assert!(outcome.is_fault);
            assert_eq!(outcome.retry_after, Some(EXPIRED_RETRY_AFTER));
            assert!(!RAN.load(Ordering::SeqCst), "expired requests must not dispatch");
        }

        #[test]
        fn live_deadline_leaves_a_reply_budget() {
            let service = typed_service();
            let request = typed_request(&probe(3), Some(DeadlineHeader::new(5_000, 8)));
            let mut out = Vec::new();
            let outcome = service.handle(&mut DecodeScratch::default(), &request, &mut out);
            assert!(!outcome.is_fault);
            let budget = outcome.reply_budget.expect("deadline ⇒ reply budget");
            assert!(budget > Duration::from_secs(4), "budget {budget:?}");
            let mut back = Probe::default();
            BxsaEncoding::default()
                .decode_typed_reply(&out, &mut back)
                .unwrap();
            assert_eq!(back.tag, 43);
        }
    }
}
