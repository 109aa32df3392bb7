//! The generic SOAP engine (paper §5, §5.1).

use std::time::{Duration, Instant};

use bxdm::Document;
use transport::{BreakerHandle, Deadline, Permit, RetryPolicy};

use crate::binding::BindingPolicy;
use crate::encoding::EncodingPolicy;
use crate::envelope::{DeadlineHeader, SoapEnvelope};
use crate::error::{SoapError, SoapResult};
use crate::metrics;
use crate::typed::{FromBxsa, ToBxsa, TypedDecode, TypedEncoding, TypedScratch};

/// Slots one attempt's gather write may fill: pieces of the encode
/// buffer around at most [`bxsa::MAX_REFS`] arrays left in the request.
const MAX_PARTS: usize = 2 * bxsa::MAX_REFS + 1;

/// What a call sends, stamped and encoded afresh for each attempt.
trait Outgoing<E> {
    /// Is the reply read through the engine's [`Placed`] receiver (a
    /// typed reply), not into its flat response buffer?
    const PLACED: bool = false;

    /// Stamp `header`, if any, then encode into `out` and `parts` as
    /// [`EncodingPolicy::encode_parts_into`] does; returns the number of
    /// filled slots.
    fn encode<'a>(
        &'a mut self,
        enc: &E,
        header: Option<&DeadlineHeader>,
        out: &'a mut Vec<u8>,
        parts: &mut [&'a [u8]],
    ) -> SoapResult<usize>;
}

/// A tree request: the stamp lands in the document in place, and large
/// arrays go out from the document itself.
impl<E: EncodingPolicy> Outgoing<E> for Document {
    fn encode<'a>(
        &'a mut self,
        enc: &E,
        header: Option<&DeadlineHeader>,
        out: &'a mut Vec<u8>,
        parts: &mut [&'a [u8]],
    ) -> SoapResult<usize> {
        if let Some(h) = header {
            h.stamp_document(self);
        }
        enc.encode_parts_into(self, out, parts)
    }
}

/// A typed request and the frame-writer scratch it encodes with; it
/// goes out as one part.
struct TypedOutgoing<'r, Req> {
    request: &'r Req,
    scratch: &'r mut TypedScratch,
}

impl<E: TypedEncoding, Req: ToBxsa> Outgoing<E> for TypedOutgoing<'_, Req> {
    const PLACED: bool = true;

    fn encode<'a>(
        &'a mut self,
        enc: &E,
        header: Option<&DeadlineHeader>,
        out: &'a mut Vec<u8>,
        parts: &mut [&'a [u8]],
    ) -> SoapResult<usize> {
        enc.encode_typed(self.request, header, self.scratch, out)?;
        parts[0] = out;
        Ok(1)
    }
}

/// The typed-reply receiver: a reply's frame heads in one buffer, its
/// large native-order arrays read from the socket into typed slots that
/// the decode then exchanges with the caller's `Vec`s.
#[derive(Default)]
struct Placed(bxsa::Scatter);

impl transport::BodySink for Placed {
    fn begin(&mut self, len: usize) {
        self.0.begin(len);
    }

    fn next_buf(&mut self, max: usize) -> &mut [u8] {
        self.0.next_buf(max)
    }

    fn filled(&mut self, n: usize) {
        self.0.filled(n);
    }

    fn whole(&mut self) -> &mut Vec<u8> {
        self.0.whole()
    }
}

/// Per-call knobs for [`SoapEngine::call_with`]: whether the request
/// may be replayed, and by when the whole call must finish. Retry policy
/// and circuit breaker belong to the engine
/// ([`with_retry`](SoapEngine::with_retry),
/// [`with_breaker`](SoapEngine::with_breaker)).
///
/// `CallOptions::new()` and `CallOptions::default()` are the same value:
/// idempotent, with no deadline.
///
/// ```
/// use soap::CallOptions;
/// use std::time::Duration;
///
/// let opts = CallOptions::new()
///     .within(Duration::from_millis(250))
///     .non_idempotent();
/// assert!(!opts.idempotent);
/// ```
#[derive(Debug, Clone)]
pub struct CallOptions {
    /// May the exchange be replayed on retry-safe failures? `false`
    /// suppresses all retries regardless of the engine's policy.
    pub idempotent: bool,
    /// End-to-end budget for the whole call (all attempts and backoff
    /// delays included). When set, the engine stamps a `bx:Deadline`
    /// header with the *remaining* budget on every attempt and narrows
    /// the binding's socket timeouts to what is left.
    pub deadline: Option<Deadline>,
}

impl CallOptions {
    /// The defaults: idempotent, no deadline.
    pub fn new() -> CallOptions {
        CallOptions {
            idempotent: true,
            deadline: None,
        }
    }

    /// Forbid replays: the request has side effects that must happen at
    /// most once (chainable).
    pub fn non_idempotent(mut self) -> CallOptions {
        self.idempotent = false;
        self
    }

    /// Attach an end-to-end deadline (chainable).
    pub fn with_deadline(mut self, deadline: Deadline) -> CallOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Start a deadline `budget` from now (chainable shorthand for
    /// [`with_deadline`](CallOptions::with_deadline)`(Deadline::within(budget))`).
    pub fn within(self, budget: Duration) -> CallOptions {
        self.with_deadline(Deadline::within(budget))
    }
}

impl Default for CallOptions {
    fn default() -> CallOptions {
        CallOptions::new()
    }
}

/// A message-level security policy: transform outgoing envelopes (e.g.
/// attach a signature header) and check incoming ones.
///
/// Paper §5: "It will be straightforward to introduce more policies
/// (e.g., a security policy) into the generic engine by just adding more
/// template parameters" — this is that parameter. The default,
/// [`NoSecurity`], compiles to nothing.
pub trait SecurityPolicy {
    /// Transform an outgoing envelope (sign, encrypt, stamp...).
    fn apply(&self, envelope: SoapEnvelope) -> SoapResult<SoapEnvelope>;
    /// Check an incoming envelope; an error aborts the exchange.
    fn check(&self, envelope: &SoapEnvelope) -> SoapResult<()>;
}

/// The no-op security policy (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSecurity;

impl SecurityPolicy for NoSecurity {
    #[inline]
    fn apply(&self, envelope: SoapEnvelope) -> SoapResult<SoapEnvelope> {
        Ok(envelope)
    }

    #[inline]
    fn check(&self, _envelope: &SoapEnvelope) -> SoapResult<()> {
        Ok(())
    }
}

/// A SOAP client engine, generic over its encoding, binding, and
/// (optionally) security policies.
///
/// The Rust rendering of the paper's
/// `template <typename EncodingPolicy, typename BindingPolicy> class
/// SoapEngine` — each policy combination monomorphizes into its own
/// engine with static dispatch throughout, so the encoding/transport
/// choice has zero runtime overhead and full inlining (paper §5: "Because
/// the binding is at compile time, compiler optimizations are not
/// impacted").
///
/// Sending a message follows §5.1 exactly: construct the message in the
/// bXDM model, invoke the encoding policy to serialize it into the octet
/// stream, transfer the stream via the binding policy. Receiving is the
/// reverse.
pub struct SoapEngine<E: EncodingPolicy, B: BindingPolicy, S: SecurityPolicy = NoSecurity> {
    encoding: E,
    binding: B,
    security: S,
    /// Retry failed exchanges whose failure class proves the server
    /// cannot have processed the request (`None` = fail fast).
    retry: Option<RetryPolicy>,
    /// Shared circuit breaker consulted before every connect attempt
    /// (`None` = always try).
    breaker: Option<BreakerHandle>,
    /// Exchanges attempted by the most recent call.
    last_attempts: u32,
    /// Request-serialization scratch, reused across calls so a client
    /// issuing many similarly-sized requests serializes allocation-free.
    /// A tree call gathers large arrays from its request document, so
    /// this holds only the bytes around them.
    encode_buf: Vec<u8>,
    /// Response-byte scratch: the binding lands each tree reply's
    /// payload here, reusing the buffer's capacity call over call.
    response_buf: Vec<u8>,
    /// Typed replies land here instead: their large arrays go straight
    /// into slots, so they never pass through a flat buffer.
    reply: Placed,
    /// Response-document scratch: each reply is decoded into this
    /// document in place, so steady-state decoding of similarly-shaped
    /// responses allocates nothing.
    decode_buf: Document,
    /// Typed-encode scratch (frame writer tables), reused across
    /// [`call_typed`](SoapEngine::call_typed) invocations.
    typed_scratch: TypedScratch,
    /// Per-part decode scratch for streamed replies
    /// ([`call_streaming`](SoapEngine::call_streaming)).
    part_scratch: crate::streaming::PartScratch,
}

impl<E: EncodingPolicy, B: BindingPolicy> SoapEngine<E, B> {
    /// Assemble an engine from its two core policies (no security).
    pub fn new(encoding: E, binding: B) -> SoapEngine<E, B> {
        SoapEngine::with_security(encoding, binding, NoSecurity)
    }
}

impl<E: EncodingPolicy, B: BindingPolicy, S: SecurityPolicy> SoapEngine<E, B, S> {
    /// Assemble an engine with an explicit security policy — the paper's
    /// "web service ... with the XML signature applied" configuration.
    pub fn with_security(encoding: E, binding: B, security: S) -> SoapEngine<E, B, S> {
        SoapEngine {
            encoding,
            binding,
            security,
            retry: None,
            breaker: None,
            last_attempts: 0,
            encode_buf: Vec::new(),
            response_buf: Vec::new(),
            reply: Placed::default(),
            decode_buf: Document::new(),
            typed_scratch: TypedScratch::default(),
            part_scratch: Default::default(),
        }
    }

    /// Enable retries for retry-safe transport failures (chainable).
    pub fn with_retry(mut self, policy: RetryPolicy) -> SoapEngine<E, B, S> {
        self.retry = Some(policy);
        self
    }

    /// Route every call through a shared circuit breaker (chainable).
    /// Typically a [`transport::BreakerRegistry`] handle for the
    /// endpoint, so all engines talking to it share one view of its
    /// health.
    pub fn with_breaker(mut self, breaker: BreakerHandle) -> SoapEngine<E, B, S> {
        self.breaker = Some(breaker);
        self
    }

    /// Exchanges attempted by the most recent call (1 = no retries).
    pub fn last_call_attempts(&self) -> u32 {
        self.last_attempts
    }

    /// The encoding policy.
    pub fn encoding(&self) -> &E {
        &self.encoding
    }

    /// The binding policy.
    pub fn binding(&mut self) -> &mut B {
        &mut self.binding
    }

    /// Request/response message exchange with per-call options — the one
    /// tree call; `CallOptions::new()` asks for the defaults.
    ///
    /// A SOAP fault in the response surfaces as [`SoapError::Fault`],
    /// keeping the happy path a plain envelope.
    ///
    /// **Retries.** With a [`RetryPolicy`] installed
    /// ([`with_retry`](SoapEngine::with_retry)), failed exchanges are
    /// replayed — but
    /// **only** when `options.idempotent` holds *and* the failure class
    /// proves the server cannot have processed the request (connect
    /// refused; 503 with the server declining up front — see
    /// [`transport::TransportError::retry_safe`]). A timeout or reset
    /// after bytes went out is ambiguous, and a SOAP fault is an answer;
    /// neither is ever retried.
    ///
    /// **Deadline.** With [`CallOptions::deadline`] set, the whole call —
    /// every attempt and every backoff delay — shares one budget. Each
    /// attempt stamps a `bx:Deadline` header carrying the *remaining*
    /// milliseconds, so servers and intermediaries downstream inherit
    /// the caller's clock; the binding's socket timeouts are narrowed
    /// the same way. An exhausted budget surfaces as the typed
    /// [`transport::TransportError::TimedOut`].
    ///
    /// **Circuit breaker.** With a [`BreakerHandle`] installed, each
    /// attempt asks the breaker for admission first. While the circuit
    /// is open and no retry budget remains, the call fails fast with
    /// [`SoapError::CircuitOpen`] — zero connect attempts, the
    /// retry-after hint attached. A rejection is generated locally (no
    /// bytes were sent), so when a retry policy *is* installed it counts
    /// as a retry-safe failure: the engine waits out
    /// `max(backoff, retry_after)` — clamped to the policy's delay cap
    /// and the remaining deadline — and tries again, riding through the
    /// breaker's cooldown instead of aborting. Outcomes feed back:
    /// transport-level failures count against the endpoint; an answer of
    /// any kind (including a fault) counts as proof of life.
    pub fn call_with(
        &mut self,
        request: SoapEnvelope,
        options: &CallOptions,
    ) -> SoapResult<SoapEnvelope> {
        // Built once: the entries move into the document, and a retry
        // only re-stamps its deadline header in place.
        let mut request = self.security.apply(request)?.into_document();
        self.run_exchange(options, &mut request, |me| me.finish_call())
    }

    /// The exchange loop shared by the tree and typed call paths: encode
    /// (re-stamping the remaining deadline budget per attempt), admit via
    /// the breaker, exchange, classify failures, back off and retry —
    /// then hand the successful response bytes to `finish`.
    ///
    /// Every attempt encodes afresh: the gathered parts borrow the
    /// request, which a deadline re-stamps between attempts, and a
    /// gathering re-encode of a bulk request writes only frame heads.
    fn run_exchange<R, O: Outgoing<E>>(
        &mut self,
        options: &CallOptions,
        outgoing: &mut O,
        finish: impl FnOnce(&mut Self) -> SoapResult<R>,
    ) -> SoapResult<R> {
        // `Deadline::none()` is unbounded: treat it as no deadline.
        let deadline = options.deadline.filter(|d| d.budget().is_some());
        let breaker = self.breaker.clone();
        let retry = if options.idempotent {
            self.retry.clone()
        } else {
            None
        };
        self.binding.set_call_deadline(deadline);
        self.last_attempts = 0;
        let m = metrics::engine();
        m.calls.inc();
        let call_start = Instant::now();
        let mut schedule = retry.as_ref().map(|p| p.schedule());
        let result = 'call: loop {
            let error = 'attempt: {
                let mut header = None;
                if let Some(d) = &deadline {
                    // Gate the attempt on budget left, and re-stamp so
                    // the wire header carries the *remaining* budget.
                    if let Err(e) = d.remaining() {
                        m.deadline_expired.inc();
                        break 'call Err(SoapError::Transport(e));
                    }
                    header = DeadlineHeader::from_deadline(d);
                }
                let mut parts = [&[][..]; MAX_PARTS];
                let filled = match outgoing.encode(
                    &self.encoding,
                    header.as_ref(),
                    &mut self.encode_buf,
                    &mut parts,
                ) {
                    Ok(n) => n,
                    Err(e) => break 'call Err(e),
                };
                if let Some(b) = &breaker {
                    if let Permit::Rejected { retry_after } = b.preflight() {
                        // A rejection is an ordinary retry-safe failure:
                        // nothing was sent, so a call with retry budget
                        // may wait out the cooldown below instead of
                        // aborting outright. Without a retry policy it
                        // still fails fast.
                        m.circuit_open.inc();
                        break 'attempt SoapError::CircuitOpen {
                            endpoint: b.endpoint().to_owned(),
                            retry_after,
                        };
                    }
                }
                self.last_attempts += 1;
                m.attempts.inc();
                let content_type = self.encoding.content_type();
                let exchanged = if O::PLACED {
                    self.binding
                        .exchange_parts_to(&parts[..filled], content_type, &mut self.reply)
                } else {
                    self.binding.exchange_parts_into(
                        &parts[..filled],
                        content_type,
                        &mut self.response_buf,
                    )
                };
                match exchanged {
                    Ok(()) => {
                        if let Some(b) = &breaker {
                            b.record(true);
                        }
                        break 'call finish(self);
                    }
                    Err(e) => {
                        if let Some(b) = &breaker {
                            // Only transport-level failures indict the
                            // endpoint; any decoded answer (even a
                            // fault) proves it is alive.
                            b.record(!matches!(&e, SoapError::Transport(_)));
                        }
                        break 'attempt e;
                    }
                }
            };
            // May this failure be replayed, and did the other side name a
            // wait? A breaker rejection is generated locally — no bytes
            // reached the endpoint — so it is definitively retry-safe,
            // and its remaining cooldown is the wait hint. A 503 carries
            // its Retry-After the same way.
            let (retry_safe, hint) = match &error {
                SoapError::CircuitOpen { retry_after, .. } => (true, Some(*retry_after)),
                SoapError::Transport(t) => (
                    t.retry_safe(),
                    match t {
                        transport::TransportError::HttpStatus {
                            retry_after_secs: Some(secs),
                            ..
                        } => Some(Duration::from_secs(*secs)),
                        _ => None,
                    },
                ),
                _ => (false, None),
            };
            let delay = if retry_safe {
                schedule.as_mut().and_then(|s| s.next_delay())
            } else {
                None
            };
            let Some(mut delay) = delay else {
                break Err(error);
            };
            if let Some(hint) = hint {
                // The backpressure hint stretches the backoff, bounded by
                // the policy's delay cap so a hostile hint cannot park
                // the client; the stretch is charged against the total
                // sleep budget like any other wait.
                let cap = retry.as_ref().expect("retrying implies policy").cap;
                let stretched = delay.max(hint.min(cap));
                if let Some(s) = schedule.as_mut() {
                    s.absorb(stretched - delay);
                }
                delay = stretched;
            }
            if let Some(d) = &deadline {
                // Sleeping past the deadline cannot help: the budget
                // would expire mid-backoff, so surface the real error.
                match d.remaining() {
                    Ok(Some(left)) if delay < left => {}
                    _ => break Err(error),
                }
            }
            m.retries.inc();
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        };
        self.binding.set_call_deadline(None);
        m.call_latency.observe_duration(call_start.elapsed());
        result
    }

    fn finish_call(&mut self) -> SoapResult<SoapEnvelope> {
        self.encoding
            .decode_into(&self.response_buf, &mut self.decode_buf)?;
        // The caller owns the reply: move its entries out, no copy.
        let envelope = SoapEnvelope::take_from(&mut self.decode_buf)?;
        if let Some(fault) = envelope.as_fault() {
            return Err(SoapError::Fault(fault));
        }
        self.security.check(&envelope)?;
        Ok(envelope)
    }

    /// One-way message (no response expected).
    pub fn send(&mut self, message: SoapEnvelope) -> SoapResult<()> {
        let doc = self.security.apply(message)?.into_document();
        self.encoding.encode_into(&doc, &mut self.encode_buf)?;
        self.binding
            .send_one_way(&self.encode_buf, self.encoding.content_type())
    }
}

/// The typed fast path (no-security engines only: a [`SecurityPolicy`]
/// transforms envelope *trees*, which the typed path never builds — a
/// secured engine keeps the tree surface).
impl<E: TypedEncoding, B: BindingPolicy> SoapEngine<E, B, NoSecurity> {
    /// [`call_with`](SoapEngine::call_with) without the tree: `request`
    /// serializes straight to wire bytes via [`ToBxsa`] and the reply
    /// decodes straight into a `Resp` via [`FromBxsa`]. Retry, deadline
    /// and breaker semantics are identical: both paths share one
    /// exchange loop.
    ///
    /// Replies that don't match `Resp`'s shape fall back to the generic
    /// tree decoder, so faults still surface as [`SoapError::Fault`].
    pub fn call_typed<Req: ToBxsa, Resp: FromBxsa>(
        &mut self,
        request: &Req,
        options: &CallOptions,
    ) -> SoapResult<Resp> {
        let mut response = Resp::default();
        self.call_typed_into(request, &mut response, options)?;
        Ok(response)
    }

    /// [`call_typed`](SoapEngine::call_typed) decoding into a reusable
    /// response struct (clear-and-refill), so a steady-state caller
    /// allocates nothing per call.
    pub fn call_typed_into<Req: ToBxsa, Resp: FromBxsa>(
        &mut self,
        request: &Req,
        response: &mut Resp,
        options: &CallOptions,
    ) -> SoapResult<()> {
        let mut scratch = std::mem::take(&mut self.typed_scratch);
        let mut outgoing = TypedOutgoing {
            request,
            scratch: &mut scratch,
        };
        let result =
            self.run_exchange(options, &mut outgoing, |me| me.finish_typed_call(response));
        self.typed_scratch = scratch;
        result
    }

    /// Decode a typed reply once, in place: a placed array changes
    /// hands with the field it decodes into.
    fn finish_typed_call<Resp: FromBxsa>(&mut self, response: &mut Resp) -> SoapResult<()> {
        let reply = &mut self.reply.0;
        metrics::engine()
            .scattered_bytes
            .add(reply.placed_bytes() as u64);
        let typed = self.encoding.decode_placed_reply(reply, response);
        if let Ok(TypedDecode::Matched) = typed {
            return Ok(());
        }
        // Fallback: decode as a tree to classify the reply — a fault, a
        // foreign shape, or garbage (which errors here like any call).
        // The typed decode ran on the body entry it matched, so an array
        // it took back (zeros in the flat bytes) is never part of a fault
        // and its values decide nothing here.
        self.encoding
            .decode_into(reply.flatten(), &mut self.decode_buf)?;
        let envelope = SoapEnvelope::take_from(&mut self.decode_buf)?;
        if let Some(fault) = envelope.as_fault() {
            return Err(SoapError::Fault(fault));
        }
        match typed {
            // The shape matched well enough to be decoded generically
            // but a typed field was missing or mistyped: surface that.
            Err(e) => Err(e),
            _ => Err(SoapError::Protocol(format!(
                "typed call expected a {} reply, got {}",
                Resp::expected_local(),
                envelope.operation().unwrap_or("an empty body"),
            ))),
        }
    }
}

/// The streaming call path (HTTP binding only: chunked transfer-encoding
/// is the wire mechanism; no-security engines only: a security policy
/// would need the whole message, which streaming never materializes).
impl<E: crate::streaming::StreamEncoding> SoapEngine<E, crate::binding::HttpBinding, NoSecurity> {
    /// A streamed request/response exchange with constant memory on both
    /// sides: the `manifest` envelope opens the message (operation name,
    /// small parameters, the stamped deadline), then `produce` pushes
    /// the payload as individually encoded parts through a
    /// [`PartSender`], each transmitted — and forgotten — as one HTTP
    /// chunk. The reply comes back the same way: its manifest decodes
    /// eagerly and the payload parts are pulled one at a time from the
    /// returned [`StreamingReply`].
    ///
    /// Servers answer errors with a *buffered* fault (HTTP 500), which
    /// surfaces as [`SoapError::Fault`] exactly like the non-streamed
    /// path — including faults decided after the whole request streamed
    /// in.
    ///
    /// **No retries, ever.** Once the first part is on the wire the
    /// request is not replayable from memory (the parts are gone — that
    /// is the point), so failures surface immediately; the engine's retry
    /// policy is ignored. A [`CallOptions::deadline`] still stamps the
    /// manifest and narrows every socket budget of the exchange. The
    /// engine's breaker is not consulted (the exchange cannot be
    /// declined-and-replayed).
    ///
    /// [`PartSender`]: crate::streaming::PartSender
    /// [`StreamingReply`]: crate::streaming::StreamingReply
    pub fn call_streaming<F>(
        &mut self,
        manifest: SoapEnvelope,
        options: &CallOptions,
        produce: F,
    ) -> SoapResult<crate::streaming::StreamingReply<'_, E>>
    where
        F: FnOnce(&mut crate::streaming::PartSender<'_, E>) -> SoapResult<()>,
    {
        let deadline = options.deadline.filter(|d| d.budget().is_some());
        let m = metrics::engine();
        m.calls.inc();
        m.attempts.inc();
        self.last_attempts = 1;
        let mut manifest = manifest;
        if let Some(d) = &deadline {
            if let Err(e) = d.remaining() {
                m.deadline_expired.inc();
                return Err(SoapError::Transport(e));
            }
            if let Some(h) = DeadlineHeader::from_deadline(d) {
                h.stamp(&mut manifest);
            }
        }
        self.encoding
            .encode_into(&manifest.into_document(), &mut self.encode_buf)?;
        self.binding
            .stream_begin(self.encoding.content_type(), deadline.as_ref())?;
        self.binding.stream_send_part(&self.encode_buf)?;
        let mut sender = crate::streaming::PartSender::new(
            &self.encoding,
            &mut self.binding,
            &mut self.encode_buf,
        );
        produce(&mut sender)?;
        // A buffered reply (faults take this shape, but a part-less
        // success may too) is complete once its manifest has landed.
        let streamed = self.binding.stream_reply_manifest(&mut self.response_buf)?;
        self.encoding
            .decode_into(&self.response_buf, &mut self.decode_buf)?;
        let envelope = SoapEnvelope::take_from(&mut self.decode_buf)?;
        if let Some(fault) = envelope.as_fault() {
            return Err(SoapError::Fault(fault));
        }
        Ok(crate::streaming::StreamingReply::new(
            &self.encoding,
            &mut self.binding,
            &mut self.response_buf,
            &mut self.part_scratch,
            envelope,
            !streamed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::LoopbackBinding;
    use crate::encoding::{BxsaEncoding, EncodingPolicy, XmlEncoding};
    use crate::fault::{FaultCode, SoapFault};
    use bxdm::{ArrayValue, AtomicValue, Element};
    use std::sync::Arc;

    /// A loopback service: sums the request's array, replies with a leaf.
    fn sum_service<Enc: EncodingPolicy>(enc: Enc) -> impl FnMut(&[u8]) -> Vec<u8> {
        move |bytes: &[u8]| {
            let doc = enc.decode(bytes).unwrap();
            let env = SoapEnvelope::from_document(&doc).unwrap();
            let op = env.body_element().unwrap();
            let data = op.find_child("data").unwrap().as_f64_array().unwrap();
            let total: f64 = data.iter().sum();
            let reply = SoapEnvelope::with_body(
                Element::component("m:SumResponse")
                    .with_namespace("m", "http://example.org/m")
                    .with_child(Element::leaf("m:total", AtomicValue::F64(total))),
            );
            enc.encode(&reply.into_document()).unwrap()
        }
    }

    fn sum_request() -> SoapEnvelope {
        SoapEnvelope::with_body(
            Element::component("m:Sum")
                .with_namespace("m", "http://example.org/m")
                .with_child(Element::array(
                    "m:data",
                    ArrayValue::F64(vec![1.0, 2.5, -0.5]),
                )),
        )
    }

    #[test]
    fn call_roundtrip_xml_encoding() {
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(sum_service(XmlEncoding::default())),
        );
        let resp = engine.call_with(sum_request(), &CallOptions::new()).unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("total"),
            Some(&AtomicValue::F64(3.0))
        );
    }

    #[test]
    fn call_roundtrip_bxsa_encoding() {
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            LoopbackBinding::new(sum_service(BxsaEncoding::default())),
        );
        let resp = engine.call_with(sum_request(), &CallOptions::new()).unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("total"),
            Some(&AtomicValue::F64(3.0))
        );
    }

    #[test]
    fn fault_responses_become_errors() {
        let enc = XmlEncoding::default();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(move |_: &[u8]| {
                let fault = SoapFault::new(FaultCode::Client, "rejected").to_element();
                enc.encode(&SoapEnvelope::with_body(fault).into_document())
                    .unwrap()
            }),
        );
        match engine.call_with(sum_request(), &CallOptions::new()) {
            Err(SoapError::Fault(f)) => {
                assert_eq!(f.code, FaultCode::Client);
                assert_eq!(f.string, "rejected");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn one_way_send() {
        let mut deliveries = 0u32;
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(|bytes: &[u8]| {
                assert!(!bytes.is_empty());
                deliveries += 1;
                vec![]
            }),
        );
        engine.send(sum_request()).unwrap();
        drop(engine);
        assert_eq!(deliveries, 1);
    }

    #[test]
    fn garbage_response_is_decoding_error() {
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            LoopbackBinding::new(|_: &[u8]| b"not a bxsa document".to_vec()),
        );
        assert!(matches!(
            engine.call_with(sum_request(), &CallOptions::new()),
            Err(SoapError::Bxsa(_))
        ));
    }

    #[test]
    fn retry_recovers_from_connect_refusals() {
        use crate::binding::FaultingBinding;
        use transport::faulty::{FaultInjector, FaultProfile};
        use transport::RetryPolicy;

        let injector = FaultInjector::new(FaultProfile::flaky_connect(7, 0.3)).shared();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            FaultingBinding::new(
                LoopbackBinding::new(sum_service(XmlEncoding::default())),
                Arc::clone(&injector),
            ),
        )
        .with_retry(RetryPolicy::no_delay(10));
        let mut retried_calls = 0u32;
        for _ in 0..50 {
            let resp = engine.call_with(sum_request(), &CallOptions::new()).expect("retry must recover");
            assert_eq!(
                resp.body_element().unwrap().child_value("total"),
                Some(&AtomicValue::F64(3.0))
            );
            if engine.last_call_attempts() > 1 {
                retried_calls += 1;
            }
        }
        assert!(retried_calls > 0, "a 30% refusal rate must trigger retries");
        assert!(injector.lock().connects_refused() > 0);
    }

    #[test]
    fn faults_are_never_retried() {
        use transport::RetryPolicy;

        let enc = XmlEncoding::default();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(move |_: &[u8]| {
                let fault = SoapFault::new(FaultCode::Client, "rejected").to_element();
                enc.encode(&SoapEnvelope::with_body(fault).into_document())
                    .unwrap()
            }),
        )
        .with_retry(RetryPolicy::no_delay(10));
        assert!(matches!(engine.call_with(sum_request(), &CallOptions::new()), Err(SoapError::Fault(_))));
        assert_eq!(engine.last_call_attempts(), 1, "faults are answers");
    }

    #[test]
    fn call_with_deadline_stamps_remaining_budget() {
        use crate::envelope::DeadlineHeader;
        use std::time::Duration;

        // The service inspects the header the engine stamped and echoes
        // the observed budget back, so the test sees the wire value.
        let enc = XmlEncoding::default();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(move |bytes: &[u8]| {
                let doc = enc.decode(bytes).unwrap();
                let env = SoapEnvelope::from_document(&doc).unwrap();
                let header = DeadlineHeader::from_envelope(&env)
                    .unwrap()
                    .expect("deadline header must be stamped");
                let reply = SoapEnvelope::with_body(
                    Element::component("m:Echo")
                        .with_namespace("m", "http://example.org/m")
                        .with_child(Element::leaf(
                            "m:budget",
                            AtomicValue::I64(header.budget_millis as i64),
                        )),
                );
                enc.encode(&reply.into_document()).unwrap()
            }),
        );
        let opts = CallOptions::new().within(Duration::from_secs(5));
        let resp = engine.call_with(sum_request(), &opts).unwrap();
        let Some(AtomicValue::I64(budget)) = resp.body_element().unwrap().child_value("budget")
        else {
            panic!("echoed budget missing");
        };
        assert!(*budget > 0 && *budget <= 5000, "stamped {budget} ms");
        // A call without a deadline must not stamp anything.
        let enc = XmlEncoding::default();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(move |bytes: &[u8]| {
                let doc = enc.decode(bytes).unwrap();
                let env = SoapEnvelope::from_document(&doc).unwrap();
                assert_eq!(DeadlineHeader::from_envelope(&env).unwrap(), None);
                enc.encode(
                    &SoapEnvelope::with_body(Element::component("m:Ok").with_namespace(
                        "m",
                        "http://example.org/m",
                    ))
                    .into_document(),
                )
                .unwrap()
            }),
        );
        engine.call_with(sum_request(), &CallOptions::new()).unwrap();
    }

    /// Records every attempt's request bytes and refuses the first
    /// `refusals` connects (the retry-safe failure class), then lets the
    /// loopback answer.
    struct RefusingRecorder<F: FnMut(&[u8]) -> Vec<u8>> {
        refusals: u32,
        sent: Vec<Vec<u8>>,
        inner: LoopbackBinding<F>,
    }

    impl<F: FnMut(&[u8]) -> Vec<u8>> BindingPolicy for RefusingRecorder<F> {
        fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
            self.sent.push(payload.to_vec());
            if self.refusals > 0 {
                self.refusals -= 1;
                return Err(SoapError::Transport(
                    transport::TransportError::ConnectFailed {
                        addr: "recorder".into(),
                        source: std::io::Error::from(std::io::ErrorKind::ConnectionRefused),
                    },
                ));
            }
            self.inner.send_request(payload, content_type)
        }

        fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
            self.inner.receive_response_into(out)
        }
    }

    /// A deadline call that retries twice re-stamps its built document
    /// per attempt: each attempt carries exactly one `bx:Deadline`, and
    /// its bytes are what stamping the envelope and then building it
    /// would have sent.
    fn retried_deadline_attempts_match_stamp_then_build<Enc>()
    where
        Enc: EncodingPolicy + Default + Clone,
    {
        use crate::envelope::{DeadlineHeader, DEADLINE_HEADER_LOCAL};
        use transport::RetryPolicy;

        let mut engine = SoapEngine::new(
            Enc::default(),
            RefusingRecorder {
                refusals: 2,
                sent: Vec::new(),
                inner: LoopbackBinding::new(sum_service(Enc::default())),
            },
        )
        .with_retry(RetryPolicy::no_delay(5));
        let request = sum_request().with_header(
            Element::leaf("m:Trace", AtomicValue::Str("t-1".into()))
                .with_namespace("m", "http://example.org/m"),
        );
        let opts = CallOptions::new().within(Duration::from_secs(30));
        engine.call_with(request.clone(), &opts).unwrap();
        assert_eq!(engine.last_call_attempts(), 3);
        let sent = std::mem::take(&mut engine.binding().sent);
        assert_eq!(sent.len(), 3);
        for bytes in &sent {
            let wire = SoapEnvelope::from_document(&Enc::default().decode(bytes).unwrap()).unwrap();
            let stamped: Vec<&Element> = wire
                .headers
                .iter()
                .filter(|h| h.name.local() == DEADLINE_HEADER_LOCAL)
                .collect();
            assert_eq!(stamped.len(), 1, "one bx:Deadline per attempt");
            let header = DeadlineHeader::from_element(stamped[0]).unwrap();
            let mut old = request.clone();
            header.stamp(&mut old);
            assert_eq!(bytes, &Enc::default().encode(&old.to_document()).unwrap());
        }
    }

    #[test]
    fn retried_deadline_attempts_match_stamp_then_build_on_both_encodings() {
        retried_deadline_attempts_match_stamp_then_build::<BxsaEncoding>();
        retried_deadline_attempts_match_stamp_then_build::<XmlEncoding>();
    }

    /// Records where each gathered attempt's parts live and how long
    /// they are, then answers with a canned reply.
    struct PartsRecorder {
        parts: Vec<(*const u8, usize)>,
        sent: Vec<u8>,
        reply: Vec<u8>,
    }

    impl BindingPolicy for PartsRecorder {
        fn send_request(&mut self, _: &[u8], _: &str) -> SoapResult<()> {
            unreachable!("the engine sends through exchange_parts_into")
        }

        fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
            out.clone_from(&self.reply);
            Ok(())
        }

        fn exchange_parts_into(
            &mut self,
            parts: &[&[u8]],
            _: &str,
            out: &mut Vec<u8>,
        ) -> SoapResult<()> {
            self.parts.clear();
            self.parts
                .extend(parts.iter().map(|p| (p.as_ptr(), p.len())));
            self.sent = parts.concat();
            self.receive_response_into(out)
        }
    }

    /// A 100k-pair tree call puts its two arrays on the wire straight
    /// from the request document: the binding sees slices at the very
    /// addresses the caller's vectors had, the engine's encode buffer
    /// holds only frame heads, and the gathered bytes are the flat
    /// encoding of the request (deadline stamp included).
    #[test]
    fn bulk_call_with_sends_arrays_from_the_request_document() {
        use crate::envelope::DeadlineHeader;

        let enc = BxsaEncoding::native_order();
        let reply = SoapEnvelope::with_body(
            Element::component("m:VerifyResponse")
                .with_namespace("m", "http://example.org/m")
                .with_child(Element::leaf("m:ok", AtomicValue::Bool(true))),
        );
        let reply = enc.encode(&reply.into_document()).unwrap();
        let mut engine = SoapEngine::new(
            enc.clone(),
            PartsRecorder {
                parts: Vec::new(),
                sent: Vec::new(),
                reply,
            },
        );
        for options in [
            CallOptions::new(),
            CallOptions::new().within(Duration::from_secs(600)),
        ] {
            let index: Vec<i32> = (0..100_000).collect();
            let values: Vec<f64> = (0..100_000).map(|i| f64::from(i) * 0.5).collect();
            let (index_at, values_at) = (index.as_ptr().cast::<u8>(), values.as_ptr().cast::<u8>());
            let request = SoapEnvelope::with_body(
                Element::component("m:Verify")
                    .with_namespace("m", "http://example.org/m")
                    .with_child(Element::array("m:index", ArrayValue::I32(index)))
                    .with_child(Element::array("m:values", ArrayValue::F64(values))),
            );
            let mut expect = request.clone().into_document();
            let reply = engine.call_with(request, &options).unwrap();
            assert_eq!(
                reply.body_element().unwrap().child_value("ok"),
                Some(&AtomicValue::Bool(true))
            );
            let seen = &engine.binding.parts;
            assert!(
                seen.contains(&(index_at, 400_000)),
                "index not sent in place: {seen:?}"
            );
            assert!(
                seen.contains(&(values_at, 800_000)),
                "values not sent in place: {seen:?}"
            );
            assert!(
                engine.encode_buf.capacity() < 1024,
                "the encode buffer grew to {} bytes",
                engine.encode_buf.capacity()
            );
            if let Some(d) = &options.deadline {
                // The stamp carries the budget left at send time; read
                // it back from the wire to rebuild the flat encoding.
                let sent = SoapEnvelope::from_document(&enc.decode(&engine.binding.sent).unwrap())
                    .unwrap();
                let stamped = DeadlineHeader::from_envelope(&sent).unwrap().unwrap();
                assert!(stamped.budget_millis <= d.budget().unwrap().as_millis() as u64);
                stamped.stamp_document(&mut expect);
            }
            assert_eq!(engine.binding.sent, enc.encode(&expect).unwrap());
        }
    }

    #[test]
    fn expired_deadline_fails_before_any_exchange() {
        use std::time::Duration;

        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(|_: &[u8]| panic!("must not reach the service")),
        );
        let opts = CallOptions::new().with_deadline(transport::Deadline::within(Duration::ZERO));
        let err = engine.call_with(sum_request(), &opts).unwrap_err();
        assert!(matches!(
            err,
            SoapError::Transport(transport::TransportError::TimedOut { .. })
        ));
        assert_eq!(engine.last_call_attempts(), 0);
    }

    #[test]
    fn open_circuit_fast_fails_without_connecting() {
        use crate::binding::FaultingBinding;
        use std::time::Duration;
        use transport::faulty::{FaultInjector, FaultProfile};
        use transport::{BreakerConfig, BreakerHandle, BreakerState};

        // Every connect refused: each call records one breaker failure.
        let injector = FaultInjector::new(FaultProfile::flaky_connect(3, 1.0)).shared();
        let breaker = BreakerHandle::standalone(
            "loopback",
            BreakerConfig {
                window: Duration::from_secs(10),
                failure_threshold: 0.5,
                min_samples: 4,
                cooldown: Duration::from_secs(60),
                cooldown_cap: Duration::from_secs(120),
                half_open_successes: 1,
                seed: 11,
            },
        );
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            FaultingBinding::new(
                LoopbackBinding::new(sum_service(XmlEncoding::default())),
                Arc::clone(&injector),
            ),
        )
        .with_breaker(breaker.clone());
        for _ in 0..4 {
            let err = engine.call_with(sum_request(), &CallOptions::new()).unwrap_err();
            assert!(matches!(err, SoapError::Transport(_)));
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        let refused_so_far = injector.lock().connects_refused();
        // While open: typed fast-fail, zero exchanges attempted.
        let err = engine.call_with(sum_request(), &CallOptions::new()).unwrap_err();
        match err {
            SoapError::CircuitOpen {
                endpoint,
                retry_after,
            } => {
                assert_eq!(endpoint, "loopback");
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(engine.last_call_attempts(), 0);
        assert_eq!(injector.lock().connects_refused(), refused_so_far);
    }

    #[test]
    fn retry_waits_out_open_circuit_and_recovers() {
        use transport::{BreakerConfig, BreakerHandle, BreakerState, RetryPolicy};

        let breaker = BreakerHandle::standalone(
            "loopback-recovery",
            BreakerConfig {
                window: Duration::from_secs(10),
                failure_threshold: 0.5,
                min_samples: 4,
                cooldown: Duration::from_millis(80),
                cooldown_cap: Duration::from_millis(160),
                half_open_successes: 1,
                seed: 5,
            },
        );
        // The endpoint was failing before this call: trip the breaker.
        for _ in 0..4 {
            breaker.record(false);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // The service itself is healthy — only the breaker stands in the
        // way. A retrying call must wait out the cooldown (the rejection
        // carries the hint), win the half-open probe, and succeed.
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            LoopbackBinding::new(sum_service(XmlEncoding::default())),
        )
        .with_breaker(breaker.clone())
        .with_retry(RetryPolicy::new(4));
        let started = std::time::Instant::now();
        let resp = engine
            .call_with(sum_request(), &CallOptions::new())
            .expect("retry must ride out the breaker cooldown");
        assert_eq!(
            resp.body_element().unwrap().child_value("total"),
            Some(&AtomicValue::F64(3.0))
        );
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(60),
            "must have slept out the hinted cooldown, waited only {waited:?}"
        );
        assert_eq!(engine.last_call_attempts(), 1, "only the admitted probe exchanged");
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn default_options_are_the_new_options() {
        let (new, default) = (CallOptions::new(), CallOptions::default());
        assert!(default.idempotent, "a defaulted call keeps its retries");
        assert_eq!(default.idempotent, new.idempotent);
        assert!(default.deadline.is_none() && new.deadline.is_none());
    }

    #[test]
    fn call_non_idempotent_never_retries() {
        use crate::binding::FaultingBinding;
        use transport::faulty::{FaultInjector, FaultProfile};
        use transport::RetryPolicy;

        // Every connect refused: a retrying call would burn all attempts.
        let injector = FaultInjector::new(FaultProfile::flaky_connect(3, 1.0)).shared();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            FaultingBinding::new(
                LoopbackBinding::new(sum_service(XmlEncoding::default())),
                injector,
            ),
        )
        .with_retry(RetryPolicy::no_delay(10));
        let err = engine
            .call_with(sum_request(), &CallOptions::new().non_idempotent())
            .unwrap_err();
        assert!(matches!(err, SoapError::Transport(_)));
        assert_eq!(engine.last_call_attempts(), 1, "must not be replayed");
        // The installed policy survives for subsequent idempotent calls.
        let err = engine.call_with(sum_request(), &CallOptions::new()).unwrap_err();
        assert!(matches!(err, SoapError::Transport(_)));
        assert_eq!(engine.last_call_attempts(), 10, "policy still installed");
    }

    mod typed_calls {
        use super::*;
        use crate::service::{ServiceRegistry, SoapService};
        use crate::typed::probe::{probe, Probe};
        use crate::typed::{TypedEncoding, TypedRequest};
        use std::sync::Mutex;
        use std::time::Duration;

        fn probe_loopback(enc: BxsaEncoding) -> impl FnMut(&[u8]) -> Vec<u8> {
            let mut service = SoapService::new(enc, Arc::new(ServiceRegistry::new()));
            service.register_typed::<Probe, Probe, _>("Probe", |req, resp| {
                resp.values.clear();
                resp.values.extend(req.values.iter().map(|v| v * 2.0));
                resp.tag = req.tag + 1;
                Ok(())
            });
            let mut scratch = crate::service::DecodeScratch::default();
            move |bytes: &[u8]| {
                let mut reply = Vec::new();
                service.handle(&mut scratch, bytes, &mut reply);
                reply
            }
        }

        /// Answers every request with `reply`: whole by default, or read
        /// through the engine's receiver in reads that cycle through
        /// `splits`.
        struct Scripted {
            reply: Vec<u8>,
            splits: Option<Vec<usize>>,
        }

        impl BindingPolicy for Scripted {
            fn send_request(&mut self, _: &[u8], _: &str) -> SoapResult<()> {
                Ok(())
            }

            fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
                out.clone_from(&self.reply);
                Ok(())
            }

            fn exchange_parts_to(
                &mut self,
                parts: &[&[u8]],
                content_type: &str,
                reply: &mut dyn transport::BodySink,
            ) -> SoapResult<()> {
                let Some(splits) = &self.splits else {
                    return self.exchange_parts_into(parts, content_type, reply.whole());
                };
                reply.begin(self.reply.len());
                let (mut from, mut i) = (0, 0);
                loop {
                    let buf = reply.next_buf(1 << 20);
                    if buf.is_empty() {
                        return Ok(());
                    }
                    let n = buf.len().min(splits[i % splits.len()]);
                    i += 1;
                    buf[..n].copy_from_slice(&self.reply[from..from + n]);
                    from += n;
                    reply.filled(n);
                }
            }
        }

        /// What a typed `Probe` call made of `reply`: the response, or
        /// the error (faults compared whole, other errors by kind).
        fn typed_outcome(reply: &[u8], splits: Option<Vec<usize>>) -> Result<Probe, String> {
            placed_outcome(reply, splits).0
        }

        /// [`typed_outcome`], and the reply bytes that were placed.
        fn placed_outcome(
            reply: &[u8],
            splits: Option<Vec<usize>>,
        ) -> (Result<Probe, String>, usize) {
            let binding = Scripted {
                reply: reply.to_vec(),
                splits,
            };
            let mut engine = SoapEngine::new(BxsaEncoding::native_order(), binding);
            let mut out = Probe::default();
            let outcome = match engine.call_typed_into(&probe(1), &mut out, &CallOptions::new()) {
                Ok(()) => Ok(out),
                Err(SoapError::Fault(f)) => Err(format!("fault {f:?}")),
                Err(e) => Err(format!("{:?}", std::mem::discriminant(&e))),
            };
            (outcome, engine.reply.0.placed_bytes())
        }

        /// The replies the oracle runs: a matching reply of each size,
        /// a fault, a foreign operation, a header carrying an array, and a
        /// second `Body` (a fault) after a matching one, each in both byte
        /// orders, with and without a checksum.
        fn oracle_replies() -> Vec<Vec<u8>> {
            use crate::envelope::SoapEnvelope;
            use crate::fault::{FaultCode, SoapFault};
            use bxdm::{ArrayValue, Element};
            let big = || Element::array("big", ArrayValue::I64((0..700).collect()));
            let mut envelopes = Vec::new();
            for n in [0usize, 3, 511, 512, 5000] {
                envelopes.push(crate::typed::probe::tree_envelope(&probe(n), None));
            }
            envelopes.push(SoapEnvelope::with_body(
                SoapFault::new(FaultCode::Server, "no").to_element(),
            ));
            envelopes.push(SoapEnvelope::with_body(
                Element::component("Other").with_child(big()),
            ));
            envelopes.push(
                crate::typed::probe::tree_envelope(&probe(900), None)
                    .with_header(Element::component("H").with_child(big())),
            );
            let mut docs: Vec<bxdm::Document> =
                envelopes.iter().map(SoapEnvelope::to_document).collect();
            let mut two_bodies =
                crate::typed::probe::tree_envelope(&probe(900), None).to_document();
            let second = Element::component("soapenv:Body").with_child(
                SoapFault::new(FaultCode::Client, "late")
                    .to_element()
                    .with_child(Element::component("detail").with_child(big())),
            );
            two_bodies
                .root_mut()
                .unwrap()
                .push_node(bxdm::Node::Element(second));
            docs.push(two_bodies);
            let mut out = Vec::new();
            for doc in &docs {
                for byte_order in [xbs::ByteOrder::Little, xbs::ByteOrder::Big] {
                    for checksum in [false, true] {
                        let enc = BxsaEncoding {
                            options: bxsa::EncodeOptions {
                                byte_order,
                                checksum,
                            },
                        };
                        out.push(enc.encode(doc).unwrap());
                    }
                }
            }
            out
        }

        fn replies() -> &'static [Vec<u8>] {
            static REPLIES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
            REPLIES.get_or_init(oracle_replies)
        }

        /// The typed decode of a reply received with its arrays placed
        /// gives what the flat receive gives, for every reply of the
        /// oracle set: the same values, the same fault, or an error of the
        /// same kind.
        #[test]
        fn a_placed_reply_decodes_as_the_flat_reply() {
            let mut placed = 0;
            for reply in replies() {
                let flat = typed_outcome(reply, None);
                let (outcome, bytes) = placed_outcome(reply, Some(vec![1 << 20]));
                assert_eq!(outcome, flat);
                placed += usize::from(bytes > 0);
            }
            // In native order without a checksum: the 512- and 5000-value
            // replies and the one with a header array keep their arrays
            // placed. The foreign operation and the second Body fall back,
            // which flattens them.
            assert_eq!(placed, 3);
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
            /// The same, damaged, under any read splits.
            #[test]
            fn a_placed_damaged_reply_decodes_as_the_flat_reply(
                which in 0usize..1000,
                flip in proptest::option::of((proptest::prelude::any::<usize>(), 1u8..=255)),
                splits in proptest::collection::vec(1usize..9000, 1..5),
            ) {
                let mut reply = replies()[which % replies().len()].clone();
                if let Some((at, mask)) = flip {
                    let i = at % reply.len();
                    reply[i] ^= mask;
                }
                proptest::prop_assert_eq!(
                    typed_outcome(&reply, Some(splits)),
                    typed_outcome(&reply, None)
                );
            }
        }

        #[test]
        fn call_typed_roundtrips_without_trees() {
            let mut engine = SoapEngine::new(
                BxsaEncoding::default(),
                LoopbackBinding::new(probe_loopback(BxsaEncoding::default())),
            );
            // Repeat: the engine's typed scratch is reused across calls.
            for _ in 0..3 {
                let resp: Probe = engine.call_typed(&probe(5), &CallOptions::new()).unwrap();
                assert_eq!(resp.tag, 43);
                let expected: Vec<f64> = probe(5).values.iter().map(|v| v * 2.0).collect();
                assert_eq!(resp.values, expected);
            }
        }

        #[test]
        fn call_typed_surfaces_fault_replies_as_errors() {
            let enc = BxsaEncoding::default();
            let mut engine = SoapEngine::new(
                BxsaEncoding::default(),
                LoopbackBinding::new(move |_: &[u8]| {
                    let fault = SoapFault::new(FaultCode::Client, "nope").to_element();
                    EncodingPolicy::encode(&enc, &SoapEnvelope::with_body(fault).into_document())
                        .unwrap()
                }),
            );
            match engine.call_typed::<Probe, Probe>(&probe(1), &CallOptions::new()) {
                Err(SoapError::Fault(f)) => assert_eq!(f.string, "nope"),
                other => panic!("expected fault, got {other:?}"),
            }
        }

        #[test]
        fn a_deadline_is_stamped_on_typed_calls() {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let tap = Arc::clone(&seen);
            let mut respond = probe_loopback(BxsaEncoding::default());
            let mut engine = SoapEngine::new(
                BxsaEncoding::default(),
                LoopbackBinding::new(move |bytes: &[u8]| {
                    tap.lock().unwrap().push(bytes.to_vec());
                    respond(bytes)
                }),
            );
            let opts = CallOptions::new().within(Duration::from_secs(30));
            let resp: Probe = engine.call_typed(&probe(2), &opts).unwrap();
            assert_eq!(resp.tag, 43);
            let request = seen.lock().unwrap().pop().unwrap();
            let mut decoy = Probe::default();
            match BxsaEncoding::default()
                .decode_typed_request(&request, &mut decoy)
                .unwrap()
            {
                TypedRequest::Matched { deadline: Some(h) } => assert!(
                    h.budget_millis > 25_000,
                    "30 s budget, stamped {} ms",
                    h.budget_millis
                ),
                other => panic!("expected a stamped deadline, got {other:?}"),
            }
        }

        #[test]
        fn a_deadline_is_stamped_on_tree_calls_too() {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let tap = Arc::clone(&seen);
            let mut respond = sum_service(XmlEncoding::default());
            let mut engine = SoapEngine::new(
                XmlEncoding::default(),
                LoopbackBinding::new(move |bytes: &[u8]| {
                    tap.lock().unwrap().push(bytes.to_vec());
                    respond(bytes)
                }),
            );
            let opts = CallOptions::new().within(Duration::from_secs(30));
            engine.call_with(sum_request(), &opts).unwrap();
            let request = seen.lock().unwrap().pop().unwrap();
            let doc = XmlEncoding::default().decode(&request).unwrap();
            let envelope = SoapEnvelope::from_document(&doc).unwrap();
            let header = DeadlineHeader::from_envelope(&envelope)
                .unwrap()
                .expect("the deadline must be stamped on the tree path");
            assert!(header.budget_millis > 25_000);
        }
    }
}
