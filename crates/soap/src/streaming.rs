//! End-to-end streaming: constant-memory message exchange.
//!
//! The paper's configurations buffer a whole message per exchange; this
//! module removes that ceiling. A *streamed* SOAP message is a sequence
//! of independently decodable pieces carried over HTTP/1.1 chunked
//! transfer-encoding, one piece per chunk:
//!
//! * **chunk 1 — the manifest**: a complete encoded SOAP envelope naming
//!   the operation and carrying whatever small parameters it has (and
//!   the `bx:Deadline` header, when the caller set one);
//! * **chunks 2..N — the parts**: one standalone element each (a BXSA
//!   element frame, or a textual XML fragment), typically an array
//!   batch of the payload;
//! * **the zero-length chunk** terminates the message.
//!
//! Chunk boundaries *are* part boundaries, so neither side ever
//! re-frames: the receiver decodes each part the moment its chunk
//! completes and releases the buffer for the next one. Steady-state
//! memory is O(window) — one part — independent of the payload size,
//! which is what lets a gigabyte message cross a node that never holds
//! more than [`MAX_PART_LEN`](crate::MAX_PART_LEN) of it.
//!
//! [`StreamEncoding`] extends [`EncodingPolicy`] with the per-part
//! codec; both stock encodings implement it, so the streaming path is
//! policy-generic exactly like the buffered one. The client surface is
//! [`crate::SoapEngine::call_streaming`]; the server surface is
//! [`crate::SoapService::register_streaming`] + [`StreamOp`]; relays
//! use [`crate::Intermediary::bind_http_streaming`].

use std::sync::Arc;

use bxdm::{Document, Element, Node};
use transport::{HttpResponse, StreamReply as WireReply, TransportError};

use crate::binding::HttpBinding;
use crate::encoding::{BxsaEncoding, EncodingPolicy, XmlEncoding};
use crate::envelope::{Admitted, DeadlineHeader, Refusal, SoapEnvelope};
use crate::error::{SoapError, SoapResult};
use crate::fault::{FaultCode, SoapFault};
use crate::metrics;
use crate::service::{
    encode_reply, fault_envelope, fault_for_error, unencodable_reply, HandleOutcome, SoapService,
};

/// Reusable per-part decode state: the node/document slot each part is
/// decoded into, refilled in place so a stream of similarly-shaped
/// parts decodes allocation-free at steady state.
pub struct PartScratch {
    /// BXSA parts land here (a standalone element frame).
    node: Node,
    /// XML parts land here (a one-element fragment document).
    doc: Document,
}

impl Default for PartScratch {
    fn default() -> PartScratch {
        PartScratch {
            node: Node::Text(String::new()),
            doc: Document::new(),
        }
    }
}

/// An encoding that can serialize and deserialize *individual message
/// parts* in addition to whole documents — the per-part half of the
/// streaming pipeline.
///
/// A part is one standalone [`Element`]: a BXSA element frame
/// (self-delimiting, byte-order-tagged) or a textual XML fragment. The
/// `_into` forms are required for the same reason as on
/// [`EncodingPolicy`]: the steady-state path reuses caller storage.
pub trait StreamEncoding: EncodingPolicy {
    /// Serialize one part into a reusable buffer (contents replaced,
    /// capacity kept).
    fn encode_part_into(&self, part: &Element, out: &mut Vec<u8>) -> SoapResult<()>;

    /// Decode one part into reusable scratch, borrowing the result from
    /// it. On error the scratch holds unspecified but valid contents.
    fn decode_part<'s>(&self, bytes: &[u8], scratch: &'s mut PartScratch)
        -> SoapResult<&'s Element>;
}

impl StreamEncoding for BxsaEncoding {
    fn encode_part_into(&self, part: &Element, out: &mut Vec<u8>) -> SoapResult<()> {
        Ok(bxsa::encode_element_into(part, &self.options, out)?)
    }

    fn decode_part<'s>(
        &self,
        bytes: &[u8],
        scratch: &'s mut PartScratch,
    ) -> SoapResult<&'s Element> {
        bxsa::decode_element_into(bytes, &mut scratch.node)?;
        scratch
            .node
            .as_element()
            .ok_or_else(|| SoapError::Protocol("BXSA part frame is not an element".into()))
    }
}

impl StreamEncoding for XmlEncoding {
    fn encode_part_into(&self, part: &Element, out: &mut Vec<u8>) -> SoapResult<()> {
        // Same buffer-as-String trick as the whole-document encoder:
        // the byte buffer's capacity is the writer's capacity, emptied
        // before the UTF-8 conversion.
        let mut text = String::from_utf8(crate::encoding::cleared(out))
            .expect("an empty vector is valid UTF-8");
        xmltext::write_element_into(part, &self.write_options, &mut text);
        *out = text.into_bytes();
        Ok(())
    }

    fn decode_part<'s>(
        &self,
        bytes: &[u8],
        scratch: &'s mut PartScratch,
    ) -> SoapResult<&'s Element> {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            SoapError::Protocol("XML part is not valid UTF-8".into())
        })?;
        xmltext::parse_into(text, &mut scratch.doc)?;
        scratch
            .doc
            .root()
            .ok_or_else(|| SoapError::Protocol("XML part has no element".into()))
    }
}

/// One server-side streamed exchange: the operation implementation a
/// service registers via [`crate::SoapService::register_streaming`].
///
/// Lifecycle: `start` (the decoded manifest envelope) → `on_part` per
/// request part → `finish` (produce the reply manifest) → `next_part`
/// until it returns `false`. Each instance serves exactly one exchange;
/// the factory closure makes a fresh one per request.
pub trait StreamOp: Send {
    /// The request manifest arrived (operation parameters live here).
    fn start(&mut self, manifest: &SoapEnvelope) -> SoapResult<()>;

    /// One request part arrived. The element borrows per-part scratch —
    /// copy out whatever must outlive the call.
    fn on_part(&mut self, part: &Element) -> SoapResult<()>;

    /// All request parts are in: produce the reply manifest envelope.
    /// Returning a fault envelope (or an error) answers buffered with
    /// HTTP 500, like the non-streamed path.
    fn finish(&mut self) -> SoapResult<SoapEnvelope>;

    /// Produce the next reply part by refilling `slot` (it arrives
    /// holding the previous part, so same-shape replies can refill in
    /// place). `Ok(false)` ends the reply. An error after `finish`
    /// truncates the wire stream — the client sees a hard transport
    /// error, never a silently short payload.
    fn next_part(&mut self, slot: &mut Element) -> SoapResult<bool>;
}

/// Factory for per-exchange [`StreamOp`] instances.
pub(crate) type StreamOpFactory = dyn Fn() -> Box<dyn StreamOp> + Send + Sync;

/// Sends a streamed request's payload parts, from inside the producer
/// closure of [`crate::SoapEngine::call_streaming`]. Each [`send`]
/// encodes one element into the engine's reusable part buffer and puts
/// it on the wire as one chunk — the element is gone the moment the
/// call returns, so the producer can refill and resend one element
/// forever: constant memory no matter how much data flows.
///
/// [`send`]: PartSender::send
pub struct PartSender<'a, E: StreamEncoding> {
    encoding: &'a E,
    binding: &'a mut HttpBinding,
    buf: &'a mut Vec<u8>,
    parts: u64,
}

impl<'a, E: StreamEncoding> PartSender<'a, E> {
    pub(crate) fn new(
        encoding: &'a E,
        binding: &'a mut HttpBinding,
        buf: &'a mut Vec<u8>,
    ) -> PartSender<'a, E> {
        PartSender {
            encoding,
            binding,
            buf,
            parts: 0,
        }
    }

    /// Encode and transmit one payload part (one chunk on the wire).
    /// The encoded form must fit the [`MAX_PART_LEN`](crate::MAX_PART_LEN)
    /// window — split bigger payloads into more parts, not bigger ones.
    pub fn send(&mut self, part: &Element) -> SoapResult<()> {
        self.encoding.encode_part_into(part, self.buf)?;
        self.binding.stream_send_part(self.buf)?;
        self.parts += 1;
        Ok(())
    }

    /// Parts sent so far (the manifest not counted).
    pub fn parts_sent(&self) -> u64 {
        self.parts
    }
}

/// The reply to a streamed call: the decoded manifest envelope plus a
/// pull-iterator over the reply's payload parts. Each
/// [`next_part`](StreamingReply::next_part) lands one chunk in the
/// engine's reusable buffers and lends the decoded element out — the
/// whole reply is never resident.
///
/// Dropping the reply before draining it abandons the HTTP exchange
/// mid-body, so the engine's cached connection redials on the next
/// call; drain to the end (`Ok(None)`) to keep the socket reusable.
pub struct StreamingReply<'a, E: StreamEncoding> {
    encoding: &'a E,
    binding: &'a mut HttpBinding,
    buf: &'a mut Vec<u8>,
    scratch: &'a mut PartScratch,
    envelope: SoapEnvelope,
    done: bool,
    parts: u64,
}

impl<'a, E: StreamEncoding> StreamingReply<'a, E> {
    pub(crate) fn new(
        encoding: &'a E,
        binding: &'a mut HttpBinding,
        buf: &'a mut Vec<u8>,
        scratch: &'a mut PartScratch,
        envelope: SoapEnvelope,
        done: bool,
    ) -> StreamingReply<'a, E> {
        StreamingReply {
            encoding,
            binding,
            buf,
            scratch,
            envelope,
            done,
            parts: 0,
        }
    }

    /// The reply manifest (the envelope that opened the response).
    pub fn envelope(&self) -> &SoapEnvelope {
        &self.envelope
    }

    /// Give up the payload stream and keep only the manifest. If parts
    /// were still in flight the connection is abandoned mid-body.
    pub fn into_envelope(self) -> SoapEnvelope {
        self.envelope
    }

    /// Pull and decode the next payload part. `Ok(None)` means the
    /// reply is complete (and the connection stays reusable). The
    /// element borrows the reply's scratch — copy out whatever must
    /// survive the next pull.
    pub fn next_part(&mut self) -> SoapResult<Option<&Element>> {
        if self.done {
            return Ok(None);
        }
        if !self.binding.stream_next_part_into(self.buf)? {
            self.done = true;
            return Ok(None);
        }
        self.parts += 1;
        let elem = self.encoding.decode_part(self.buf, self.scratch)?;
        Ok(Some(elem))
    }

    /// Payload parts pulled so far (the manifest not counted).
    pub fn parts_received(&self) -> u64 {
        self.parts
    }
}

/// Map a session-level SOAP failure onto the wire error that truncates
/// the connection (used only where a clean in-band fault is no longer
/// possible, i.e. after the reply head went out).
fn wire_err(e: SoapError) -> TransportError {
    TransportError::BadHttp {
        what: format!("streaming session failed: {e}"),
    }
}

/// A streamed exchange's buffered answer: `body` (a fault, or a relayed
/// buffered reply) put on the wire through the one outcome-to-HTTP
/// mapping, [`HandleOutcome::write_http`]. The streaming session API has
/// no write cap, so none is applied.
fn buffered_reply(
    outcome: &HandleOutcome,
    content_type: &str,
    body: Vec<u8>,
) -> WireReply {
    let mut reply = HttpResponse {
        status: 200,
        reason: "OK".into(),
        headers: Vec::new(),
        body,
    };
    outcome.write_http(content_type, &mut reply, None);
    WireReply::Buffered(reply)
}

/// The node-specific half of a streamed exchange, plugged into the one
/// server-side [`Session`]: the endpoint dispatches to a registered
/// [`StreamOp`]; the relay forwards upstream (see `crate::intermediary`).
pub(crate) trait Hop {
    /// The down-link encoding: what the sender speaks and is answered in.
    type Down: StreamEncoding;

    fn down(&self) -> &Self::Down;

    /// This node's `bx:Deadline` arrival gate.
    fn admit(header: &DeadlineHeader) -> Result<Admitted, Refusal>;

    /// The manifest passed the gate: start the exchange.
    fn open(&mut self, manifest: SoapEnvelope, admitted: Option<&Admitted>) -> SoapResult<()>;

    /// One request payload part, as it came off the wire.
    fn on_part(&mut self, part: &[u8]) -> SoapResult<()>;

    /// All request parts are in. `Ok(None)`: the reply is streamed and
    /// its encoded manifest is in `manifest`. `Ok(Some(envelope))`: answer
    /// buffered with `envelope` (a fault, or a part-less relayed reply).
    fn finish(&mut self, manifest: &mut Vec<u8>) -> SoapResult<Option<SoapEnvelope>>;

    /// Encode the next reply payload part into `out`; `Ok(false)` ends
    /// the reply.
    fn next_part(&mut self, out: &mut Vec<u8>) -> SoapResult<bool>;

    /// The exchange is answered buffered: release whatever is open.
    fn abandon(&mut self) {}
}

/// Where one server-side streamed exchange stands.
enum State {
    /// Nothing received yet; the first part must be the manifest.
    AwaitManifest,
    /// Manifest admitted; parts are flowing into the hop.
    Open,
    /// The encoded buffered answer (a fault, mostly) waits for `finish`;
    /// later parts are drained silently — the sender cannot stop
    /// mid-chunk anyway.
    Answered(Vec<u8>),
}

/// The one [`transport::StreamSession`] of every SOAP node: the first
/// part is the manifest and passes the hop's arrival gate, a failure
/// drains the rest and answers one buffered fault, and a streamed reply
/// sends its manifest before its parts. The server side of the stream
/// metrics is counted here.
pub(crate) struct Session<H: Hop> {
    hop: H,
    state: State,
    /// What the buffered answer, if any, puts on the wire.
    outcome: HandleOutcome,
    /// Manifest decode target.
    doc: Document,
    /// Encoded reply manifest, emitted as the first reply part.
    reply_manifest: Vec<u8>,
    manifest_sent: bool,
}

impl<H: Hop> Session<H> {
    pub(crate) fn new(hop: H) -> Session<H> {
        Session {
            hop,
            state: State::AwaitManifest,
            outcome: HandleOutcome::default(),
            doc: Document::new(),
            reply_manifest: Vec::new(),
            manifest_sent: false,
        }
    }

    /// Decode the manifest, pass it through the gate and open the hop.
    fn open(&mut self, manifest: &[u8]) -> SoapResult<()> {
        self.hop.down().decode_into(manifest, &mut self.doc)?;
        let envelope = SoapEnvelope::take_from(&mut self.doc)?;
        let arrived = DeadlineHeader::from_envelope(&envelope)?.map(|h| H::admit(&h));
        let hop = &mut self.hop;
        self.outcome
            .serve_within(arrived, |admitted| hop.open(envelope, admitted))??;
        self.state = State::Open;
        Ok(())
    }

    /// Answer buffered with `envelope`.
    fn answer(&mut self, envelope: SoapEnvelope) {
        self.hop.abandon();
        let mut out = Vec::new();
        self.outcome.is_fault = encode_reply(self.hop.down(), envelope, &mut out);
        self.state = State::Answered(out);
    }

    fn fail(&mut self, e: SoapError) {
        self.answer(fault_envelope(fault_for_error(e)));
    }
}

impl<H: Hop> transport::StreamSession for Session<H> {
    fn on_part(&mut self, part: &[u8]) -> transport::TransportResult<()> {
        let m = metrics::stream();
        metrics::count_part(&m.parts_in, part);
        let fed = match self.state {
            State::AwaitManifest => {
                m.streams.inc();
                self.open(part)
            }
            State::Open => self.hop.on_part(part),
            State::Answered(_) => Ok(()),
        };
        if let Err(e) = fed {
            self.fail(e);
        }
        Ok(())
    }

    fn finish(&mut self) -> transport::TransportResult<WireReply> {
        let content_type = self.hop.down().content_type();
        match self.state {
            State::AwaitManifest => self.fail(SoapError::Fault(SoapFault::new(
                FaultCode::Client,
                "streamed request ended before its manifest",
            ))),
            State::Open => match self.hop.finish(&mut self.reply_manifest) {
                Ok(None) => {
                    let head = HttpResponse::ok(content_type, Vec::new());
                    return Ok(WireReply::Streamed(head));
                }
                Ok(Some(envelope)) => self.answer(envelope),
                Err(e) => self.fail(e),
            },
            State::Answered(_) => {}
        }
        let State::Answered(body) = &mut self.state else {
            unreachable!("every other state was answered above");
        };
        Ok(buffered_reply(&self.outcome, content_type, std::mem::take(body)))
    }

    fn next_part(&mut self, out: &mut Vec<u8>) -> transport::TransportResult<bool> {
        let more = if self.manifest_sent {
            self.hop.next_part(out).map_err(wire_err)?
        } else {
            self.manifest_sent = true;
            std::mem::swap(out, &mut self.reply_manifest);
            true
        };
        if more {
            metrics::count_part(&metrics::stream().parts_out, out);
        }
        Ok(more)
    }
}

/// The endpoint hop: routes the manifest to the service's registered
/// [`StreamOp`], decodes request parts into it, encodes its reply parts.
pub(crate) struct Endpoint<E: EncodingPolicy> {
    service: Arc<SoapService<E>>,
    op: Option<Box<dyn StreamOp>>,
    scratch: PartScratch,
    /// Reusable reply-part slot handed to the operation.
    slot: Element,
}

impl<E: EncodingPolicy> Endpoint<E> {
    pub(crate) fn new(service: Arc<SoapService<E>>) -> Endpoint<E> {
        Endpoint {
            service,
            op: None,
            scratch: PartScratch::default(),
            slot: Element::component("part"),
        }
    }
}

impl<E: StreamEncoding> Hop for Endpoint<E> {
    type Down = E;

    fn down(&self) -> &E {
        self.service.encoding()
    }

    fn admit(header: &DeadlineHeader) -> Result<Admitted, Refusal> {
        header.admit()
    }

    fn open(&mut self, manifest: SoapEnvelope, _: Option<&Admitted>) -> SoapResult<()> {
        let op_name = manifest
            .operation()
            .ok_or_else(|| SoapError::Protocol("streamed manifest has an empty body".into()))?;
        let mut op = self.service.new_stream_op(op_name).ok_or_else(|| {
            SoapError::Protocol(format!("operation {op_name:?} is not registered for streaming"))
        })?;
        op.start(&manifest)?;
        self.op = Some(op);
        Ok(())
    }

    fn on_part(&mut self, part: &[u8]) -> SoapResult<()> {
        let op = self.op.as_mut().expect("an open endpoint has an operation");
        op.on_part(self.service.encoding().decode_part(part, &mut self.scratch)?)
    }

    fn finish(&mut self, manifest: &mut Vec<u8>) -> SoapResult<Option<SoapEnvelope>> {
        let op = self.op.as_mut().expect("an open endpoint has an operation");
        let envelope = op.finish()?;
        if envelope.is_fault() {
            return Ok(Some(envelope));
        }
        self.service
            .encoding()
            .encode_into(&envelope.into_document(), manifest)
            .map_err(|e| SoapError::Fault(unencodable_reply(e)))?;
        Ok(None)
    }

    fn next_part(&mut self, out: &mut Vec<u8>) -> SoapResult<bool> {
        let Some(op) = self.op.as_mut() else {
            return Ok(false);
        };
        if !op.next_part(&mut self.slot)? {
            return Ok(false);
        }
        self.service.encoding().encode_part_into(&self.slot, out)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::ArrayValue;

    fn part(n: usize) -> Element {
        Element::array("m:batch", ArrayValue::F64((0..n).map(|i| i as f64).collect()))
            .with_namespace("m", "http://example.org/m")
    }

    #[test]
    fn both_encodings_roundtrip_parts_through_reused_scratch() {
        let bxsa = BxsaEncoding::default();
        let xml = XmlEncoding::default();
        let mut scratch = PartScratch::default();
        let mut buf = Vec::new();
        for n in [3usize, 64, 7, 64] {
            let original = part(n);
            bxsa.encode_part_into(&original, &mut buf).unwrap();
            assert_eq!(bxsa.decode_part(&buf, &mut scratch).unwrap(), &original);
            xml.encode_part_into(&original, &mut buf).unwrap();
            let back = xml.decode_part(&buf, &mut scratch).unwrap();
            assert_eq!(back.as_f64_array(), original.as_f64_array());
        }
    }

    #[test]
    fn xml_part_encode_reuses_buffer_capacity() {
        let xml = XmlEncoding::default();
        let mut buf = Vec::with_capacity(4096);
        xml.encode_part_into(&part(10), &mut buf).unwrap();
        let ptr = buf.as_ptr();
        xml.encode_part_into(&part(10), &mut buf).unwrap();
        assert_eq!(buf.as_ptr(), ptr, "capacity must be reused");
    }

    #[test]
    fn garbage_parts_error_cleanly() {
        let mut scratch = PartScratch::default();
        assert!(BxsaEncoding::default()
            .decode_part(b"not a frame", &mut scratch)
            .is_err());
        assert!(XmlEncoding::default()
            .decode_part(&[0xff, 0xfe], &mut scratch)
            .is_err());
        assert!(XmlEncoding::default()
            .decode_part(b"<unclosed", &mut scratch)
            .is_err());
    }
}
