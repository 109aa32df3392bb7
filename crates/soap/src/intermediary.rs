//! SOAP intermediaries: hop-by-hop relaying with re-encoding.
//!
//! Paper §5.1: "SOAP messages are designed to be transferred in a
//! hop-by-hop style between the SOAP nodes and the bindings between the
//! hops can be various... the intermediary node can just simply deploy
//! multiple generic SOAP engines with different policy configurations to
//! serve the up-link and down-link message flows. Furthermore,
//! transcodability enables BXSA to be the intermediate protocol over the
//! message hops, even when the message sender and receiver are
//! communicating via textual XML."
//!
//! An [`Intermediary`] listens with one (encoding, transport) pair and
//! forwards with another; the message crosses the hop as a bXDM tree, so
//! nothing is lost in the re-encode.
//!
//! [`bind_http_streaming`](Intermediary::bind_http_streaming) extends
//! the relay to streamed messages with the same generic pieces the
//! endpoint uses: the relay is one hop plugged into the endpoint's own
//! streamed-exchange session (manifest, arrival gate, buffered faults),
//! and its up-link is an [`HttpBinding`], whose stream half is the same
//! streamed client `SoapEngine::call_streaming` drives. Each part is
//! forwarded (or transcoded) the moment its chunk completes, so the
//! relay holds one part — never the message — and a gigabyte payload
//! crosses the hop in O(window) memory. When both hops speak the same
//! encoding, payload parts are forwarded *verbatim*: BXSA element frames
//! self-describe their byte order, so the middle hop never even decodes
//! them.

use std::net::SocketAddr;
use std::sync::Arc;

use bxdm::Document;
use parking_lot::Mutex;
use transport::HttpResponse;

use crate::binding::{BindingPolicy, HttpBinding};
use crate::encoding::EncodingPolicy;
use crate::envelope::{Admitted, DeadlineHeader, Refusal, SoapEnvelope};
use crate::error::{SoapError, SoapResult};
use crate::fault::{FaultCode, SoapFault};
use crate::service::{encode_reply, fault_envelope, fault_for_error, HandleOutcome};
use crate::streaming::{Hop, PartScratch, Session, StreamEncoding};

/// A running relay node, listening on framed TCP or HTTP.
pub struct Intermediary {
    inner: transport::Server,
}

impl Intermediary {
    /// Listen on framed TCP at `addr` with down-link encoding `InE`;
    /// forward every message through `up_encoding`/`up_binding` and relay
    /// the response back.
    ///
    /// The up-link binding is shared behind a mutex: SOAP intermediaries
    /// of the paper's era serialized on their upstream connection.
    pub fn bind_tcp<InE, UpE, UpB>(
        addr: &str,
        in_encoding: InE,
        up_encoding: UpE,
        up_binding: UpB,
    ) -> SoapResult<Intermediary>
    where
        InE: EncodingPolicy + Send + Sync + 'static,
        UpE: EncodingPolicy + Send + Sync + 'static,
        UpB: BindingPolicy + Send + 'static,
    {
        let upstream = Mutex::new((up_encoding, up_binding));
        let inner = transport::ServerBuilder::bind(addr).serve_framed(
            || (),
            move |_scratch, request, out, ctl| {
                let mut guard = upstream.lock();
                let (up_encoding, up_binding) = &mut *guard;
                relay(&in_encoding, up_encoding, up_binding, request, out).cap_write(ctl);
            },
        )?;
        Ok(Intermediary { inner })
    }

    /// Listen over HTTP at `addr`/`path` with down-link encoding `InE`
    /// and relay every call — buffered or streamed — to the HTTP SOAP
    /// endpoint at `upstream_addr`/`upstream_path` in `UpE`.
    ///
    /// Streamed requests stay streamed across the hop: each chunked part
    /// is forwarded upstream as it arrives and each reply part is pulled
    /// on demand, so the relay's memory stays O(window) regardless of
    /// message size — backpressure propagates end to end through the two
    /// TCP windows. Buffered (non-chunked) requests take the classic
    /// decode/re-encode path. Each streamed exchange dials its own
    /// upstream connection (concurrent streams must not serialize);
    /// buffered exchanges ride one keep-alive upstream connection per
    /// downstream connection.
    pub fn bind_http_streaming<InE, UpE>(
        addr: &str,
        path: &str,
        in_encoding: InE,
        up_encoding: UpE,
        upstream_addr: &str,
        upstream_path: &str,
    ) -> SoapResult<Intermediary>
    where
        InE: StreamEncoding + Send + Sync + 'static,
        UpE: StreamEncoding + Send + Sync + 'static,
    {
        let target = Arc::new(RelayTarget {
            in_enc: in_encoding,
            up_enc: up_encoding,
            upstream_addr: upstream_addr.to_owned(),
            upstream_path: upstream_path.to_owned(),
        });

        let stream_target = Arc::clone(&target);
        let stream_path = path.to_owned();
        let buffered_path = path.to_owned();
        let buffered_target = Arc::clone(&target);

        let inner = transport::ServerBuilder::bind(addr)
            .stream_factory(move |head| {
                if head.method != "POST" || head.path != stream_path {
                    return None;
                }
                Some(Box::new(Session::new(Relay::new(Arc::clone(&stream_target)))))
            })
            // Buffered requests take the classic relay loop; each
            // downstream connection keeps its own keep-alive upstream
            // binding, so relays on different connections never wait on
            // each other.
            .serve_http(
                move || HttpBinding::new(&target.upstream_addr, &target.upstream_path),
                move |binding, head, body, reply, ctl| {
                    if head.method != "POST" || head.path != buffered_path {
                        reply.respond(HttpResponse::not_found());
                        return;
                    }
                    let t = &buffered_target;
                    relay(&t.in_enc, &t.up_enc, binding, body, &mut reply.body).write_http(
                        t.in_enc.content_type(),
                        reply,
                        Some(ctl),
                    );
                },
            )?;
        Ok(Intermediary { inner })
    }

    /// The relay's listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Stop relaying.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// The one relay step behind the framed-TCP and buffered-HTTP relays:
/// decode on the down-link encoding (intermediaries are SOAP nodes, not
/// byte pipes), pass the `bx:Deadline` through the relay gate, forward on
/// the up-link policies, and encode the answer — the upstream's reply or
/// fault, or this hop's own fault — into `out` in the down-link
/// encoding. Never fails; the outcome says what went on the wire.
fn relay<InE, UpE, UpB>(
    in_encoding: &InE,
    up_encoding: &UpE,
    up_binding: &mut UpB,
    request: &[u8],
    out: &mut Vec<u8>,
) -> HandleOutcome
where
    InE: EncodingPolicy,
    UpE: EncodingPolicy,
    UpB: BindingPolicy,
{
    let mut outcome = HandleOutcome::default();
    let relayed = (|| -> SoapResult<SoapEnvelope> {
        let mut doc = in_encoding.decode(request)?;
        let mut envelope = SoapEnvelope::take_from(&mut doc)?;
        let arrived = DeadlineHeader::from_envelope(&envelope)?.map(|h| h.admit_relay());
        outcome.serve_within(arrived, |admitted| {
            if let Some(admitted) = admitted {
                // Forward what is left of the budget (transit and
                // transcode time already spent here comes off the top)
                // with one hop consumed, and cap the upstream socket
                // work the same way.
                admitted.forward().stamp(&mut envelope);
                up_binding.set_call_deadline(Some(admitted.local()));
            }
            let exchanged = up_encoding
                .encode(&envelope.into_document())
                .and_then(|payload| up_binding.exchange(&payload, up_encoding.content_type()));
            if admitted.is_some() {
                up_binding.set_call_deadline(None);
            }
            exchanged
                .and_then(|reply| SoapEnvelope::take_from(&mut up_encoding.decode(&reply)?))
                .map_err(upstream_failed)
        })?
    })();
    // A down-link request this hop cannot read is the sender's fault, as
    // at an endpoint; the gate's refusals keep their own fault, and the
    // up-link's trouble is already this hop's Server fault.
    let response = relayed.unwrap_or_else(|e| fault_envelope(fault_for_error(e)));
    outcome.is_fault = encode_reply(in_encoding, response, out);
    outcome
}

/// What a streamed relay forwards to.
struct RelayTarget<InE, UpE> {
    in_enc: InE,
    up_enc: UpE,
    upstream_addr: String,
    upstream_path: String,
}

/// Trouble on the up-link is this hop's doing, not the sender's: the
/// sender gets a Server fault.
fn upstream_failed(e: SoapError) -> SoapError {
    SoapError::Fault(SoapFault::new(
        FaultCode::Server,
        &format!("intermediary relay failed: {e}"),
    ))
}

/// The relay hop of a streamed exchange: an own upstream [`HttpBinding`]
/// per exchange, parts forwarded as their chunks complete, the reply
/// pulled part by part.
struct Relay<InE, UpE> {
    target: Arc<RelayTarget<InE, UpE>>,
    /// The up-link, dialed when the manifest is admitted.
    up: Option<HttpBinding>,
    /// Same encoding on both hops: payload parts cross untouched (BXSA
    /// frames self-describe byte order, so bytes are portable as-is).
    verbatim: bool,
    /// Per-part transcode scratch (decode target).
    scratch: PartScratch,
    /// Reply manifest transcode target.
    doc: Document,
    /// Encode landing zone: outgoing manifest, transcoded parts,
    /// upstream reply parts.
    buf: Vec<u8>,
}

impl<InE: StreamEncoding, UpE: StreamEncoding> Relay<InE, UpE> {
    fn new(target: Arc<RelayTarget<InE, UpE>>) -> Relay<InE, UpE> {
        Relay {
            verbatim: target.in_enc.name() == target.up_enc.name(),
            target,
            up: None,
            scratch: PartScratch::default(),
            doc: Document::new(),
            buf: Vec::new(),
        }
    }

    /// Land the upstream reply's manifest, transcoded into `manifest`,
    /// or its whole buffered envelope.
    fn land(&mut self, manifest: &mut Vec<u8>) -> SoapResult<Option<SoapEnvelope>> {
        let t = &self.target;
        let up = self.up.as_mut().expect("an open relay has an upstream");
        if !up.stream_reply_manifest(&mut self.buf)? {
            // Buffered upstream reply (typically a fault): relay the whole
            // envelope; its status follows from what it is.
            t.up_enc.decode_into(&self.buf, &mut self.doc)?;
            return Ok(Some(SoapEnvelope::take_from(&mut self.doc)?));
        }
        // Transcode the reply manifest now, while a clean fault
        // downstream is still possible.
        if self.verbatim {
            std::mem::swap(manifest, &mut self.buf);
        } else {
            t.up_enc.decode_into(&self.buf, &mut self.doc)?;
            t.in_enc.encode_into(&self.doc, manifest)?;
        }
        Ok(None)
    }
}

impl<InE, UpE> Hop for Relay<InE, UpE>
where
    InE: StreamEncoding,
    UpE: StreamEncoding,
{
    type Down = InE;

    fn down(&self) -> &InE {
        &self.target.in_enc
    }

    fn admit(header: &DeadlineHeader) -> Result<Admitted, Refusal> {
        header.admit_relay()
    }

    /// Dial the upstream and forward the manifest, re-stamped with what
    /// is left of the budget (and one hop consumed) and re-encoded.
    fn open(&mut self, mut manifest: SoapEnvelope, admitted: Option<&Admitted>) -> SoapResult<()> {
        let t = &self.target;
        let deadline = admitted.map(|a| {
            a.forward().stamp(&mut manifest);
            a.local()
        });
        t.up_enc.encode_into(&manifest.into_document(), &mut self.buf)?;
        let mut up = HttpBinding::new(&t.upstream_addr, &t.upstream_path);
        up.stream_begin(t.up_enc.content_type(), deadline.as_ref())
            .and_then(|()| up.stream_send_part(&self.buf))
            .map_err(upstream_failed)?;
        self.up = Some(up);
        Ok(())
    }

    /// Forward one payload part upstream, transcoding unless the hops
    /// share an encoding.
    fn on_part(&mut self, part: &[u8]) -> SoapResult<()> {
        let t = &self.target;
        let up = self.up.as_mut().expect("an open relay has an upstream");
        if self.verbatim {
            return up.stream_send_part(part).map_err(upstream_failed);
        }
        let elem = t.in_enc.decode_part(part, &mut self.scratch)?;
        t.up_enc.encode_part_into(elem, &mut self.buf)?;
        up.stream_send_part(&self.buf).map_err(upstream_failed)
    }

    fn finish(&mut self, manifest: &mut Vec<u8>) -> SoapResult<Option<SoapEnvelope>> {
        self.land(manifest).map_err(upstream_failed)
    }

    fn next_part(&mut self, out: &mut Vec<u8>) -> SoapResult<bool> {
        let t = &self.target;
        let Some(up) = self.up.as_mut() else {
            return Ok(false);
        };
        if self.verbatim {
            // One pull, zero transcodes: upstream chunk bytes become the
            // downstream chunk directly.
            return up.stream_next_part_into(out);
        }
        if !up.stream_next_part_into(&mut self.buf)? {
            return Ok(false);
        }
        let elem = t.up_enc.decode_part(&self.buf, &mut self.scratch)?;
        t.in_enc.encode_part_into(elem, out)?;
        Ok(true)
    }

    /// Drop the upstream: a half-sent exchange cannot be reused.
    fn abandon(&mut self) {
        self.up = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TcpBinding;
    use crate::encoding::{BxsaEncoding, XmlEncoding};
    use crate::engine::{CallOptions, SoapEngine};
    use crate::server::TcpSoapServer;
    use crate::service::ServiceRegistry;
    use bxdm::{AtomicValue, Element};

    fn upper_registry() -> Arc<ServiceRegistry> {
        Arc::new(ServiceRegistry::new().with_operation("Upper", |req| {
            let text = req
                .body_element()
                .expect("dispatch checked")
                .child_value("s")
                .and_then(AtomicValue::as_str)
                .unwrap_or("")
                .to_uppercase();
            Ok(SoapEnvelope::with_body(
                Element::component("UpperResponse")
                    .with_child(Element::leaf("s", AtomicValue::Str(text))),
            ))
        }))
    }

    #[test]
    fn xml_client_bxsa_hop_xml_server() {
        // Terminal service speaks XML over TCP.
        let server =
            TcpSoapServer::bind("127.0.0.1:0", XmlEncoding::default(), upper_registry())
                .unwrap();

        // Intermediary: listens in BXSA, forwards in XML — the message
        // crosses the middle hop in binary even though both ends are
        // textual (the transcodability scenario of §5.1).
        let relay = Intermediary::bind_tcp(
            "127.0.0.1:0",
            BxsaEncoding::default(),
            XmlEncoding::default(),
            TcpBinding::new(&server.local_addr().to_string()),
        )
        .unwrap();

        // Client speaks BXSA to the relay.
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&relay.local_addr().to_string()),
        );
        let resp = engine
            .call_with(
                SoapEnvelope::with_body(
                    Element::component("Upper")
                        .with_child(Element::leaf("s", AtomicValue::Str("hello".into()))),
                ),
                &CallOptions::new(),
            )
            .unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("s"),
            Some(&AtomicValue::Str("HELLO".into()))
        );

        relay.shutdown();
        server.shutdown();
    }

    #[test]
    fn relay_surfaces_upstream_faults() {
        let server =
            TcpSoapServer::bind("127.0.0.1:0", XmlEncoding::default(), upper_registry())
                .unwrap();
        let relay = Intermediary::bind_tcp(
            "127.0.0.1:0",
            BxsaEncoding::default(),
            XmlEncoding::default(),
            TcpBinding::new(&server.local_addr().to_string()),
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&relay.local_addr().to_string()),
        );
        match engine.call_with(
            SoapEnvelope::with_body(Element::component("Nope")),
            &CallOptions::new(),
        ) {
            Err(crate::error::SoapError::Fault(f)) => {
                assert_eq!(f.code, FaultCode::Client);
            }
            other => panic!("expected relayed fault, got {other:?}"),
        }
        relay.shutdown();
        server.shutdown();
    }

    #[test]
    fn relay_with_dead_upstream_faults_cleanly() {
        let relay = Intermediary::bind_tcp(
            "127.0.0.1:0",
            BxsaEncoding::default(),
            XmlEncoding::default(),
            TcpBinding::new("127.0.0.1:1"), // nothing listening
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&relay.local_addr().to_string()),
        );
        match engine.call_with(
            SoapEnvelope::with_body(Element::component("Upper")),
            &CallOptions::new(),
        ) {
            Err(crate::error::SoapError::Fault(f)) => {
                assert_eq!(f.code, FaultCode::Server);
                assert!(f.string.contains("relay failed"));
            }
            other => panic!("expected server fault, got {other:?}"),
        }
        relay.shutdown();
    }
}
