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
//! the relay to streamed messages: each part is forwarded (or
//! transcoded) the moment its chunk completes, so the relay holds one
//! part — never the message — and a gigabyte payload crosses the hop in
//! O(window) memory. When both hops speak the same encoding, payload
//! parts are forwarded *verbatim*: BXSA element frames self-describe
//! their byte order, so the middle hop never even decodes them.

use std::net::SocketAddr;
use std::sync::Arc;

use bxdm::Document;
use parking_lot::Mutex;
use transport::{
    HttpConnection, HttpRequest, HttpResponse, StreamReply as WireReply, Timeouts,
    TransportResult,
};

use crate::binding::{BindingPolicy, HttpBinding};
use crate::encoding::EncodingPolicy;
use crate::envelope::{DeadlineHeader, SoapEnvelope};
use crate::error::{SoapError, SoapResult};
use crate::fault::{FaultCode, SoapFault};
use crate::metrics;
use crate::service::{encode_reply, fault_envelope, fault_for_error, HandleOutcome};
use crate::streaming::{buffered_reply, wire_err, PartScratch, StreamEncoding, MAX_PART_LEN};

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
                Some(Box::new(RelaySession::new(Arc::clone(&stream_target))))
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
            SoapEnvelope::take_from(&mut up_encoding.decode(&exchanged?)?)
        })?
    })();
    // The gate's refusals keep their own fault; anything else that went
    // wrong on this hop is the service's problem.
    let response = relayed.unwrap_or_else(|e| {
        fault_envelope(match e {
            SoapError::Fault(fault) => fault,
            e => SoapFault::new(FaultCode::Server, &format!("intermediary relay failed: {e}")),
        })
    });
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

/// Where one streamed relay exchange stands.
enum RelayState {
    /// Nothing received: the first part must be the manifest.
    AwaitManifest,
    /// Manifest forwarded; parts are proxying through.
    Proxying,
    /// The request phase failed: the encoded (down-link) fault waits for
    /// the sender's terminator; further parts are drained silently.
    Faulted(Vec<u8>),
}

/// One streamed exchange through the relay: an own upstream connection,
/// parts forwarded as chunks complete, the reply pulled part by part.
struct RelaySession<InE, UpE> {
    target: Arc<RelayTarget<InE, UpE>>,
    state: RelayState,
    /// What the buffered reply, if any, puts on the wire.
    outcome: HandleOutcome,
    /// The upstream connection, dialed when the manifest arrives.
    conn: Option<HttpConnection>,
    /// Same encoding on both hops: payload parts cross untouched (BXSA
    /// frames self-describe byte order, so bytes are portable as-is).
    verbatim: bool,
    /// Per-part transcode scratch (decode target).
    scratch: PartScratch,
    /// Manifest (whole-envelope) decode target.
    doc: Document,
    /// Encode landing zone: outgoing manifest, transcoded parts,
    /// upstream reply parts.
    buf: Vec<u8>,
    /// Transcoded reply manifest, emitted as the first reply part.
    reply_manifest: Vec<u8>,
    manifest_sent: bool,
}

impl<InE, UpE> RelaySession<InE, UpE>
where
    InE: StreamEncoding,
    UpE: StreamEncoding,
{
    fn new(target: Arc<RelayTarget<InE, UpE>>) -> RelaySession<InE, UpE> {
        let verbatim = target.in_enc.name() == target.up_enc.name();
        RelaySession {
            target,
            state: RelayState::AwaitManifest,
            outcome: HandleOutcome::default(),
            conn: None,
            verbatim,
            scratch: PartScratch::default(),
            doc: Document::new(),
            buf: Vec::new(),
            reply_manifest: Vec::new(),
            manifest_sent: false,
        }
    }

    /// Doom the exchange: pre-encode the down-link fault and drop any
    /// upstream connection (it cannot be cleanly reused mid-stream).
    fn fault(&mut self, fault: SoapFault) {
        self.conn = None;
        let mut out = Vec::new();
        self.outcome.is_fault = encode_reply(&self.target.in_enc, fault_envelope(fault), &mut out);
        self.state = RelayState::Faulted(out);
    }

    /// Decode the manifest, apply the hop/deadline discipline, dial the
    /// upstream, and forward the (re-stamped, re-encoded) manifest.
    fn handle_manifest(&mut self, part: &[u8]) {
        let opened = (|| -> SoapResult<HttpConnection> {
            let t = &self.target;
            t.in_enc.decode_into(part, &mut self.doc)?;
            let mut envelope = SoapEnvelope::take_from(&mut self.doc)?;
            let arrived = DeadlineHeader::from_envelope(&envelope)?.map(|h| h.admit_relay());
            let timeouts = self.outcome.serve_within(arrived, |admitted| match admitted {
                Some(admitted) => {
                    admitted.forward().stamp(&mut envelope);
                    Timeouts::none().clamped_to(&admitted.local())
                }
                None => Ok(Timeouts::none()),
            })?;
            let timeouts = timeouts.map_err(SoapError::Transport)?;
            let mut conn = HttpConnection::new(&t.upstream_addr);
            let head = HttpRequest::post(&t.upstream_path, t.up_enc.content_type(), Vec::new());
            conn.stream_begin_with(&head, &timeouts)
                .map_err(SoapError::Transport)?;
            t.up_enc
                .encode_into(&envelope.into_document(), &mut self.buf)?;
            conn.stream_send_part(&self.buf)
                .map_err(SoapError::Transport)?;
            Ok(conn)
        })();
        match opened {
            Ok(conn) => {
                self.conn = Some(conn);
                self.state = RelayState::Proxying;
            }
            Err(e) => self.fault(fault_for_error(e)),
        }
    }

    /// Forward one payload part upstream, transcoding unless the hops
    /// share an encoding.
    fn forward_part(&mut self, part: &[u8]) -> SoapResult<()> {
        let t = &self.target;
        let conn = self.conn.as_mut().expect("proxying state has a connection");
        if self.verbatim {
            return conn.stream_send_part(part).map_err(SoapError::Transport);
        }
        let elem = t.in_enc.decode_part(part, &mut self.scratch)?;
        t.up_enc.encode_part_into(elem, &mut self.buf)?;
        conn.stream_send_part(&self.buf).map_err(SoapError::Transport)
    }
}

impl<InE, UpE> transport::StreamSession for RelaySession<InE, UpE>
where
    InE: StreamEncoding + Send + Sync + 'static,
    UpE: StreamEncoding + Send + Sync + 'static,
{
    fn on_part(&mut self, part: &[u8]) -> TransportResult<()> {
        match &mut self.state {
            RelayState::AwaitManifest => {
                metrics::stream().streams.inc();
                self.handle_manifest(part);
            }
            RelayState::Proxying => {
                if let Err(e) = self.forward_part(part) {
                    // Our reply head is not out yet, so the sender can
                    // still get a clean in-band fault once it finishes.
                    self.fault(fault_for_error(e));
                }
            }
            RelayState::Faulted(_) => {}
        }
        Ok(())
    }

    fn finish(&mut self) -> TransportResult<WireReply> {
        let content_type = self.target.in_enc.content_type();
        match &mut self.state {
            RelayState::AwaitManifest => {
                self.fault(SoapFault::new(
                    FaultCode::Client,
                    "streamed request ended before its manifest",
                ));
                self.finish()
            }
            RelayState::Proxying => {
                let relayed = (|| -> SoapResult<WireReply> {
                    let conn = self.conn.as_mut().expect("proxying has a connection");
                    conn.stream_finish_send().map_err(SoapError::Transport)?;
                    let mut response = HttpResponse::ok(content_type, Vec::new());
                    let streamed = conn
                        .stream_read_head(&mut response)
                        .map_err(SoapError::Transport)?;
                    let t = &self.target;
                    if !streamed {
                        // Buffered upstream reply (typically a fault):
                        // transcode the whole envelope; its status follows
                        // from what it is, as on every other path.
                        t.up_enc.decode_into(&response.body, &mut self.doc)?;
                        let reply = SoapEnvelope::take_from(&mut self.doc)?;
                        let mut out = Vec::new();
                        self.outcome.is_fault = encode_reply(&t.in_enc, reply, &mut out);
                        return Ok(buffered_reply(&self.outcome, content_type, out));
                    }
                    // Streamed reply: its first part is the manifest —
                    // transcode it now, while a clean fault downstream is
                    // still possible, and hold it as our first part.
                    if !conn
                        .stream_next_part_into(&mut self.buf, MAX_PART_LEN)
                        .map_err(SoapError::Transport)?
                    {
                        return Err(SoapError::Protocol(
                            "upstream streamed reply ended before its manifest".into(),
                        ));
                    }
                    if self.verbatim {
                        std::mem::swap(&mut self.reply_manifest, &mut self.buf);
                    } else {
                        t.up_enc.decode_into(&self.buf, &mut self.doc)?;
                        t.in_enc.encode_into(&self.doc, &mut self.reply_manifest)?;
                    }
                    self.manifest_sent = false;
                    Ok(WireReply::Streamed(HttpResponse::ok(
                        content_type,
                        Vec::new(),
                    )))
                })();
                match relayed {
                    Ok(reply) => Ok(reply),
                    Err(e) => {
                        self.fault(fault_for_error(SoapError::Fault(SoapFault::new(
                            FaultCode::Server,
                            &format!("intermediary relay failed: {e}"),
                        ))));
                        self.finish()
                    }
                }
            }
            RelayState::Faulted(bytes) => Ok(buffered_reply(
                &self.outcome,
                content_type,
                std::mem::take(bytes),
            )),
        }
    }

    fn next_part(&mut self, out: &mut Vec<u8>) -> TransportResult<bool> {
        if !self.manifest_sent {
            self.manifest_sent = true;
            std::mem::swap(out, &mut self.reply_manifest);
            return Ok(true);
        }
        let Some(conn) = self.conn.as_mut() else {
            return Ok(false);
        };
        if self.verbatim {
            // One pull, zero transcodes: upstream chunk bytes become the
            // downstream chunk directly.
            return conn.stream_next_part_into(out, MAX_PART_LEN);
        }
        if !conn.stream_next_part_into(&mut self.buf, MAX_PART_LEN)? {
            return Ok(false);
        }
        let t = &self.target;
        let elem = t
            .up_enc
            .decode_part(&self.buf, &mut self.scratch)
            .map_err(wire_err)?;
        t.in_enc.encode_part_into(elem, out).map_err(wire_err)?;
        Ok(true)
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
