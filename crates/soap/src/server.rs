//! Server bindings: expose a [`SoapService`] over TCP or HTTP.
//!
//! Both servers inherit the transport layer's resilience: a connection
//! that stalls past its read budget, trips the frame limit, or dies
//! mid-message takes a typed, *counted* error path (per-kind in
//! `bx_server_connection_errors_total`, in aggregate via
//! [`connection_errors`](TcpSoapServer::connection_errors)) and never
//! takes the listener down.

use std::net::SocketAddr;
use std::sync::Arc;

use transport::{GatherSink, HttpResponse, HttpServerConfig, Reply, ReplyControl, TcpServerConfig};

use crate::encoding::EncodingPolicy;
use crate::error::SoapResult;
use crate::service::{DecodeScratch, HandleOutcome, ReplyTarget, ServiceRegistry, SoapService};
use crate::streaming::{Endpoint, Session, StreamEncoding};

/// An HTTP reply a [`HandleOutcome`] is written onto: a buffered
/// handler's reused [`Reply`], or the [`HttpResponse`] a streamed
/// session answers with.
pub(crate) trait HttpReplyHead {
    fn status_line(&mut self, status: u16, reason: &str);
    fn add_header(&mut self, name: &str, value: &str);
}

impl HttpReplyHead for Reply {
    fn status_line(&mut self, status: u16, reason: &str) {
        self.set_status(status, reason);
    }
    fn add_header(&mut self, name: &str, value: &str) {
        self.header(name, value);
    }
}

impl HttpReplyHead for HttpResponse {
    fn status_line(&mut self, status: u16, reason: &str) {
        self.status = status;
        self.reason = reason.to_owned();
    }
    fn add_header(&mut self, name: &str, value: &str) {
        self.headers.push((name.to_owned(), value.to_owned()));
    }
}

/// A framed-TCP handler's reply: the connection's reply buffer, and its
/// socket for a gathered reply.
struct FramedReply<'a, 'c> {
    out: &'a mut Vec<u8>,
    ctl: &'a mut ReplyControl<'c>,
}

impl ReplyTarget for FramedReply<'_, '_> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self.out
    }

    fn can_gather(&self) -> bool {
        self.ctl.can_gather()
    }

    fn gather(&mut self, len: usize) -> Option<GatherSink<'_>> {
        self.ctl.gather(len)
    }
}

/// An HTTP handler's reply: the connection's [`Reply`], and its socket
/// for a gathered reply, which goes out as a `200` with the service's
/// content type (a gathered reply is never a fault).
struct HttpReply<'a, 'c> {
    reply: &'a mut Reply,
    ctl: &'a mut ReplyControl<'c>,
    content_type: &'static str,
}

impl ReplyTarget for HttpReply<'_, '_> {
    fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.reply.body
    }

    fn can_gather(&self) -> bool {
        self.ctl.can_gather()
    }

    fn gather(&mut self, len: usize) -> Option<GatherSink<'_>> {
        self.reply
            .gather(self.ctl, len, &[("Content-Type", self.content_type)])
    }
}

impl HandleOutcome {
    /// Cap the reply write to what is left of the caller's budget — the
    /// framed-TCP half of the outcome-to-wire mapping (faults travel
    /// in-band there: the envelope itself says so).
    pub(crate) fn cap_write(&self, ctl: &mut ReplyControl) {
        if let Some(budget) = self.reply_budget {
            ctl.cap_write(budget);
        }
    }

    /// The one outcome-to-HTTP mapping every SOAP node answers through.
    /// SOAP 1.1 over HTTP (§6.2): faults ride in 500 responses. A
    /// refusal's retry hint becomes a real `Retry-After` header (the
    /// in-band fault detail carries it for raw TCP, where no such header
    /// exists), and the caller's remaining budget caps the write where
    /// the transport offers a cap.
    pub(crate) fn write_http(
        &self,
        content_type: &str,
        reply: &mut impl HttpReplyHead,
        ctl: Option<&mut ReplyControl>,
    ) {
        if self.is_fault {
            reply.status_line(500, "Internal Server Error");
        }
        reply.add_header("Content-Type", content_type);
        if let Some(hint) = self.retry_after {
            reply.add_header("Retry-After", &hint.as_secs().max(1).to_string());
        }
        if let Some(ctl) = ctl {
            self.cap_write(ctl);
        }
    }
}

/// Seed a [`transport::ServerBuilder`] from a framed-TCP config.
fn builder_for(addr: &str, config: &TcpServerConfig) -> transport::ServerBuilder {
    let mut b = transport::ServerBuilder::bind(addr).overload(config.overload);
    if let Some(t) = config.read_timeout {
        b = b.read_timeout(t);
    }
    if let Some(t) = config.write_timeout {
        b = b.write_timeout(t);
    }
    b
}

/// Seed a [`transport::ServerBuilder`] from an HTTP config.
fn builder_for_http(addr: &str, config: &HttpServerConfig) -> transport::ServerBuilder {
    let mut b = transport::ServerBuilder::bind(addr).overload(config.overload);
    if let Some(t) = config.read_timeout {
        b = b.read_timeout(t);
    }
    if let Some(t) = config.write_timeout {
        b = b.write_timeout(t);
    }
    if let Some(p) = config.metrics_path {
        b = b.metrics_path(p);
    }
    b
}

/// A SOAP service listening on framed TCP.
pub struct TcpSoapServer {
    inner: transport::Server,
}

impl TcpSoapServer {
    /// Serve `registry` with encoding `E` on `addr` (port 0 = ephemeral).
    pub fn bind<E>(addr: &str, encoding: E, registry: Arc<ServiceRegistry>) -> SoapResult<TcpSoapServer>
    where
        E: EncodingPolicy + Send + Sync + 'static,
    {
        let service = SoapService::new(encoding, registry);
        TcpSoapServer::bind_service_with(addr, TcpServerConfig::default(), service)
    }

    /// [`bind`](TcpSoapServer::bind) with explicit per-connection limits,
    /// serving a caller-built [`SoapService`] — the way to put typed
    /// operations ([`SoapService::register_typed`]) on a live listener,
    /// since those are registered on the service rather than the
    /// registry.
    pub fn bind_service_with<E>(
        addr: &str,
        config: TcpServerConfig,
        service: SoapService<E>,
    ) -> SoapResult<TcpSoapServer>
    where
        E: EncodingPolicy + Send + Sync + 'static,
    {
        TcpSoapServer::serve(builder_for(addr, &config), &config, service)
    }

    /// [`bind_service_with`](TcpSoapServer::bind_service_with) with every
    /// accepted stream wrapped in a fault-injecting transport drawing
    /// from `injector` — byte-level torture of the server's own read
    /// *and write* paths under a live accept loop. Apart from the
    /// injected faults it serves exactly like `bind_service_with`.
    pub fn bind_faulty<E>(
        addr: &str,
        config: TcpServerConfig,
        injector: transport::SharedInjector,
        service: SoapService<E>,
    ) -> SoapResult<TcpSoapServer>
    where
        E: EncodingPolicy + Send + Sync + 'static,
    {
        let builder = builder_for(addr, &config).faults(injector);
        TcpSoapServer::serve(builder, &config, service)
    }

    /// The one framed-TCP SOAP funnel: every constructor above ends here,
    /// so all of them shed and answer the same way.
    fn serve<E>(
        builder: transport::ServerBuilder,
        config: &TcpServerConfig,
        service: SoapService<E>,
    ) -> SoapResult<TcpSoapServer>
    where
        E: EncodingPolicy + Send + Sync + 'static,
    {
        // Overload answers travel in-band too: the shed/reject payload is
        // a Server fault carrying a `retry-after-ms` detail, pre-encoded
        // once at bind time through this server's own encoding policy so
        // the hot shed path never encodes anything.
        let shed_payload = service.encoding().encode(
            &crate::service::fault_envelope(crate::fault::SoapFault::overloaded(
                config.overload.retry_after_hint,
            ))
            .into_document(),
        )?;
        // The scoped handler keeps each connection's request/response
        // buffers AND its decode document alive across messages, so
        // steady-state service does no per-message payload or decode
        // allocation.
        let inner = builder
            .shed_payload(shed_payload)
            .serve_framed(DecodeScratch::default, move |scratch, request, out, ctl| {
                let outcome = service.handle(scratch, request, &mut FramedReply { out, ctl });
                outcome.cap_write(ctl);
            })?;
        Ok(TcpSoapServer { inner })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Connections that ended with a transport error (half-written
    /// frame, oversize prefix, mid-read stall) without harming the
    /// listener.
    pub fn connection_errors(&self) -> u64 {
        self.inner.error_count()
    }

    /// Stop serving: in-flight messages get a short grace period, idle
    /// connections close immediately.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }

    /// [`shutdown`](TcpSoapServer::shutdown) with an explicit drain
    /// deadline; connections still mid-message when it expires are
    /// dropped and counted as
    /// `bx_server_connection_errors_total{kind="shutdown_drop"}`.
    pub fn shutdown_within(self, drain: std::time::Duration) {
        self.inner.shutdown_within(drain);
    }
}

/// A SOAP service listening on HTTP POST.
pub struct HttpSoapServer {
    inner: transport::Server,
}

impl HttpSoapServer {
    /// Serve `registry` with encoding `E` on `addr` at `path`. Also
    /// answers `GET /metrics` with the process-wide metrics in
    /// Prometheus text format; use
    /// [`bind_service_with`](HttpSoapServer::bind_service_with) and
    /// [`HttpServerConfig::metrics_path`] to move or disable the scrape
    /// endpoint.
    pub fn bind<E>(
        addr: &str,
        path: &str,
        encoding: E,
        registry: Arc<ServiceRegistry>,
    ) -> SoapResult<HttpSoapServer>
    where
        E: StreamEncoding + Send + Sync + 'static,
    {
        let config = HttpServerConfig {
            metrics_path: Some("/metrics"),
            ..HttpServerConfig::default()
        };
        let service = SoapService::new(encoding, registry);
        HttpSoapServer::bind_service_with(addr, path, config, service)
    }

    /// [`bind`](HttpSoapServer::bind) with explicit per-connection
    /// limits, serving a caller-built [`SoapService`] — see
    /// [`TcpSoapServer::bind_service_with`]. This is also where
    /// streaming operations ([`SoapService::register_streaming`]) go
    /// live: when the service has any, chunked requests at `path` are
    /// upgraded to streamed sessions; buffered requests (and chunked
    /// ones on a service with no streaming ops) take the ordinary
    /// buffered pipeline.
    pub fn bind_service_with<E>(
        addr: &str,
        path: &str,
        config: HttpServerConfig,
        service: SoapService<E>,
    ) -> SoapResult<HttpSoapServer>
    where
        E: StreamEncoding + Send + Sync + 'static,
    {
        let content_type = service.encoding().content_type();
        let service = Arc::new(service);
        let mut builder = builder_for_http(addr, &config);
        if service.has_streaming() {
            let stream_service = Arc::clone(&service);
            let stream_path = path.to_owned();
            builder = builder.stream_factory(move |head| {
                // Operation dispatch happens at the manifest (first
                // part), not here: the head only gates path and method.
                if head.method != "POST" || head.path != stream_path {
                    return None;
                }
                Some(Box::new(Session::new(Endpoint::new(Arc::clone(
                    &stream_service,
                )))))
            });
        }
        let path = path.to_owned();
        // Each keep-alive connection keeps its decode document, request
        // body and reply buffers across requests, as on framed TCP.
        let inner = builder.serve_http(
            DecodeScratch::default,
            move |scratch, head, body, reply, ctl| {
                if head.method != "POST" || head.path != path {
                    reply.respond(transport::HttpResponse::not_found());
                    return;
                }
                let outcome = service.handle(
                    scratch,
                    body,
                    &mut HttpReply {
                        reply,
                        ctl,
                        content_type,
                    },
                );
                if ctl.gathered() {
                    // The head went out with the reply's first piece.
                    outcome.cap_write(ctl);
                } else {
                    outcome.write_http(content_type, reply, Some(ctl));
                }
            },
        )?;
        Ok(HttpSoapServer { inner })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Connections that ended with a transport error without harming the
    /// listener.
    pub fn connection_errors(&self) -> u64 {
        self.inner.error_count()
    }

    /// Stop serving: in-flight requests get a short grace period, idle
    /// keep-alive connections close immediately.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }

    /// [`shutdown`](HttpSoapServer::shutdown) with an explicit drain
    /// deadline; connections still mid-request when it expires are
    /// dropped and counted as
    /// `bx_server_connection_errors_total{kind="shutdown_drop"}`.
    pub fn shutdown_within(self, drain: std::time::Duration) {
        self.inner.shutdown_within(drain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{HttpBinding, TcpBinding};
    use crate::encoding::{BxsaEncoding, XmlEncoding};
    use crate::engine::{CallOptions, SoapEngine};
    use crate::envelope::SoapEnvelope;
    use crate::error::SoapError;
    use crate::fault::FaultCode;
    use bxdm::{ArrayValue, AtomicValue, Element};

    /// The paper's test service in miniature: verify each value in the
    /// model and send the verification result back (§6, "unified
    /// solution").
    fn verify_registry() -> Arc<ServiceRegistry> {
        Arc::new(ServiceRegistry::new().with_operation("Verify", |req| {
            let op = req
                .body_element()
                .expect("dispatch guarantees a body element");
            let values = op
                .find_child("values")
                .and_then(Element::as_f64_array)
                .ok_or_else(|| SoapError::Protocol("missing values array".into()))?;
            let ok = values.iter().all(|v| v.is_finite());
            Ok(SoapEnvelope::with_body(
                Element::component("VerifyResponse")
                    .with_child(Element::leaf("ok", AtomicValue::Bool(ok)))
                    .with_child(Element::leaf(
                        "count",
                        AtomicValue::I64(values.len() as i64),
                    )),
            ))
        }))
    }

    fn verify_request(n: usize) -> SoapEnvelope {
        SoapEnvelope::with_body(Element::component("Verify").with_child(Element::array(
            "values",
            ArrayValue::F64((0..n).map(|i| i as f64 * 0.5).collect()),
        )))
    }

    #[test]
    fn bxsa_over_tcp_end_to_end() {
        let server =
            TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), verify_registry())
                .unwrap();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&server.local_addr().to_string()),
        );
        let resp = engine.call_with(verify_request(100), &CallOptions::new()).unwrap();
        let body = resp.body_element().unwrap();
        assert_eq!(body.child_value("ok"), Some(&AtomicValue::Bool(true)));
        assert_eq!(body.child_value("count"), Some(&AtomicValue::I64(100)));
        server.shutdown();
    }

    #[test]
    fn xml_over_http_end_to_end() {
        let server = HttpSoapServer::bind(
            "127.0.0.1:0",
            "/soap",
            XmlEncoding::default(),
            verify_registry(),
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            HttpBinding::new(&server.local_addr().to_string(), "/soap"),
        );
        let resp = engine.call_with(verify_request(10), &CallOptions::new()).unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("ok"),
            Some(&AtomicValue::Bool(true))
        );
        server.shutdown();
    }

    #[test]
    fn remaining_policy_combinations_work() {
        // BXSA over HTTP.
        let server = HttpSoapServer::bind(
            "127.0.0.1:0",
            "/soap",
            BxsaEncoding::default(),
            verify_registry(),
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            HttpBinding::new(&server.local_addr().to_string(), "/soap"),
        );
        assert!(engine.call_with(verify_request(5), &CallOptions::new()).is_ok());
        server.shutdown();

        // XML over raw TCP.
        let server =
            TcpSoapServer::bind("127.0.0.1:0", XmlEncoding::default(), verify_registry())
                .unwrap();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            TcpBinding::new(&server.local_addr().to_string()),
        );
        assert!(engine.call_with(verify_request(5), &CallOptions::new()).is_ok());
        server.shutdown();
    }

    #[test]
    fn faults_cross_both_transports() {
        let server =
            TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), verify_registry())
                .unwrap();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&server.local_addr().to_string()),
        );
        let bad = SoapEnvelope::with_body(Element::component("NoSuchOp"));
        match engine.call_with(bad.clone(), &CallOptions::new()) {
            Err(SoapError::Fault(f)) => assert_eq!(f.code, FaultCode::Client),
            other => panic!("expected fault, got {other:?}"),
        }
        server.shutdown();

        let server = HttpSoapServer::bind(
            "127.0.0.1:0",
            "/soap",
            XmlEncoding::default(),
            verify_registry(),
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            HttpBinding::new(&server.local_addr().to_string(), "/soap"),
        );
        match engine.call_with(bad, &CallOptions::new()) {
            Err(SoapError::Fault(f)) => assert_eq!(f.code, FaultCode::Client),
            other => panic!("expected fault, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn half_written_frame_leaves_soap_listener_alive() {
        use std::io::Write;
        use std::time::Duration;

        let server = TcpSoapServer::bind_service_with(
            "127.0.0.1:0",
            TcpServerConfig {
                read_timeout: Some(Duration::from_millis(50)),
                write_timeout: Some(Duration::from_secs(5)),
                ..TcpServerConfig::default()
            },
            SoapService::new(BxsaEncoding::default(), verify_registry()),
        )
        .unwrap();
        let addr = server.local_addr();

        // A client that declares a 4 KiB frame, writes half a message,
        // and disconnects.
        {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(&4096u32.to_be_bytes()).unwrap();
            raw.write_all(&[0xBB; 100]).unwrap();
        }
        // The failure is counted (poll: the worker races the assertion)...
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.connection_errors() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.connection_errors() >= 1, "truncation must be counted");
        // ...and the listener still serves real SOAP traffic.
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&addr.to_string()),
        );
        let resp = engine.call_with(verify_request(10), &CallOptions::new()).unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("ok"),
            Some(&AtomicValue::Bool(true))
        );
        server.shutdown();
    }

    #[test]
    fn http_wrong_path_is_transport_error() {
        let server = HttpSoapServer::bind(
            "127.0.0.1:0",
            "/soap",
            XmlEncoding::default(),
            verify_registry(),
        )
        .unwrap();
        let mut engine = SoapEngine::new(
            XmlEncoding::default(),
            HttpBinding::new(&server.local_addr().to_string(), "/wrong"),
        );
        assert!(matches!(
            engine.call_with(verify_request(1), &CallOptions::new()),
            Err(SoapError::Transport(_))
        ));
        server.shutdown();
    }
}
