//! End-to-end deadline propagation and circuit-breaker acceptance tests.
//!
//! The scenarios here are the ISSUE's acceptance criteria: a client
//! budget observed across a 3-hop chain under stalls, expired-on-arrival
//! rejection with zero handler executions on both transports, hop
//! decrement through a live intermediary, and a breaker opening /
//! fast-failing / recovering against real sockets.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bxdm::{AtomicValue, Element};
use soap::{
    BreakerConfig, BreakerHandle, BreakerState, BxsaEncoding, CallOptions, DeadlineHeader,
    EncodingPolicy, FaultCode, HttpBinding, HttpSoapServer, Intermediary, ServiceRegistry,
    SoapEngine, SoapEnvelope, SoapError, SoapFault, SoapResult, SoapService, StreamOp,
    TcpBinding, TcpSoapServer, XmlEncoding, EXPIRED_RETRY_AFTER,
};
use transport::{HttpConnection, HttpRequest, HttpResponse, TcpServerConfig, Timeouts};

/// A service whose single operation parks the worker for `nap`, counting
/// executions — ground truth for both "did the handler run at all" and
/// "did the client wait for it".
fn slow_registry(nap: Duration, hits: Arc<AtomicU32>) -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::new().with_operation("Slow", move |_req| {
        hits.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(nap);
        Ok(SoapEnvelope::with_body(Element::component("SlowResponse")))
    }))
}

/// A service that reports the `bx:Deadline` header it observed.
fn echo_deadline_registry() -> Arc<ServiceRegistry> {
    Arc::new(
        ServiceRegistry::new().with_operation("EchoDeadline", |req| {
            let header = DeadlineHeader::from_envelope(req)?;
            let mut reply = Element::component("EchoDeadlineResponse");
            if let Some(h) = header {
                reply.push_child(Element::leaf(
                    "budgetMillis",
                    AtomicValue::I64(h.budget_millis as i64),
                ));
                reply.push_child(Element::leaf("hops", AtomicValue::I64(i64::from(h.hops))));
            }
            Ok(SoapEnvelope::with_body(reply))
        }),
    )
}

fn slow_request() -> SoapEnvelope {
    SoapEnvelope::with_body(Element::component("Slow"))
}

/// A `Slow` request stamped with a hand-made `bx:Deadline`.
fn stamped(budget_millis: u64, hops: u32) -> SoapEnvelope {
    let mut request = slow_request();
    DeadlineHeader::new(budget_millis, hops).stamp(&mut request);
    request
}

const XML: &str = "text/xml; charset=utf-8";

/// POST one envelope as a plain (buffered) XML request.
fn post_xml(addr: &str, envelope: &SoapEnvelope) -> HttpResponse {
    let body = XmlEncoding::default().encode(&envelope.to_document()).unwrap();
    transport::send_request(addr, &HttpRequest::post("/soap", XML, body)).unwrap()
}

/// Send one envelope as a streamed XML request: the envelope is the
/// manifest, with no payload parts after it.
fn stream_xml(addr: &str, envelope: &SoapEnvelope) -> HttpResponse {
    let manifest = XmlEncoding::default().encode(&envelope.to_document()).unwrap();
    let mut conn = HttpConnection::new(addr);
    conn.stream_begin(&HttpRequest::post("/soap", XML, Vec::new()))
        .unwrap();
    conn.stream_send_part(&manifest).unwrap();
    conn.stream_finish_send().unwrap();
    let mut response = HttpResponse::empty();
    let streamed = conn.stream_read_head(&mut response).unwrap();
    assert!(!streamed, "a refused request is answered buffered");
    response
}

/// The SOAP fault an HTTP response body carries.
fn fault_of(response: &HttpResponse) -> SoapFault {
    let doc = XmlEncoding::default().decode(&response.body).unwrap();
    SoapEnvelope::from_document(&doc)
        .unwrap()
        .as_fault()
        .expect("response body is a fault")
}

/// An XML HTTP endpoint serving `registry`, and an XML-to-XML
/// `bind_http_streaming` relay in front of it.
fn http_endpoint_and_relay(registry: Arc<ServiceRegistry>) -> (HttpSoapServer, Intermediary) {
    let server =
        HttpSoapServer::bind("127.0.0.1:0", "/soap", XmlEncoding::default(), registry).unwrap();
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    (server, relay)
}

#[test]
fn three_hop_chain_observes_the_client_budget_end_to_end() {
    // Terminal server: XML over TCP, handler parks for 2 s, static
    // timeouts a generous 10 s — without deadline propagation the client
    // would sit out the full nap.
    let hits = Arc::new(AtomicU32::new(0));
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..TcpServerConfig::default()
        },
        soap::SoapService::new(
            XmlEncoding::default(),
            slow_registry(Duration::from_secs(2), Arc::clone(&hits)),
        ),
    )
    .unwrap();

    // Middle hop: listens in BXSA, forwards in XML, again with generous
    // static budgets on its up-link.
    let relay = Intermediary::bind_tcp(
        "127.0.0.1:0",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        TcpBinding::new(&server.local_addr().to_string())
            .with_timeouts(Timeouts::all(Duration::from_secs(10))),
    )
    .unwrap();

    // Client: 350 ms end-to-end budget through the relay.
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        TcpBinding::new(&relay.local_addr().to_string())
            .with_timeouts(Timeouts::all(Duration::from_secs(10))),
    );
    let started = Instant::now();
    let err = engine
        .call_with(
            slow_request(),
            &CallOptions::new().within(Duration::from_millis(350)),
        )
        .unwrap_err();
    let waited = started.elapsed();
    // Two valid outcomes race: the client's own clamped socket budget
    // fires, or the relay's clamped up-link fires first and a Server
    // fault beats the client's timeout home. Both prove propagation;
    // anything else (success, a Client fault) would not.
    match &err {
        SoapError::Transport(_) => {}
        SoapError::Fault(f) => {
            assert_eq!(f.code, soap::FaultCode::Server, "{f:?}");
            assert!(f.string.contains("timed out"), "{f:?}");
        }
        other => panic!("expected a timeout either hop, got {other:?}"),
    }
    // The client must give up on *its* clock: far sooner than the 2 s
    // nap or any 10 s static allowance. The margin below the nap proves
    // the deadline, not a static timeout, cut the wait.
    assert!(
        waited < Duration::from_millis(1500),
        "client waited {waited:?} against a 350 ms budget"
    );
    assert_eq!(hits.load(Ordering::SeqCst), 1, "request did reach the service");

    relay.shutdown();
    server.shutdown();
}

#[test]
fn expired_on_arrival_is_rejected_without_dispatch_on_both_transports() {
    let hits = Arc::new(AtomicU32::new(0));
    let registry = slow_registry(Duration::ZERO, Arc::clone(&hits));
    let tcp =
        TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), Arc::clone(&registry))
            .unwrap();
    let http = HttpSoapServer::bind(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        Arc::clone(&registry),
    )
    .unwrap();

    // A request whose budget was already spent when it left the client:
    // stamped by hand so no re-stamping path can refresh it.
    let mut dead = slow_request();
    DeadlineHeader::new(0, 4).stamp(&mut dead);

    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        TcpBinding::new(&tcp.local_addr().to_string()),
    );
    match engine.call_with(dead.clone(), &soap::CallOptions::new()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, soap::FaultCode::Server);
            assert_eq!(f.retry_after(), Some(EXPIRED_RETRY_AFTER));
        }
        other => panic!("expected deadline-expired fault, got {other:?}"),
    }

    let mut engine = SoapEngine::new(
        XmlEncoding::default(),
        HttpBinding::new(&http.local_addr().to_string(), "/soap"),
    );
    match engine.call_with(dead.clone(), &soap::CallOptions::new()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, soap::FaultCode::Server);
            assert_eq!(f.retry_after(), Some(EXPIRED_RETRY_AFTER));
        }
        other => panic!("expected deadline-expired fault, got {other:?}"),
    }

    // On HTTP the hint is *also* a real Retry-After header on the 500.
    let body = XmlEncoding::default()
        .encode(&dead.to_document())
        .unwrap();
    let resp = transport::http_post(
        &http.local_addr().to_string(),
        "/soap",
        "text/xml; charset=utf-8",
        body,
    )
    .unwrap();
    assert_eq!(resp.status, 500);
    assert_eq!(resp.header("Retry-After"), Some("1"));

    assert_eq!(
        hits.load(Ordering::SeqCst),
        0,
        "expired requests must never reach the handler"
    );
    tcp.shutdown();
    http.shutdown();
}

#[test]
fn intermediary_decrements_hops_and_forwards_remaining_budget() {
    let server = TcpSoapServer::bind(
        "127.0.0.1:0",
        XmlEncoding::default(),
        echo_deadline_registry(),
    )
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

    // Hand-stamped header with a known hop count crosses one relay hop.
    let mut request = SoapEnvelope::with_body(Element::component("EchoDeadline"));
    DeadlineHeader::new(5_000, 3).stamp(&mut request);
    let resp = engine.call_with(request, &soap::CallOptions::new()).unwrap();
    let body = resp.body_element().unwrap();
    let Some(AtomicValue::I64(hops)) = body.child_value("hops") else {
        panic!("server saw no deadline header");
    };
    assert_eq!(*hops, 2, "one hop must be consumed at the relay");
    let Some(AtomicValue::I64(budget)) = body.child_value("budgetMillis") else {
        panic!("budget missing");
    };
    assert!(
        (0..=5_000).contains(budget),
        "forwarded budget {budget} must not exceed the original"
    );

    // A header that arrives with no hops left cannot be forwarded: the
    // relay answers a Client fault itself (a routing loop is the
    // sender's problem, not the upstream's).
    let mut exhausted = SoapEnvelope::with_body(Element::component("EchoDeadline"));
    DeadlineHeader::new(5_000, 0).stamp(&mut exhausted);
    match engine.call_with(exhausted, &soap::CallOptions::new()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, soap::FaultCode::Client);
            assert!(f.string.contains("hop"), "{}", f.string);
        }
        other => panic!("expected hop-exhaustion fault, got {other:?}"),
    }

    // An expired header is refused at the relay with the standard
    // deadline fault (and its retry hint), never reaching the upstream.
    let mut expired = SoapEnvelope::with_body(Element::component("EchoDeadline"));
    DeadlineHeader::new(0, 3).stamp(&mut expired);
    match engine.call_with(expired, &soap::CallOptions::new()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, soap::FaultCode::Server);
            assert_eq!(f.retry_after(), Some(EXPIRED_RETRY_AFTER));
        }
        other => panic!("expected deadline-expired fault, got {other:?}"),
    }

    relay.shutdown();
    server.shutdown();
}

#[test]
fn buffered_http_relay_answers_faults_with_500_like_the_endpoint() {
    let hits = Arc::new(AtomicU32::new(0));
    let (server, relay) =
        http_endpoint_and_relay(slow_registry(Duration::ZERO, Arc::clone(&hits)));
    let server_addr = server.local_addr().to_string();
    let relay_addr = relay.local_addr().to_string();

    // Expired on arrival: the same 500 and Retry-After from both nodes.
    for addr in [&server_addr, &relay_addr] {
        let resp = post_xml(addr, &stamped(0, 4));
        assert_eq!(resp.status, 500, "expired at {addr}");
        assert_eq!(resp.header("Retry-After"), Some("1"), "expired at {addr}");
        assert_eq!(fault_of(&resp).retry_after(), Some(EXPIRED_RETRY_AFTER));
    }
    assert_eq!(hits.load(Ordering::SeqCst), 0, "expired requests must not dispatch");

    // Hops exhausted: the endpoint serves it (hops bound forwarding,
    // not service); the relay refuses to forward it.
    let resp = post_xml(&server_addr, &stamped(5_000, 0));
    assert_eq!(resp.status, 200);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "the endpoint dispatches hops = 0");
    let resp = post_xml(&relay_addr, &stamped(5_000, 0));
    assert_eq!(resp.status, 500);
    assert_eq!(resp.header("Retry-After"), None);
    let fault = fault_of(&resp);
    assert_eq!(fault.code, FaultCode::Client);
    assert!(fault.string.contains("hop"), "{}", fault.string);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "the relay must not forward hops = 0");

    // An upstream fault keeps its 500 across the relay.
    let unknown = SoapEnvelope::with_body(Element::component("Nope"));
    for addr in [&server_addr, &relay_addr] {
        let resp = post_xml(addr, &unknown);
        assert_eq!(resp.status, 500, "unknown operation at {addr}");
        assert_eq!(fault_of(&resp).code, FaultCode::Client);
    }

    relay.shutdown();
    server.shutdown();
}

#[test]
fn buffered_http_relay_calls_an_unreadable_request_a_client_fault_like_the_endpoint() {
    let hits = Arc::new(AtomicU32::new(0));
    let (server, relay) =
        http_endpoint_and_relay(slow_registry(Duration::ZERO, Arc::clone(&hits)));
    // The sender's bytes are at fault, not the relay: a Client fault
    // tells a retrying client not to resend them unchanged.
    for addr in [server.local_addr().to_string(), relay.local_addr().to_string()] {
        let request = HttpRequest::post("/soap", XML, b"<not soap".to_vec());
        let resp = transport::send_request(&addr, &request).unwrap();
        assert_eq!(resp.status, 500, "unreadable request at {addr}");
        assert_eq!(fault_of(&resp).code, FaultCode::Client, "unreadable request at {addr}");
    }
    assert_eq!(hits.load(Ordering::SeqCst), 0);
    relay.shutdown();
    server.shutdown();
}

/// Streaming op that counts how many exchanges it was started for.
struct CountingOp(Arc<AtomicU32>);

impl StreamOp for CountingOp {
    fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn on_part(&mut self, _part: &Element) -> SoapResult<()> {
        Ok(())
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(Element::component("SlowResponse")))
    }

    fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
        Ok(false)
    }
}

#[test]
fn streamed_requests_pass_the_same_arrival_gate() {
    let starts = Arc::new(AtomicU32::new(0));
    let mut service = SoapService::new(XmlEncoding::default(), Arc::new(ServiceRegistry::new()));
    let op_starts = Arc::clone(&starts);
    service.register_streaming("Slow", move || Box::new(CountingOp(Arc::clone(&op_starts))));
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        service,
    )
    .unwrap();
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    let server_addr = server.local_addr().to_string();
    let relay_addr = relay.local_addr().to_string();

    // A manifest that arrives expired: 500 with the retry hint as a
    // real header, at the endpoint and at the relay alike.
    for addr in [&server_addr, &relay_addr] {
        let resp = stream_xml(addr, &stamped(0, 4));
        assert_eq!(resp.status, 500, "expired manifest at {addr}");
        assert_eq!(resp.header("Retry-After"), Some("1"), "expired manifest at {addr}");
        assert_eq!(fault_of(&resp).retry_after(), Some(EXPIRED_RETRY_AFTER));
    }
    assert_eq!(starts.load(Ordering::SeqCst), 0, "expired manifests must not dispatch");

    // A manifest with no hops left is refused at the relay and never
    // reaches the upstream operation.
    let resp = stream_xml(&relay_addr, &stamped(5_000, 0));
    assert_eq!(resp.status, 500);
    let fault = fault_of(&resp);
    assert_eq!(fault.code, FaultCode::Client);
    assert!(fault.string.contains("hop"), "{}", fault.string);
    assert_eq!(starts.load(Ordering::SeqCst), 0, "the relay must not forward hops = 0");

    relay.shutdown();
    server.shutdown();
}

#[test]
fn tcp_relay_refuses_exhausted_hops_without_reaching_upstream() {
    let hits = Arc::new(AtomicU32::new(0));
    let server = TcpSoapServer::bind(
        "127.0.0.1:0",
        XmlEncoding::default(),
        slow_registry(Duration::ZERO, Arc::clone(&hits)),
    )
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
    match engine.call_with(stamped(5_000, 0), &CallOptions::new()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, FaultCode::Client);
            assert!(f.string.contains("hop"), "{}", f.string);
        }
        other => panic!("expected hop-exhaustion fault, got {other:?}"),
    }
    assert_eq!(hits.load(Ordering::SeqCst), 0, "the relay must not forward hops = 0");

    relay.shutdown();
    server.shutdown();
}

#[test]
fn breaker_opens_fast_fails_and_recovers_against_real_sockets() {
    // Claim a port, then free it: connects will be refused until the
    // server comes back on the same address.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap().to_string();
    drop(placeholder);

    let breaker = BreakerHandle::standalone(
        &addr,
        BreakerConfig {
            window: Duration::from_secs(10),
            failure_threshold: 0.5,
            min_samples: 3,
            cooldown: Duration::from_millis(50),
            cooldown_cap: Duration::from_millis(150),
            half_open_successes: 1,
            seed: 9,
        },
    );
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        TcpBinding::new(&addr).with_timeouts(Timeouts::all(Duration::from_secs(2))),
    )
    .with_breaker(breaker.clone());

    // Three refused connects trip the breaker...
    for _ in 0..3 {
        let err = engine.call_with(slow_request(), &soap::CallOptions::new()).unwrap_err();
        assert!(matches!(err, SoapError::Transport(_)), "{err:?}");
        assert_eq!(engine.last_call_attempts(), 1);
    }
    assert_eq!(breaker.state(), BreakerState::Open);

    // ...and while open the engine fails fast: typed error, zero
    // exchange attempts, no socket work at all.
    match engine.call_with(slow_request(), &soap::CallOptions::new()) {
        Err(SoapError::CircuitOpen {
            endpoint,
            retry_after,
        }) => {
            assert_eq!(endpoint, addr);
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(engine.last_call_attempts(), 0);

    // The endpoint comes back on the same address; once the cooldown
    // passes, a half-open probe is admitted and recovery closes the
    // circuit.
    let hits = Arc::new(AtomicU32::new(0));
    let server = TcpSoapServer::bind(
        &addr,
        BxsaEncoding::default(),
        slow_registry(Duration::ZERO, hits),
    )
    .expect("freed port must be rebindable");
    std::thread::sleep(Duration::from_millis(200)); // > cooldown_cap
    let resp = engine.call_with(slow_request(), &soap::CallOptions::new()).expect("probe must go through");
    assert_eq!(resp.operation(), Some("SlowResponse"));
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(engine.call_with(slow_request(), &soap::CallOptions::new()).is_ok(), "closed circuit serves normally");
    assert_eq!(breaker.trips(), 1);

    server.shutdown();
}
