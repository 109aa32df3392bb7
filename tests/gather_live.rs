//! Gathered BXSA messages on live sockets.
//!
//! Requests: a 100k-pair `Verify` whose arrays go out by reference,
//! straight from the request document, must get the same reply as the
//! same request sent as one flat buffer — over framed TCP, over HTTP, and
//! through HTTP's resend after a stale kept socket.
//!
//! Replies: a server answers a large typed reply with its arrays sent
//! from the handler's memory. The peer must see exactly the flat
//! encoding however the socket takes it — at once, after a stall that
//! leaves the rest to the connection's reply buffer, or one slice per
//! write through the fault-injecting socket — and a peer that hangs up
//! midway must leave the server's gauges balanced. A typed call's client
//! reads such a reply's arrays from the socket into the response's
//! fields, and must decode what the flat receive decodes.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bxdm::{ArrayValue, AtomicValue, Document, Element};
use bxsoap::{VerifyRequest, VerifyResponse};
use soap::{
    BindingPolicy, BxsaEncoding, CallOptions, DecodeScratch, EncodingPolicy, HttpBinding,
    HttpSoapServer, ServiceRegistry, SoapEngine, SoapEnvelope, SoapService, TcpBinding,
    TcpSoapServer, TypedEncoding, TypedScratch,
};
use transport::metrics::ServerMetrics;
use transport::{
    FaultInjector, FaultProfile, HttpRequest, HttpResponse, HttpServerConfig, TcpServerConfig,
};

const PAIRS: usize = 100_000;

/// The server metrics are process-wide: tests that read them, or open
/// connections while another test counts them, take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> Arc<ServiceRegistry> {
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    Arc::new(registry)
}

fn verify_document() -> Document {
    let (index, values) = bxsoap::lead_dataset(PAIRS, 11);
    bxsoap::verify_request_envelope(&index, &values).into_document()
}

fn assert_verified(reply: &[u8]) {
    let doc = BxsaEncoding::default().decode(reply).unwrap();
    let reply = SoapEnvelope::from_document(&doc).unwrap();
    let body = reply.body_element().expect("a VerifyResponse, not a fault");
    assert_eq!(body.child_value("ok"), Some(&AtomicValue::Bool(true)));
    assert_eq!(
        body.child_value("count"),
        Some(&AtomicValue::I64(PAIRS as i64))
    );
}

/// Send the Verify flat, then gathered, on `binding`; both replies must
/// be the same bytes and say the data verified. Returns the flat bytes.
fn gathered_reply_matches_flat(binding: &mut impl BindingPolicy, rounds: usize) -> Vec<u8> {
    let enc = BxsaEncoding::native_order();
    let doc = verify_document();
    let flat = enc.encode(&doc).unwrap();
    let mut head = Vec::new();
    let mut parts = [&[][..]; 9];
    let n = enc.encode_parts_into(&doc, &mut head, &mut parts).unwrap();
    assert!(n >= 4, "both arrays stay in the document, got {n} parts");
    let flat_reply = binding.exchange(&flat, enc.content_type()).unwrap();
    assert_verified(&flat_reply);
    for _ in 0..rounds {
        let mut reply = Vec::new();
        binding
            .exchange_parts_into(&parts[..n], enc.content_type(), &mut reply)
            .unwrap();
        assert_eq!(
            reply, flat_reply,
            "gathered and flat requests got different replies"
        );
    }
    flat
}

/// The engine's own tree call gathers too: it must verify like the
/// binding-level exchanges.
fn engine_call_verifies(binding: impl BindingPolicy) {
    let mut engine = SoapEngine::new(BxsaEncoding::native_order(), binding);
    let (index, values) = bxsoap::lead_dataset(PAIRS, 12);
    for _ in 0..2 {
        let request = bxsoap::verify_request_envelope(&index, &values);
        let reply = engine.call_with(request, &CallOptions::new()).unwrap();
        let body = reply.body_element().unwrap();
        assert_eq!(body.child_value("ok"), Some(&AtomicValue::Bool(true)));
        assert_eq!(
            body.child_value("count"),
            Some(&AtomicValue::I64(PAIRS as i64))
        );
    }
}

#[test]
fn gathered_verify_over_tcp_gets_the_flat_reply() {
    let _serial = serial();
    let server = TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), registry()).unwrap();
    let addr = server.local_addr().to_string();
    gathered_reply_matches_flat(&mut TcpBinding::new(&addr), 2);
    engine_call_verifies(TcpBinding::new(&addr));
    server.shutdown();
}

#[test]
fn gathered_verify_over_http_gets_the_flat_reply() {
    let _serial = serial();
    let server =
        HttpSoapServer::bind("127.0.0.1:0", "/soap", BxsaEncoding::default(), registry()).unwrap();
    let addr = server.local_addr().to_string();
    let mut binding = HttpBinding::new(&addr, "/soap");
    gathered_reply_matches_flat(&mut binding, 2);
    assert_eq!(
        binding.connection_reuses(),
        2,
        "all three exchanges rode one socket"
    );
    engine_call_verifies(HttpBinding::new(&addr, "/soap"));
    server.shutdown();
}

/// A proxy that promises keep-alive but hangs up after each reply puts
/// the client on a dead kept socket for every exchange after the first:
/// each gathered request must be resent whole on a fresh connection, and
/// every body that reaches the proxy must be the flat encoding.
#[test]
fn gathered_verify_is_resent_whole_after_a_stale_kept_socket() {
    let _serial = serial();
    let server =
        HttpSoapServer::bind("127.0.0.1:0", "/soap", BxsaEncoding::default(), registry()).unwrap();
    let upstream = server.local_addr().to_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy_addr = listener.local_addr().unwrap().to_string();
    const EXCHANGES: usize = 3;
    let proxy = std::thread::spawn(move || {
        let mut bodies = Vec::new();
        for stream in listener.incoming().take(EXCHANGES) {
            let mut reader = BufReader::new(stream.unwrap());
            let request = HttpRequest::read_from(&mut reader).unwrap();
            let content_type = request.header("content-type").unwrap().to_owned();
            let response =
                transport::http_post(&upstream, "/soap", &content_type, request.body.clone())
                    .unwrap();
            let head = format!(
                "HTTP/1.1 {} OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                response.status,
                response.header("content-type").unwrap_or("application/bxsa"),
                response.body.len()
            );
            let mut stream = reader.get_ref();
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(&response.body).unwrap();
            bodies.push(request.body);
            // Hang up despite the keep-alive promise.
        }
        bodies
    });
    let mut binding = HttpBinding::new(&proxy_addr, "/soap");
    let flat = gathered_reply_matches_flat(&mut binding, EXCHANGES - 1);
    let bodies = proxy.join().unwrap();
    assert_eq!(bodies.len(), EXCHANGES);
    for body in &bodies {
        assert!(
            body == &flat,
            "a request body differs from the flat encoding"
        );
    }
    assert_eq!(
        binding.connection_reuses(),
        0,
        "every exchange rode a fresh socket"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Gathered replies
// ---------------------------------------------------------------------

/// The typed reply operation: a `VerifyResponse` naming a pair count is
/// answered with that many pairs as a `Verify` body, whose two arrays
/// (400 KB and 800 KB at 100k pairs) go out gathered.
const PAIRS_OP: &str = "VerifyResponse";

fn pairs(count: usize) -> VerifyRequest {
    let (index, values) = bxsoap::lead_dataset(count, 21);
    VerifyRequest { index, values }
}

/// A service answering up to `max` pairs.
fn typed_service(max: usize) -> SoapService<BxsaEncoding> {
    let mut service = SoapService::new(
        BxsaEncoding::native_order(),
        Arc::new(ServiceRegistry::new()),
    );
    let data = pairs(max);
    service.register_typed::<VerifyResponse, VerifyRequest, _>(PAIRS_OP, move |req, resp| {
        let n = usize::try_from(req.count)
            .map_err(|_| soap::SoapError::Protocol("a negative pair count".into()))?;
        resp.index.clear();
        resp.index.extend_from_slice(&data.index[..n]);
        resp.values.clear();
        resp.values.extend_from_slice(&data.values[..n]);
        Ok(())
    });
    service
}

/// A typed request asking for `count` pairs, and the flat encoding of
/// the reply it must get.
fn typed_exchange(count: usize) -> (Vec<u8>, Vec<u8>) {
    let enc = BxsaEncoding::native_order();
    let mut scratch = TypedScratch::default();
    let mut request = Vec::new();
    let ask = VerifyResponse {
        ok: true,
        count: count as i64,
    };
    enc.encode_typed(&ask, None, &mut scratch, &mut request)
        .unwrap();
    let mut reply = Vec::new();
    enc.encode_typed(&pairs(count), None, &mut scratch, &mut reply)
        .unwrap();
    (request, reply)
}

/// `metrics`' gathered-reply and spilled-byte counts, and bytes out.
fn gather_counts(metrics: &ServerMetrics) -> (u64, u64, u64) {
    (
        metrics.gathered_replies.get(),
        metrics.gather_spilled_bytes.get(),
        metrics.bytes_out.get(),
    )
}

/// Exchange `request` on `binding` `rounds` times: every reply must be
/// `expected`, every one gathered, and `bytes_out` must count each whole.
/// A gathered reply leaves while the handler runs, and the worker counts
/// it once the handler returns, so the counts are awaited.
fn replies_are_flat(
    binding: &mut impl BindingPolicy,
    metrics: &ServerMetrics,
    request: &[u8],
    expected: &[u8],
    rounds: u64,
) {
    let (gathered, _, out) = gather_counts(metrics);
    for _ in 0..rounds {
        let reply = binding.exchange(request, "application/bxsa").unwrap();
        assert!(
            reply == expected,
            "a gathered reply differs from the flat encoding"
        );
    }
    let counted = |(g, _, o): (u64, u64, u64)| (g - gathered, o - out);
    let want = (rounds, rounds * expected.len() as u64);
    eventually("the replies to be counted", || {
        counted(gather_counts(metrics)) >= want
    });
    assert_eq!(
        counted(gather_counts(metrics)),
        want,
        "every reply was gathered, and bytes_out counts each whole"
    );
}

#[test]
fn typed_replies_over_tcp_are_the_flat_encoding() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let typed = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        typed_service(PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(PAIRS);
    let mut binding = TcpBinding::new(&typed.local_addr().to_string());
    replies_are_flat(&mut binding, metrics, &request, &expected, 3);
    typed.shutdown();
}

#[test]
fn typed_replies_over_http_are_the_flat_encoding() {
    let _serial = serial();
    let metrics = transport::metrics::http_server();
    let typed = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        HttpServerConfig::default(),
        typed_service(PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(PAIRS);
    let mut binding = HttpBinding::new(&typed.local_addr().to_string(), "/soap");
    replies_are_flat(&mut binding, metrics, &request, &expected, 3);
    assert_eq!(
        binding.connection_reuses(),
        2,
        "the gathered replies kept the connection"
    );
    typed.shutdown();
}

/// A binding that receives every reply whole: the inner binding with
/// its placing receive (`exchange_parts_to`) left at the default.
struct Flat<B>(B);

impl<B: BindingPolicy> BindingPolicy for Flat<B> {
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> soap::SoapResult<()> {
        self.0.send_request(payload, content_type)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> soap::SoapResult<()> {
        self.0.receive_response_into(out)
    }

    fn exchange_parts_into(
        &mut self,
        parts: &[&[u8]],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> soap::SoapResult<()> {
        self.0.exchange_parts_into(parts, content_type, out)
    }
}

/// Typed calls against `typed_service` through `placed` (the binding's
/// own receive) and `flat`: a gathered 100k-pair reply decodes to the
/// same arrays, both placed straight into the response's fields; a
/// server fault and a reply of another shape give the same errors.
fn placed_calls_decode_as_flat(placed: impl BindingPolicy, flat: impl BindingPolicy) {
    let mut placed = SoapEngine::new(BxsaEncoding::native_order(), placed);
    let mut flat = SoapEngine::new(BxsaEncoding::native_order(), Flat(flat));
    let ask = |count: i64| VerifyResponse { ok: true, count };
    let opts = CallOptions::new();
    let scattered = &soap::metrics::engine().scattered_bytes;
    let expected = pairs(PAIRS);
    let (mut got, mut want) = (VerifyRequest::default(), VerifyRequest::default());
    for _ in 0..3 {
        // The caller's buffers come back as slots, and its fields get the
        // placed arrays.
        got.index.clear();
        got.values.clear();
        let before = scattered.get();
        placed
            .call_typed_into(&ask(PAIRS as i64), &mut got, &opts)
            .unwrap();
        assert_eq!(scattered.get() - before, (PAIRS * 12) as u64);
        flat.call_typed_into(&ask(PAIRS as i64), &mut want, &opts)
            .unwrap();
        assert!(got.index == want.index && got.values == want.values);
        assert!(got.index == expected.index && got.values == expected.values);
    }
    fn fault(engine: &mut SoapEngine<BxsaEncoding, impl BindingPolicy>) -> String {
        let ask = VerifyResponse {
            ok: true,
            count: -1,
        };
        let err = engine
            .call_typed::<_, VerifyRequest>(&ask, &CallOptions::new())
            .unwrap_err();
        assert!(matches!(err, soap::SoapError::Fault(_)), "{err}");
        err.to_string()
    }
    assert_eq!(fault(&mut placed), fault(&mut flat));
    // A 100k-pair Verify body where a VerifyResponse is expected.
    fn foreign(engine: &mut SoapEngine<BxsaEncoding, impl BindingPolicy>) -> String {
        let ask = VerifyResponse {
            ok: true,
            count: PAIRS as i64,
        };
        engine
            .call_typed::<_, VerifyResponse>(&ask, &CallOptions::new())
            .unwrap_err()
            .to_string()
    }
    let err = foreign(&mut placed);
    assert_eq!(err, foreign(&mut flat));
    assert!(
        err.contains("expected a VerifyResponse reply, got Verify"),
        "{err}"
    );
}

#[test]
fn placed_typed_replies_over_tcp_decode_as_flat() {
    let _serial = serial();
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        typed_service(PAIRS),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    placed_calls_decode_as_flat(TcpBinding::new(&addr), TcpBinding::new(&addr));
    server.shutdown();
}

#[test]
fn placed_typed_replies_over_http_decode_as_flat() {
    let _serial = serial();
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        HttpServerConfig::default(),
        typed_service(PAIRS),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    placed_calls_decode_as_flat(
        HttpBinding::new(&addr, "/soap"),
        HttpBinding::new(&addr, "/soap"),
    );
    server.shutdown();
}

/// A small typed reply has no array worth leaving in place: it goes out
/// whole from the reply buffer, as before.
#[test]
fn a_small_typed_reply_is_not_gathered() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        typed_service(PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(50);
    let mut binding = TcpBinding::new(&server.local_addr().to_string());
    let (gathered, _, _) = gather_counts(metrics);
    assert_eq!(
        binding.exchange(&request, "application/bxsa").unwrap(),
        expected
    );
    assert_eq!(gather_counts(metrics).0, gathered);
    server.shutdown();
}

/// Send one framed request on a raw socket.
fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// Poll `done` for up to five seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let until = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The pairs in a reply (6 MB) too big for the loopback socket's buffers
/// (a send buffer of at most 4 MB by default) while the peer reads
/// nothing, so the gather stops partway.
const STALL_PAIRS: usize = 500_000;

/// A client that stalls before reading makes the socket stop taking the
/// reply partway through: the rest is copied into the connection's reply
/// buffer and sent from there, and the client still reads the exact
/// flat bytes.
#[test]
fn a_stalled_reader_gets_the_flat_reply_from_the_copy() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        typed_service(STALL_PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(STALL_PAIRS);
    let (gathered, spilled, _) = gather_counts(metrics);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_frame(&mut stream, &request);
    eventually("the gathered reply", || gather_counts(metrics).0 > gathered);
    std::thread::sleep(Duration::from_millis(100));
    let reply = read_frame(&mut stream);
    assert!(
        reply == expected,
        "the stalled reader's reply differs from the flat encoding"
    );
    let (_, spilled_after, _) = gather_counts(metrics);
    assert!(
        spilled_after > spilled,
        "the socket took the whole reply at once"
    );
    // The connection goes on after the copied tail.
    send_frame(&mut stream, &request);
    assert!(read_frame(&mut stream) == expected);
    drop(stream);
    server.shutdown();
}

/// The HTTP form of the stalled reader: the head goes out with the
/// reply's first piece and the rest of the body from the copy, and the
/// kept connection serves the next request.
#[test]
fn a_stalled_http_reader_gets_the_flat_reply_from_the_copy() {
    let _serial = serial();
    let metrics = transport::metrics::http_server();
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        HttpServerConfig::default(),
        typed_service(STALL_PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(STALL_PAIRS);
    let (gathered, spilled, _) = gather_counts(metrics);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let post = HttpRequest::post("/soap", "application/bxsa", request);
    post.write_to_with(&mut &stream, true).unwrap();
    eventually("the gathered reply", || gather_counts(metrics).0 > gathered);
    std::thread::sleep(Duration::from_millis(100));
    let mut reader = BufReader::new(&stream);
    let reply = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/bxsa"));
    assert!(
        reply.body == expected,
        "the stalled reader's reply differs from the flat encoding"
    );
    assert!(
        gather_counts(metrics).1 > spilled,
        "the socket took the whole reply at once"
    );
    post.write_to_with(&mut &stream, true).unwrap();
    assert!(HttpResponse::read_from(&mut reader).unwrap().body == expected);
    drop(reader);
    drop(stream);
    server.shutdown();
}

/// A client that hangs up midway through a gathered reply ends the
/// connection on the server, with `requests_inflight` back at 0 and
/// `connections_active` where it started.
#[test]
fn a_hang_up_midway_leaves_the_gauges_balanced() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        typed_service(STALL_PAIRS),
    )
    .unwrap();
    let active = metrics.connections_active.get();
    let (request, _) = typed_exchange(STALL_PAIRS);
    let (gathered, _, _) = gather_counts(metrics);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    send_frame(&mut stream, &request);
    eventually("the gathered reply", || gather_counts(metrics).0 > gathered);
    let mut some = [0u8; 1000];
    stream.read_exact(&mut some).unwrap();
    drop(stream);
    eventually("the server to close the connection", || {
        metrics.connections_active.get() == active
    });
    assert_eq!(metrics.requests_inflight.get(), 0.0);
    server.shutdown();
}

/// Through the fault-injecting socket, which writes one slice per call,
/// a gathered typed reply still arrives as the flat encoding.
#[test]
fn the_faulty_socket_short_writes_give_the_flat_reply() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let injector = FaultInjector::new(FaultProfile::clean(3)).shared();
    let server = TcpSoapServer::bind_faulty(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        injector,
        typed_service(PAIRS),
    )
    .unwrap();
    let (request, expected) = typed_exchange(PAIRS);
    let mut binding = TcpBinding::new(&server.local_addr().to_string());
    replies_are_flat(&mut binding, metrics, &request, &expected, 2);
    server.shutdown();
}

/// A bulk tree reply is encoded whole into the reply buffer: it arrives
/// as the flat encoding and is not counted as gathered.
#[test]
fn a_tree_reply_is_not_gathered() {
    let _serial = serial();
    let metrics = transport::metrics::tcp_server();
    let data = pairs(PAIRS);
    let reply = SoapEnvelope::with_body(
        Element::component("PairsResponse")
            .with_child(Element::array("index", ArrayValue::I32(data.index)))
            .with_child(Element::array("values", ArrayValue::F64(data.values))),
    );
    let enc = BxsaEncoding::native_order();
    let expected = enc.encode(&reply.clone().into_document()).unwrap();
    let registry = ServiceRegistry::new().with_operation("Pairs", move |_| Ok(reply.clone()));
    let server = TcpSoapServer::bind("127.0.0.1:0", enc.clone(), Arc::new(registry)).unwrap();
    let request = enc
        .encode(&SoapEnvelope::with_body(Element::component("Pairs")).into_document())
        .unwrap();
    let mut binding = TcpBinding::new(&server.local_addr().to_string());
    let (gathered, _, _) = gather_counts(metrics);
    assert!(binding.exchange(&request, "application/bxsa").unwrap() == expected);
    assert_eq!(gather_counts(metrics).0, gathered);
    server.shutdown();
}

/// The server side of `handle` on a plain buffer: the reply is the flat
/// encoding too, and nothing is gathered.
#[test]
fn a_buffer_target_gets_the_flat_reply() {
    let service = typed_service(PAIRS);
    let (request, expected) = typed_exchange(PAIRS);
    let mut out = Vec::new();
    let outcome = service.handle(&mut DecodeScratch::default(), &request, &mut out);
    assert!(!outcome.is_fault);
    assert!(out == expected);
}
