//! Gathered BXSA requests on live sockets. A 100k-pair `Verify` whose
//! arrays go out by reference, straight from the request document, must
//! get the same reply as the same request sent as one flat buffer — over
//! framed TCP, over HTTP, and through HTTP's resend after a stale kept
//! socket.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

use bxdm::{AtomicValue, Document};
use soap::{
    BindingPolicy, BxsaEncoding, CallOptions, EncodingPolicy, HttpBinding, HttpSoapServer,
    ServiceRegistry, SoapEngine, SoapEnvelope, TcpBinding, TcpSoapServer,
};
use transport::HttpRequest;

const PAIRS: usize = 100_000;

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
    let server = TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), registry()).unwrap();
    let addr = server.local_addr().to_string();
    gathered_reply_matches_flat(&mut TcpBinding::new(&addr), 2);
    engine_call_verifies(TcpBinding::new(&addr));
    server.shutdown();
}

#[test]
fn gathered_verify_over_http_gets_the_flat_reply() {
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
