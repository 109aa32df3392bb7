//! Chunked transfer-encoding edge cases against a live streaming
//! server, driven over raw sockets: hostile or degenerate framing must
//! produce clean faults or clean disconnects — never a hang, a crash,
//! or a poisoned listener — and one part cap, `MAX_PART_LEN`, holds at
//! the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bxdm::{ArrayValue, AtomicValue, Element};
use soap::{
    BxsaEncoding, CallOptions, EncodingPolicy, FaultCode, HttpBinding, HttpSoapServer,
    Intermediary, ServiceRegistry, SoapEngine, SoapEnvelope, SoapError, SoapResult, SoapService,
    StreamEncoding, StreamOp,
};

/// Minimal streaming op: sum every f64 batch, answer with the total.
#[derive(Default)]
struct SumOp {
    sum: f64,
}

impl StreamOp for SumOp {
    fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
        Ok(())
    }

    fn on_part(&mut self, part: &Element) -> SoapResult<()> {
        let xs = part
            .as_f64_array()
            .ok_or_else(|| SoapError::Protocol("batch is not an f64 array".into()))?;
        self.sum += xs.iter().sum::<f64>();
        Ok(())
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(
            Element::component("SumResponse")
                .with_child(Element::leaf("sum", AtomicValue::F64(self.sum))),
        ))
    }

    fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
        Ok(false)
    }
}

fn serve() -> HttpSoapServer {
    let mut service = SoapService::new(BxsaEncoding::default(), Arc::new(ServiceRegistry::new()));
    service.register_streaming("Sum", || Box::<SumOp>::default());
    HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        service,
    )
    .unwrap()
}

fn connect(server: &HttpSoapServer) -> TcpStream {
    connect_to(server.local_addr())
}

fn connect_to(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    sock
}

const CHUNKED_HEAD: &str = "POST /soap HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-bxsa\r\nTransfer-Encoding: chunked\r\n\r\n";

fn manifest_chunk() -> Vec<u8> {
    let envelope = SoapEnvelope::with_body(Element::component("Sum"));
    let bytes = BxsaEncoding::default()
        .encode(&envelope.to_document())
        .unwrap();
    chunk(&bytes)
}

fn batch_chunk(values: &[f64]) -> Vec<u8> {
    let part = Element::array("batch", ArrayValue::F64(values.to_vec()));
    let mut bytes = Vec::new();
    BxsaEncoding::default()
        .encode_part_into(&part, &mut bytes)
        .unwrap();
    chunk(&bytes)
}

fn chunk(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// Read whatever the server answers until the read timeout trips (the
/// connection may legitimately stay open for keep-alive).
fn read_available(sock: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match sock.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => break, // timeout: server is done talking for now
        }
    }
    buf
}

fn status_line(response: &[u8]) -> String {
    let text = String::from_utf8_lossy(response);
    text.lines().next().unwrap_or_default().to_owned()
}

/// The fault code of a buffered SOAP answer read off the wire.
fn fault_code(response: &[u8]) -> Option<FaultCode> {
    let at = response.windows(4).position(|w| w == b"\r\n\r\n")?;
    let doc = BxsaEncoding::default().decode(&response[at + 4..]).ok()?;
    Some(SoapEnvelope::from_document(&doc).ok()?.as_fault()?.code)
}

#[test]
fn terminator_only_request_faults_and_keeps_the_connection() {
    let server = serve();
    // A streaming relay runs the endpoint's own session, so it must
    // answer the degenerate framing exactly as the endpoint does.
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        BxsaEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    for addr in [server.local_addr(), relay.local_addr()] {
        let mut sock = connect_to(addr);

        // A chunked body that is *only* the zero-length terminator: no
        // manifest ever arrives, so the answer is an in-band SOAP fault.
        sock.write_all(CHUNKED_HEAD.as_bytes()).unwrap();
        sock.write_all(b"0\r\n\r\n").unwrap();
        let first = read_available(&mut sock);
        assert_eq!(status_line(&first), "HTTP/1.1 500 Internal Server Error", "at {addr}");
        assert_eq!(fault_code(&first), Some(FaultCode::Client), "at {addr}");

        // The connection survived the degenerate exchange: a well-formed
        // streamed call on the very same socket succeeds.
        sock.write_all(CHUNKED_HEAD.as_bytes()).unwrap();
        sock.write_all(&manifest_chunk()).unwrap();
        sock.write_all(&batch_chunk(&[1.0, 2.0, 3.0])).unwrap();
        sock.write_all(b"0\r\n\r\n").unwrap();
        let second = read_available(&mut sock);
        assert_eq!(status_line(&second), "HTTP/1.1 200 OK", "at {addr}");
    }

    relay.shutdown();
    server.shutdown();
}

#[test]
fn trailers_after_the_terminator_are_discarded() {
    let server = serve();
    let mut sock = connect(&server);

    sock.write_all(CHUNKED_HEAD.as_bytes()).unwrap();
    sock.write_all(&manifest_chunk()).unwrap();
    sock.write_all(&batch_chunk(&[2.0, 2.0])).unwrap();
    // Terminator followed by trailer fields (RFC 9112 §7.1.2) — legal,
    // and this stack ignores them.
    sock.write_all(b"0\r\nX-Checksum: abc123\r\nX-Parts: 1\r\n\r\n")
        .unwrap();
    let response = read_available(&mut sock);
    assert_eq!(status_line(&response), "HTTP/1.1 200 OK");

    server.shutdown();
}

#[test]
fn oversized_chunk_size_line_is_rejected_not_buffered() {
    let server = serve();
    let mut sock = connect(&server);

    sock.write_all(CHUNKED_HEAD.as_bytes()).unwrap();
    // A size line longer than any sane hex length: the decoder must
    // refuse it early instead of buffering in hope of a CRLF.
    let garbage = vec![b'f'; 4096];
    sock.write_all(&garbage).unwrap();
    let response = read_available(&mut sock);
    // Either an error status or a summary hangup is acceptable; what is
    // not acceptable is a 200 or a hang (the read timeout above would
    // have tripped and left `response` empty while the socket stayed
    // open — distinguishable because a follow-up write still succeeds).
    if !response.is_empty() {
        assert!(
            !status_line(&response).contains("200"),
            "oversized size line must not succeed: {}",
            status_line(&response)
        );
    }

    // The listener itself is unharmed.
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        HttpBinding::new(&server.local_addr().to_string(), "/soap"),
    );
    let mut reply = engine
        .call_streaming(
            SoapEnvelope::with_body(Element::component("Sum")),
            &CallOptions::new(),
            |tx| tx.send(&Element::array("batch", ArrayValue::F64(vec![1.0]))),
        )
        .unwrap();
    assert!(reply.next_part().unwrap().is_none());
    server.shutdown();
}

#[test]
fn premature_eof_mid_chunk_is_contained() {
    let server = serve();
    let mut sock = connect(&server);

    sock.write_all(CHUNKED_HEAD.as_bytes()).unwrap();
    sock.write_all(&manifest_chunk()).unwrap();
    // Announce a 256-byte chunk, deliver 10 bytes, vanish.
    sock.write_all(b"100\r\nonly-this-").unwrap();
    drop(sock);

    // The half-fed session must be reaped without harming the listener:
    // a fresh, well-formed exchange completes normally.
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        HttpBinding::new(&server.local_addr().to_string(), "/soap"),
    );
    let mut reply = engine
        .call_streaming(
            SoapEnvelope::with_body(Element::component("Sum")),
            &CallOptions::new(),
            |tx| tx.send(&Element::array("batch", ArrayValue::F64(vec![4.0, 5.0]))),
        )
        .unwrap();
    assert!(reply.next_part().unwrap().is_none());
    assert_eq!(
        reply
            .envelope()
            .body_element()
            .unwrap()
            .child_value("sum")
            .and_then(AtomicValue::as_f64),
        Some(9.0)
    );
    server.shutdown();
}

#[test]
fn keep_alive_spans_streamed_and_buffered_exchanges() {
    let server = serve();
    let addr = server.local_addr().to_string();
    let mut conn = transport::HttpConnection::new(&addr);

    // Streamed exchange #1.
    let manifest = BxsaEncoding::default()
        .encode(&SoapEnvelope::with_body(Element::component("Sum")).to_document())
        .unwrap();
    let head = transport::HttpRequest::post("/soap", "application/x-bxsa", Vec::new());
    for _ in 0..2 {
        conn.stream_begin(&head).unwrap();
        conn.stream_send_part(&manifest).unwrap();
        conn.stream_finish_send().unwrap();
        let mut response = transport::HttpResponse::ok("", Vec::new());
        let streamed = conn.stream_read_head(&mut response).unwrap();
        assert!(streamed, "success replies stream");
        let mut part = Vec::new();
        while conn.stream_next_part_into(&mut part, 1 << 20).unwrap() {}
    }
    assert!(
        conn.reuse_count() >= 1,
        "the second streamed exchange must ride the kept socket"
    );

    // A buffered (Content-Length) request on the very same connection.
    let buffered = transport::HttpRequest::post("/soap", "application/x-bxsa", manifest);
    let response = conn.exchange(&buffered).unwrap();
    assert_eq!(response.status, 500, "no buffered ops: in-band fault");
    assert!(conn.reuse_count() >= 2);

    server.shutdown();
}

/// A transport-level stream session that records the length of every
/// part it receives and answers `200 OK` at the terminator.
struct PartLengths(Arc<Mutex<Vec<usize>>>);

impl transport::StreamSession for PartLengths {
    fn on_part(&mut self, part: &[u8]) -> transport::TransportResult<()> {
        self.0.lock().unwrap().push(part.len());
        Ok(())
    }

    fn finish(&mut self) -> transport::TransportResult<transport::StreamReply> {
        Ok(transport::StreamReply::Buffered(
            transport::HttpResponse::ok("text/plain", b"done".to_vec()),
        ))
    }

    fn next_part(&mut self, _out: &mut Vec<u8>) -> transport::TransportResult<bool> {
        Ok(false)
    }
}

/// Read until the peer closes the connection or goes quiet for the
/// socket's read timeout; the bytes read, and whether it closed.
fn read_until_close(sock: &mut TcpStream) -> (Vec<u8>, bool) {
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match sock.read(&mut scratch) {
            Ok(0) => return (buf, true),
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => return (buf, false),
        }
    }
}

/// The server's per-chunk cap is `transport::MAX_PART_LEN`, the cap the
/// streaming client checks: a chunk of exactly that many bytes reaches
/// the session, and one byte more is refused with `413` before the
/// session sees it, and the connection closes.
#[test]
fn the_part_cap_admits_max_part_len_and_refuses_one_byte_more() {
    assert_eq!(transport::MAX_PART_LEN, soap::MAX_PART_LEN);
    let lens = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&lens);
    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .stream_factory(move |_| {
            Some(Box::new(PartLengths(Arc::clone(&record))) as Box<dyn transport::StreamSession>)
        })
        .serve_http(|| (), |_, _, _, _, _| {})
        .unwrap();
    // One chunk of `len` bytes; with `last`, the terminator follows and
    // the client asks the server to close once it has answered.
    let send = |len: usize, last: bool| {
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let close = if last { "Connection: close\r\n" } else { "" };
        let head =
            format!("POST /p HTTP/1.1\r\nHost: t\r\n{close}Transfer-Encoding: chunked\r\n\r\n");
        sock.write_all(head.as_bytes()).unwrap();
        sock.write_all(format!("{len:x}\r\n").as_bytes()).unwrap();
        sock.write_all(&vec![0x5a; len]).unwrap();
        if last {
            sock.write_all(b"\r\n0\r\n\r\n").unwrap();
        }
        read_until_close(&mut sock)
    };

    let (accepted, _) = send(transport::MAX_PART_LEN, true);
    assert_eq!(status_line(&accepted), "HTTP/1.1 200 OK");
    assert_eq!(*lens.lock().unwrap(), [transport::MAX_PART_LEN]);

    // Nothing follows the over-long payload, so the server has read every
    // byte sent when it refuses the chunk and closes.
    let (refused, closed) = send(transport::MAX_PART_LEN + 1, false);
    assert_eq!(status_line(&refused), "HTTP/1.1 413 Payload Too Large");
    assert!(closed, "the connection must close after a refused part");
    assert_eq!(*lens.lock().unwrap(), [transport::MAX_PART_LEN]);
    server.shutdown();
}
