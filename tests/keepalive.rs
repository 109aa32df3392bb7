//! HTTP/1.1 keep-alive conformance and connection-reuse acceptance tests.
//!
//! The evented server's contract, end to end over real sockets: pipelined
//! requests on one connection, `Connection: close` from either side,
//! conservative handling of malformed/duplicate `Connection` headers,
//! half-closed peers, per-connection handler state that survives (and
//! stays private to) a reused connection, and the client cache's
//! single-resend rule for stale kept sockets.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use transport::{
    HttpConnection, HttpRequest, HttpResponse, Server, ServerBuilder, Timeouts,
};

fn echo_path_server() -> Server {
    ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            || (),
            |(), head, _body, reply, _ctl| reply.body.extend_from_slice(head.path.as_bytes()),
        )
        .unwrap()
}

fn raw_get(path: &str, connection: Option<&str>) -> Vec<u8> {
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n");
    if let Some(c) = connection {
        req.push_str(&format!("Connection: {c}\r\n"));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

#[test]
fn pipelined_requests_share_one_connection() {
    let server = echo_path_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Three requests written back-to-back before reading anything: the
    // server must answer all three, in order, on the same socket.
    let mut batch = Vec::new();
    for i in 0..3 {
        batch.extend_from_slice(&raw_get(&format!("/pipe/{i}"), None));
    }
    stream.write_all(&batch).unwrap();

    let mut reader = BufReader::new(stream);
    for i in 0..3 {
        let resp = HttpResponse::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, format!("/pipe/{i}").into_bytes());
        // No Connection header on an HTTP/1.1 request = keep-alive, and
        // the response must say so explicitly.
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    server.shutdown();
}

#[test]
fn connection_close_mid_stream_ends_the_connection() {
    let server = echo_path_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    stream.write_all(&raw_get("/a", Some("keep-alive"))).unwrap();
    stream.write_all(&raw_get("/b", Some("close"))).unwrap();

    let mut reader = BufReader::new(stream);
    let first = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(second.body, b"/b");
    assert_eq!(second.header("connection"), Some("close"));
    // And the server actually hangs up: the next read is EOF.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    server.shutdown();
}

#[test]
fn ambiguous_connection_headers_close_conservatively() {
    let server = echo_path_server();
    // Duplicate headers where any token says close → close wins; an
    // unknown connection option → close (never guess reuse).
    for connection in ["keep-alive, close", "frobnicate"] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&raw_get("/x", Some(connection))).unwrap();
        let mut reader = BufReader::new(stream);
        let resp = HttpResponse::read_from(&mut reader).unwrap();
        assert_eq!(
            resp.header("connection"),
            Some("close"),
            "Connection: {connection} must not promise reuse"
        );
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    }
    // Duplicate Connection *headers*, close in the second one.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(b"GET /dup HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let resp = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(resp.header("connection"), Some("close"));
    server.shutdown();
}

#[test]
fn half_closed_peer_still_gets_its_response() {
    let server = echo_path_server();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    (&stream).write_all(&raw_get("/half", None)).unwrap();
    // Client half-closes: no more requests will come, but the response
    // must still flow back before the server closes its side.
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let resp = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(resp.body, b"/half");
    server.shutdown();
}

#[test]
fn per_connection_state_is_private_across_reused_connections() {
    // Scoped framed-TCP handlers get per-connection state from `init`;
    // with connections now multiplexed onto shared event-loop workers,
    // two live connections must still see disjoint state (the old
    // thread-per-connection guarantee).
    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .serve_framed(
            || 0u64, // per-connection message counter
            |count: &mut u64, _req: &[u8], out: &mut Vec<u8>, _ctl| {
                *count += 1;
                out.extend_from_slice(&count.to_be_bytes());
            },
        )
        .unwrap();
    let addr = server.local_addr().to_string();

    let mut a = transport::FramedStream::connect(&addr).unwrap();
    let mut b = transport::FramedStream::connect(&addr).unwrap();
    // Interleave messages: each connection's counter advances
    // independently no matter how the worker interleaves them.
    for round in 1..=3u64 {
        a.send(b"ping").unwrap();
        b.send(b"ping").unwrap();
        let ra = a.recv().unwrap();
        assert_eq!(ra, round.to_be_bytes(), "conn A round {round}");
    }
    let rb = b.recv().unwrap();
    assert_eq!(rb, 1u64.to_be_bytes(), "conn B sees its own count, not A's");
    drop(a);
    drop(b);
    server.shutdown();
}

#[test]
fn client_connection_reuses_and_counts() {
    let server = echo_path_server();
    let mut conn = HttpConnection::new(&server.local_addr().to_string())
        .with_timeouts(Timeouts {
            connect: Some(Duration::from_secs(5)),
            read: Some(Duration::from_secs(5)),
            write: Some(Duration::from_secs(5)),
        });
    assert!(!conn.is_connected());
    for i in 0..4 {
        let resp = conn.exchange(&HttpRequest::get(&format!("/c/{i}"))).unwrap();
        assert_eq!(resp.body, format!("/c/{i}").into_bytes());
        assert!(conn.is_connected(), "keep-alive response keeps the socket");
    }
    assert_eq!(conn.reuse_count(), 3);
    server.shutdown();
}

#[test]
fn stale_kept_socket_is_resent_once() {
    // A hand-rolled server that answers one request per accepted
    // connection while *promising* keep-alive, then hangs up — the
    // worst-case lying peer for a connection cache.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let served = std::thread::spawn(move || {
        let mut count = 0u32;
        for stream in listener.incoming().take(2) {
            let stream = stream.unwrap();
            let mut reader = BufReader::new(stream);
            let req = HttpRequest::read_from(&mut reader).unwrap();
            count += 1;
            let body = req.path.into_bytes();
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: t\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                body.len()
            );
            let mut stream = reader.get_ref();
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(&body).unwrap();
            // Connection dropped here despite the keep-alive promise.
        }
        count
    });

    let mut conn = HttpConnection::new(&addr);
    assert_eq!(conn.exchange(&HttpRequest::get("/one")).unwrap().body, b"/one");
    assert!(conn.is_connected(), "client kept the socket as promised");
    // The kept socket is already dead; the exchange must transparently
    // reconnect and resend exactly once.
    assert_eq!(conn.exchange(&HttpRequest::get("/two")).unwrap().body, b"/two");
    assert_eq!(served.join().unwrap(), 2);
    assert_eq!(conn.reuse_count(), 0, "both exchanges rode fresh sockets");
}

#[test]
fn pooled_scratch_does_not_leak_request_bytes_between_keep_alive_requests() {
    // Regression: one connection's reused request-body buffer must never
    // show a later request stale bytes from an earlier (longer) one.
    let server = ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            || (),
            |(), _head, body, reply, _ctl| reply.body.extend_from_slice(body),
        )
        .unwrap();
    let mut conn = HttpConnection::new(&server.local_addr().to_string());
    let long = vec![0xAA; 4096];
    assert_eq!(
        conn.exchange(&HttpRequest::post("/e", "b", long.clone())).unwrap().body,
        long
    );
    // A much shorter body on the same connection: any stale tail from the
    // 4 KiB request would change the echoed length/content.
    let short = b"tiny".to_vec();
    assert_eq!(
        conn.exchange(&HttpRequest::post("/e", "b", short.clone())).unwrap().body,
        short
    );
    assert_eq!(conn.reuse_count(), 1);
    server.shutdown();
}
