//! The HTTP/1.1 server (the Apache stand-in).
//!
//! Since the reactor port this is an evented server with keep-alive and
//! pipelining: connections are parked on a fixed pool of event-loop
//! workers ([`crate::reactor`]), each serving as many requests as the
//! peer cares to send before `Connection: close` (from either side) or
//! the idle budget ends it. Bind one with
//! [`ServerBuilder::serve_http`](crate::ServerBuilder::serve_http); it
//! runs as a [`Server`].

use std::sync::Arc;
use std::time::Duration;

use crate::error::TransportResult;
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;
use crate::metrics;
use crate::pool::BufferPool;
use crate::reactor::conn::HttpDriver;
use crate::reactor::overload::{Overload, OverloadConfig};
use crate::reactor::server::{ReactorConfig, Server};
use crate::tcpserver::ReplyControl;

/// Per-connection limits for an HTTP [`Server`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpServerConfig {
    /// Budget for making read progress on a request (headers + body) —
    /// and the idle allowance for a keep-alive connection between
    /// requests. A client that stalls mid-request is disconnected (and
    /// counted) when this expires; a connection that is merely idle
    /// closes quietly.
    pub read_timeout: Option<Duration>,
    /// Budget for writing the response.
    pub write_timeout: Option<Duration>,
    /// When set, `GET <metrics_path>` is answered by the server itself
    /// with the process-wide metrics in Prometheus text format
    /// ([`metrics_response`]), before the application handler sees the
    /// request.
    pub metrics_path: Option<&'static str>,
    /// Overload protection: connection cap, request shedding, and the
    /// whole-message (slow-loris) deadline. Rejected connections and
    /// shed requests are answered `503 Service Unavailable` with
    /// `Retry-After` and `Connection: close`. Default: everything off.
    pub overload: OverloadConfig,
}

/// The `/metrics` scrape response: everything registered in
/// [`obs::global`], rendered as Prometheus text exposition.
pub fn metrics_response() -> HttpResponse {
    HttpResponse::ok(
        "text/plain; version=0.0.4",
        obs::global().render().into_bytes(),
    )
}

/// The one HTTP bind, behind
/// [`ServerBuilder::serve_http_ctl`](crate::ServerBuilder::serve_http_ctl).
pub(crate) fn bind_http_inner<H>(
    addr: &str,
    config: HttpServerConfig,
    pool: Arc<BufferPool>,
    stream_factory: Option<crate::http::streaming::StreamFactory>,
    handler: H,
) -> TransportResult<Server>
where
    H: Fn(&HttpRequest, &mut ReplyControl) -> HttpResponse + Send + Sync + 'static,
{
    let m = metrics::http_server();
    let handler = Arc::new(handler);
    let metrics_path = config.metrics_path;
    // The canned wire bytes a connection rejected at the cap receives:
    // a complete 503 with Retry-After, honest `Connection: close`.
    let reject = HttpResponse::service_unavailable(config.overload.retry_after_hint);
    let mut reject_wire = Vec::with_capacity(256);
    reject.serialize_head(false, &mut reject_wire);
    reject_wire.extend_from_slice(&reject.body);
    let overload = Arc::new(Overload::new(
        &config.overload,
        Some(Arc::<[u8]>::from(reject_wire)),
        None,
    ));
    let driver_overload = Arc::clone(&overload);
    Server::start(
        addr,
        ReactorConfig {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            transport: "http",
            metrics: m,
            injector: None,
            overload,
        },
        Arc::new(move || {
            Box::new(HttpDriver::new(
                Arc::clone(&handler),
                m,
                metrics_path,
                Arc::clone(&pool),
                Arc::clone(&driver_overload),
                stream_factory.clone(),
            )) as Box<dyn crate::reactor::conn::ConnDriver>
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client::{http_get, send_request};
    use crate::ServerBuilder;
    use std::io::BufReader;
    use std::net::TcpStream;

    #[test]
    fn serves_concurrent_requests() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|req| HttpResponse::ok("text/plain", req.path.as_bytes().to_vec()))
            .unwrap();
        let addr = server.local_addr().to_string();
        crossbeam::thread::scope(|s| {
            let mut joins = Vec::new();
            for i in 0..8 {
                let addr = addr.clone();
                joins.push(s.spawn(move |_| {
                    let path = format!("/req/{i}");
                    assert_eq!(http_get(&addr, &path).unwrap(), path.as_bytes());
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        })
        .unwrap();
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|_req| HttpResponse::ok("text/plain", vec![]))
            .unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        use std::io::Write;
        stream.write_all(b"GARBAGE REQUEST LINE\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let resp = HttpResponse::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks() {
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|_req| HttpResponse::ok("text/plain", vec![]))
            .unwrap();
        let addr = server.local_addr().to_string();
        assert!(send_request(&addr, &HttpRequest::get("/")).is_ok());
        server.shutdown();
        // A second server can immediately rebind a fresh ephemeral port.
        let server2 = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|_req| HttpResponse::ok("text/plain", vec![]))
            .unwrap();
        drop(server2); // Drop also shuts down cleanly.
    }

    #[test]
    fn one_shot_clients_still_get_connection_close() {
        // The stock client helpers say `Connection: close`; the server
        // must honor it and say so in its own response header.
        let server = ServerBuilder::bind("127.0.0.1:0")
            .serve_http(|_req| HttpResponse::ok("text/plain", b"x".to_vec()))
            .unwrap();
        let addr = server.local_addr().to_string();
        let resp = send_request(&addr, &HttpRequest::get("/")).unwrap();
        assert_eq!(resp.header("connection"), Some("close"));
        server.shutdown();
    }
}
