//! Overload-protection integration tests: admission control, load
//! shedding, the slow-loris deadline, panic accounting, and shutdown
//! behavior under pressure — all over real loopback sockets.
//!
//! Metrics are process-global and tests in one binary run concurrently,
//! so every metric assertion is a *delta* on a (transport, reason/kind)
//! label combination that only the asserting test produces.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bxdm::{AtomicValue, Element};
use soap::{
    BxsaEncoding, FaultCode, ServiceRegistry, SoapEngine, SoapEnvelope, SoapError, SoapService,
    TcpBinding, TcpSoapServer,
};
use transport::faulty::{FaultInjector, FaultProfile};
use transport::{
    send_request, FramedStream, HttpRequest, HttpResponse, OverloadConfig, ServerBuilder,
    TcpServerConfig, TransportError,
};

/// Sum of every counter sample matching `name` and all `labels`
/// fragments (label fragments look like `transport="http"`).
fn counter(name: &str, labels: &[&str]) -> u64 {
    obs::global()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == name && labels.iter().all(|l| s.labels.contains(l)))
        .map(|s| match s.value {
            obs::SampleValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// One keep-alive GET exchange over a raw client socket.
fn http_exchange(stream: &mut TcpStream, path: &str) -> HttpResponse {
    HttpRequest::get(path)
        .write_to_with(stream, true)
        .expect("write request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    HttpResponse::read_from(&mut reader).expect("read response")
}

/// A registry with one `Nap` operation that holds the handler for
/// `nap` before answering — the knob that primes the latency EWMA.
fn nap_registry(nap: Duration) -> Arc<ServiceRegistry> {
    let mut registry = ServiceRegistry::new();
    registry.register("Nap", move |_req: &SoapEnvelope| {
        thread::sleep(nap);
        Ok(SoapEnvelope::with_body(
            Element::component("NapResponse")
                .with_child(Element::leaf("ok", AtomicValue::Bool(true))),
        ))
    });
    Arc::new(registry)
}

fn nap_request() -> SoapEnvelope {
    SoapEnvelope::with_body(Element::component("Nap"))
}

/// A full server in accept-then-reject mode answers the excess
/// connection with the complete contract: `503`, a parseable
/// `Retry-After`, an honest `Connection: close`, and then EOF — never a
/// silent reset, never service.
#[test]
fn full_server_rejects_with_the_complete_503_contract() {
    let server = ServerBuilder::bind("127.0.0.1:0")
        .read_timeout(Duration::from_secs(5))
        .write_timeout(Duration::from_secs(5))
        .overload(OverloadConfig {
            max_connections: Some(2),
            reject_when_full: true,
            ..OverloadConfig::default()
        })
        .serve_http(
            || (),
            |(), _head, _body, reply, _ctl| reply.body.extend_from_slice(b"served"),
        )
        .unwrap();
    let addr = server.local_addr();
    let rejected_before =
        counter("bx_server_rejected_connections_total", &["transport=\"http\"", "reason=\"conn_cap\""]);

    // Fill the cap; a completed exchange proves each connection was
    // admitted and registered before the next connect.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(http_exchange(&mut s, "/").status, 200);
        held.push(s);
    }

    // The third connection is turned away at accept — the rejection
    // arrives without the client sending a byte.
    let third = TcpStream::connect(addr).unwrap();
    third.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(third.try_clone().unwrap());
    let resp = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(resp.status, 503, "rejected connection must see 503");
    let retry = resp.header("Retry-After").expect("Retry-After on rejection");
    assert!(
        retry.trim().parse::<u64>().expect("delta-seconds Retry-After") >= 1,
        "hint must be at least one second, got {retry:?}"
    );
    assert!(
        resp.header("Connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close")),
        "rejection must announce Connection: close"
    );
    // And nothing after it: the connection ends, it is never served.
    let mut tail = [0u8; 32];
    assert_eq!(reader.read(&mut tail).unwrap(), 0, "expected EOF after the 503");

    assert!(
        counter("bx_server_rejected_connections_total", &["transport=\"http\"", "reason=\"conn_cap\""])
            > rejected_before,
        "the rejection must be counted"
    );

    // The admitted connections were never disturbed.
    for s in held.iter_mut() {
        assert_eq!(http_exchange(s, "/").status, 200);
    }
    drop(held);
    server.shutdown();
}

/// In pause-accept mode (the default) a full server queues arrivals in
/// the kernel backlog instead of rejecting: the waiting connection gets
/// no answer while the cap is held, and is served as soon as a slot
/// frees.
#[test]
fn paused_acceptor_serves_the_queued_connection_when_a_slot_frees() {
    let server = ServerBuilder::bind("127.0.0.1:0")
        .read_timeout(Duration::from_secs(5))
        .write_timeout(Duration::from_secs(5))
        .overload(OverloadConfig {
            max_connections: Some(1),
            reject_when_full: false,
            ..OverloadConfig::default()
        })
        .serve_http(
            || (),
            |(), _head, _body, reply, _ctl| reply.body.extend_from_slice(b"served"),
        )
        .unwrap();
    let addr = server.local_addr();

    let mut holder = TcpStream::connect(addr).unwrap();
    holder.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(http_exchange(&mut holder, "/").status, 200);

    // The second connection connects (kernel backlog) and sends its
    // request, but gets nothing while the slot is held.
    let mut waiter = TcpStream::connect(addr).unwrap();
    HttpRequest::get("/").write_to_with(&mut waiter, true).unwrap();
    waiter
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut probe = [0u8; 1];
    match waiter.read(&mut probe) {
        Err(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "waiter should time out unanswered, got {e:?}"
        ),
        Ok(n) => panic!("waiter must not be served while the cap is held (read {n} bytes)"),
    }

    // Free the slot: the waiter is admitted and served.
    drop(holder);
    waiter.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(waiter);
    let resp = HttpResponse::read_from(&mut reader).unwrap();
    assert_eq!(resp.status, 200, "queued connection must be served after release");
    server.shutdown();
}

/// A shed HTTP request is answered with the full 503 contract *before*
/// the handler runs — the whole point of shedding is that saturated
/// servers stop paying for work they turn away.
#[test]
fn http_shed_skips_the_handler_and_carries_the_contract() {
    let handler_ran = Arc::new(AtomicBool::new(false));
    let witness = Arc::clone(&handler_ran);
    let server = ServerBuilder::bind("127.0.0.1:0")
        .read_timeout(Duration::from_secs(5))
        .write_timeout(Duration::from_secs(5))
        .overload(OverloadConfig {
            // Zero admitted requests: everything sheds, deterministically.
            max_inflight: Some(0),
            retry_after_hint: Duration::from_secs(2),
            ..OverloadConfig::default()
        })
        .serve_http(
            || (),
            move |(), _head, _body, reply, _ctl| {
                witness.store(true, Ordering::SeqCst);
                reply.body.extend_from_slice(b"served");
            },
        )
        .unwrap();
    let addr = server.local_addr().to_string();
    let shed_before = counter("bx_server_shed_total", &["transport=\"http\"", "reason=\"inflight\""]);

    let resp = send_request(&addr, &HttpRequest::get("/")).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("Retry-After").map(str::trim), Some("2"));
    assert!(
        resp.header("Connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close")),
        "shed response must announce Connection: close"
    );
    assert!(
        !handler_ran.load(Ordering::SeqCst),
        "shedding must happen before the handler"
    );
    assert!(
        counter("bx_server_shed_total", &["transport=\"http\"", "reason=\"inflight\""]) > shed_before,
        "the shed must be counted"
    );
    server.shutdown();
}

/// A shed framed-TCP request is answered in-band: a `Server` fault whose
/// detail carries a machine-readable `retry-after-ms` hint, on a
/// connection that stays open for the retry. The fault-injection test
/// hook, with a clean injector, must shed exactly like the real bind.
#[test]
fn framed_shed_answers_a_retryable_fault_and_keeps_the_connection() {
    let config = TcpServerConfig {
        overload: OverloadConfig {
            max_inflight: Some(0),
            ..OverloadConfig::default()
        },
        ..TcpServerConfig::default()
    };
    let servers = [
        (
            "bind_service_with",
            TcpSoapServer::bind_service_with(
                "127.0.0.1:0",
                config,
                SoapService::new(BxsaEncoding::default(), nap_registry(Duration::ZERO)),
            )
            .unwrap(),
        ),
        (
            "bind_faulty",
            TcpSoapServer::bind_faulty(
                "127.0.0.1:0",
                config,
                FaultInjector::new(FaultProfile::clean(7)).shared(),
                SoapService::new(BxsaEncoding::default(), nap_registry(Duration::ZERO)),
            )
            .unwrap(),
        ),
    ];
    for (bind, server) in servers {
        let addr = server.local_addr().to_string();
        let shed_before = counter(
            "bx_server_shed_total",
            &["transport=\"tcp\"", "reason=\"inflight\""],
        );

        let mut engine = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&addr));
        // Two calls: the second proves the connection survived the first shed.
        for round in 0..2 {
            match engine.call_with(nap_request(), &soap::CallOptions::new()) {
                Err(SoapError::Fault(f)) => {
                    assert_eq!(f.code, FaultCode::Server, "{bind} round {round}");
                    let hint = f
                        .retry_after()
                        .expect("shed fault must carry retry-after-ms");
                    assert!(
                        hint >= Duration::from_millis(1),
                        "{bind} round {round}: hint {hint:?}"
                    );
                }
                other => panic!("{bind} round {round}: expected a shed fault, got {other:?}"),
            }
        }
        assert!(
            counter(
                "bx_server_shed_total",
                &["transport=\"tcp\"", "reason=\"inflight\""]
            ) >= shed_before + 2,
            "{bind}: both sheds must be counted"
        );
        server.shutdown();
    }
}

/// The whole-message deadline cuts off a slow-loris peer that trickles
/// bytes fast enough to dodge the progress-based read timeout, and a
/// well-behaved client is served immediately afterwards.
#[test]
fn slow_loris_trickle_is_cut_by_the_message_deadline() {
    let server = ServerBuilder::bind("127.0.0.1:0")
        // Generous progress budget: each trickled byte re-arms it, so
        // on its own it would never fire. Only the message deadline
        // can end this connection early.
        .read_timeout(Duration::from_secs(5))
        .overload(OverloadConfig {
            message_deadline: Some(Duration::from_millis(200)),
            ..OverloadConfig::default()
        })
        .serve_framed(|| (), |(), req: &[u8], out: &mut Vec<u8>, _ctl| {
            out.extend_from_slice(req)
        })
        .unwrap();
    let addr = server.local_addr().to_string();
    let slow_before =
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"slow_peer\""]);

    let mut loris = TcpStream::connect(&addr).unwrap();
    loris.set_nodelay(true).unwrap();
    // Declare a 100-byte frame, then trickle one byte every 20 ms: the
    // full message would take 2 s, ten times the deadline.
    loris.write_all(&100u32.to_be_bytes()).unwrap();
    loris.set_nonblocking(true).unwrap();
    let started = Instant::now();
    let mut cut = false;
    while started.elapsed() < Duration::from_secs(3) {
        thread::sleep(Duration::from_millis(20));
        let mut probe = [0u8; 8];
        match loris.read(&mut probe) {
            Ok(0) => {
                cut = true;
                break;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => {
                cut = true;
                break;
            }
        }
        // Ignore write errors; the read side is the close detector.
        let _ = loris.write(b"x");
    }
    assert!(cut, "the trickling connection must be cut by the deadline");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "cut must come from the 200 ms deadline, not a later timeout ({:?})",
        started.elapsed()
    );
    assert!(
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"slow_peer\""])
            > slow_before,
        "the kill must be counted as slow_peer"
    );

    // The defense is surgical: a prompt client is served right away.
    let mut good = FramedStream::connect(&addr).unwrap();
    good.send(b"hello").unwrap();
    assert_eq!(good.recv().unwrap(), b"hello");
    server.shutdown();
}

/// Satellite: caught handler panics are counted per transport, the
/// worker survives, and the server keeps serving.
#[test]
fn handler_panics_are_counted_per_transport() {
    // HTTP: the panicking request is answered 500 and the counter moves.
    let http = ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            || (),
            |(), head, _body, reply, _ctl| {
                if head.path == "/boom" {
                    panic!("handler exploded");
                }
                reply.body.extend_from_slice(b"fine");
            },
        )
        .unwrap();
    let http_addr = http.local_addr().to_string();
    let http_before = counter("bx_server_handler_panics_total", &["transport=\"http\""]);
    let resp = send_request(&http_addr, &HttpRequest::get("/boom")).unwrap();
    assert_eq!(resp.status, 500, "a panicked handler still owes an answer");
    assert!(
        counter("bx_server_handler_panics_total", &["transport=\"http\""]) > http_before,
        "http panic must be counted"
    );
    let resp = send_request(&http_addr, &HttpRequest::get("/")).unwrap();
    assert_eq!(resp.status, 200, "the server must survive the panic");
    http.shutdown();

    // Framed TCP: the connection dies, the counter moves, the next
    // connection is served.
    let tcp = ServerBuilder::bind("127.0.0.1:0")
        .serve_framed(|| (), |(), req: &[u8], out: &mut Vec<u8>, _ctl| {
            if req == b"boom" {
                panic!("handler exploded");
            }
            out.extend_from_slice(req);
        })
        .unwrap();
    let tcp_addr = tcp.local_addr().to_string();
    let tcp_before = counter("bx_server_handler_panics_total", &["transport=\"tcp\""]);
    let mut victim = FramedStream::connect(&tcp_addr).unwrap();
    victim.send(b"boom").unwrap();
    assert!(victim.recv().is_err(), "panicked exchange must not produce a frame");
    assert!(
        counter("bx_server_handler_panics_total", &["transport=\"tcp\""]) > tcp_before,
        "tcp panic must be counted"
    );
    let mut fresh = FramedStream::connect(&tcp_addr).unwrap();
    fresh.send(b"ok").unwrap();
    assert_eq!(fresh.recv().unwrap(), b"ok");
    tcp.shutdown();
}

/// Satellite: with overload protection armed, a drain-on-shutdown still
/// answers the request that was admitted and in flight when shutdown
/// began — and drops nothing.
#[test]
fn shutdown_answers_admitted_inflight_work_under_overload_config() {
    let server = ServerBuilder::bind("127.0.0.1:0")
        .overload(OverloadConfig {
            max_connections: Some(8),
            reject_when_full: true,
            message_deadline: Some(Duration::from_secs(5)),
            ..OverloadConfig::default()
        })
        .serve_framed(|| (), |(), req: &[u8], out: &mut Vec<u8>, _ctl| {
            thread::sleep(Duration::from_millis(300));
            out.extend_from_slice(req);
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let drops_before =
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"shutdown_drop\""]);

    let inflight = thread::spawn(move || {
        let mut c = FramedStream::connect(&addr).unwrap();
        c.send(b"answer me").unwrap();
        c.recv()
    });
    // Let the request reach the handler, then shut down around it.
    thread::sleep(Duration::from_millis(100));
    server.shutdown_within(Duration::from_secs(2));

    let reply = inflight.join().expect("client thread");
    assert_eq!(reply.unwrap(), b"answer me", "in-flight work must be answered");
    assert_eq!(
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"shutdown_drop\""]),
        drops_before,
        "a drain that finished must drop nothing"
    );
}

/// Satellite: a server that is actively shedding shuts down cleanly —
/// the shed connection was *answered* (fault with a retry hint), so it
/// is closed as idle, never double-counted as a shutdown drop.
#[test]
fn sheds_are_not_double_counted_as_shutdown_drops() {
    let server = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig {
            overload: OverloadConfig {
                shed_queue_delay: Some(Duration::from_millis(50)),
                ..OverloadConfig::default()
            },
            ..TcpServerConfig::default()
        },
        SoapService::new(BxsaEncoding::default(), nap_registry(Duration::from_millis(250))),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let shed_before = counter("bx_server_shed_total", &["transport=\"tcp\"", "reason=\"queue_delay\""]);
    let drops_before =
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"shutdown_drop\""]);

    let mut engine = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&addr));
    // First call is admitted (no latency history yet) and takes 250 ms,
    // which primes the EWMA far past the 50 ms queue-delay budget…
    let first = engine.call_with(nap_request(), &soap::CallOptions::new()).expect("first call admitted");
    assert!(first.body_element().is_some());
    // …so the second call on the same connection is shed with a hint.
    match engine.call_with(nap_request(), &soap::CallOptions::new()) {
        Err(SoapError::Fault(f)) => assert!(f.retry_after().is_some()),
        other => panic!("expected a queue-delay shed, got {other:?}"),
    }
    assert!(
        counter("bx_server_shed_total", &["transport=\"tcp\"", "reason=\"queue_delay\""]) > shed_before,
        "the shed must be counted under queue_delay"
    );

    // Shutdown with the shed connection still open: it was answered, so
    // it drains as idle — no shutdown_drop.
    server.shutdown_within(Duration::from_secs(1));
    assert_eq!(
        counter("bx_server_connection_errors_total", &["transport=\"tcp\"", "kind=\"shutdown_drop\""]),
        drops_before,
        "an answered shed must not also be counted as a drop"
    );
}

/// Satellite: a live server sending `Retry-After` as an RFC 7231
/// HTTP-date reaches the client as a delay — far-future dates clamped
/// to a day, past dates as "retry now".
#[test]
fn http_date_retry_after_reaches_the_client_clamped() {
    let server = ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            || (),
            |(), head, _body, reply, _ctl| {
                let resp = HttpResponse {
                    status: 503,
                    reason: "Service Unavailable".into(),
                    headers: Vec::new(),
                    body: b"busy".to_vec(),
                };
                reply.respond(match head.path {
                    // Far future: must clamp to the one-day cap.
                    "/future" => resp.with_header("Retry-After", "Fri, 01 Jan 2038 00:00:00 GMT"),
                    // Past: retry immediately.
                    _ => resp.with_header("Retry-After", "Sun, 06 Nov 1994 08:49:37 GMT"),
                });
            },
        )
        .unwrap();
    let addr = server.local_addr().to_string();

    let hint = |path: &str| -> Option<u64> {
        let resp = send_request(&addr, &HttpRequest::get(path)).unwrap();
        assert_eq!(resp.status, 503);
        match resp.status_error() {
            TransportError::HttpStatus { retry_after_secs, .. } => retry_after_secs,
            other => panic!("expected HttpStatus, got {other:?}"),
        }
    };
    assert_eq!(hint("/future"), Some(86_400), "far-future date clamps to a day");
    assert_eq!(hint("/past"), Some(0), "past date means retry now");
    server.shutdown();
}
